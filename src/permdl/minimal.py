"""Minimal permutations with d descents.

A permutation is minimal for its descent count d when no proper pattern of
it keeps d descents; equivalently (and this is what ``is_minimal`` checks)
it has exactly d descents and every ascent sits strictly inside, flanked by
descents, with its four-element neighbourhood ordered like 2 1 4 3 or
3 1 4 2.  ``is_minimal_oracle`` verifies the same property the slow way,
by deleting one element at a time, and exists so the two routes can be
played against each other in tests.

Minimal permutations with d descents have sizes between d+1 and 2d.  Each
slice is enumerated from the authorized labellings of the shape posets of
its descent compositions, peeled as rows of digits and sorted as byte
strings.  ``enumerate_basis_brute`` filters all n! permutations instead;
it is kept as the oracle the tests and the golden files check the
labelling route against.  ``count_basis`` counts a slice without listing
it: since the window rules are local, it scans left to right over the
relative ranks of the last two values, in time polynomial in n, and
answers the sizes d+1..d+8 and 2d-3..2d in closed form.  ``count_table``
reads those sizes from the closed forms and the sizes d+9..2d-4 in
between off one run of the same scan over the whole band, where a table
of ``count_basis`` calls would rescan every short prefix once per size.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .perm import Permutation, descent_count
from .posets import _slice_words, _unpack

__all__ = [
    "BasisSlice",
    "MinimalityReport",
    "count_basis",
    "count_by_diamond_type",
    "count_table",
    "enumerate_basis",
    "enumerate_basis_brute",
    "is_minimal",
    "is_minimal_oracle",
    "slice_to_text",
]


@dataclass(frozen=True)
class MinimalityReport:
    """Outcome of a minimality check, with an independently checkable witness.

    When ``is_minimal`` is false, either the descent count itself is off
    (``descent_count`` differs from the requested d) or ``bad_ascent`` names
    an ascent position whose neighbourhood breaks the required shape; in the
    latter case ``removable_position`` points at an element whose deletion
    keeps the descent count, proving non-minimality on its own.
    """

    is_minimal: bool
    descent_count: int
    bad_ascent: int | None = None
    removable_position: int | None = None


def _window_failure(w: tuple[int, ...], d: int) -> tuple[int | None, int | None] | None:
    # One left-to-right scan of a raw word.  None means minimal with d
    # descents; otherwise (bad_ascent, removable_position) names the first
    # ascent breaking the window rule, or is (None, None) once the descent
    # count is known to be off.  The pair before an ascent always descends
    # here: an earlier ascent would have failed already.
    n = len(w)
    count = 0
    for i in range(n - 1):  # w[i], w[i+1] sit at one-based positions i+1, i+2
        if w[i] > w[i + 1]:
            count += 1
            if count > d:
                return None, None
            continue
        if i == 0:
            return 1, 1  # drop the first element, the ascent survives as a front
        if i == n - 2:
            return i + 1, n
        if w[i + 1] < w[i + 2]:
            return i + 1, i + 2  # two ascents in a row: the middle element is idle
        if w[i - 1] > w[i + 1]:
            return i + 1, i + 1  # neighbourhood like 3 1 2: deleting the 1 keeps counts
        if w[i] > w[i + 2]:
            return i + 1, i + 2  # neighbourhood like 2 3 1: deleting the 3 keeps counts
    return None if count == d else (None, None)


def is_minimal(p: Permutation, d: int) -> MinimalityReport:
    """Check minimality for d descents via the local ascent conditions.

    >>> is_minimal(Permutation((6, 4, 2, 1, 9, 7, 3, 8, 5)), 6).is_minimal
    True
    >>> report = is_minimal(Permutation((1, 3, 2)), 1)
    >>> report.is_minimal, report.removable_position
    (False, 1)
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    failure = _window_failure(p.values, d)
    if failure is None:
        return MinimalityReport(True, d)
    dc = descent_count(p.values)
    if dc != d:
        return MinimalityReport(False, dc)
    return MinimalityReport(False, dc, *failure)


def is_minimal_oracle(p: Permutation, d: int) -> bool:
    """Removal-based minimality check: every single deletion must lose a descent.

    Deleting one element never raises the descent count, so if any proper
    pattern of p kept d descents, some single deletion would too.  That makes
    single deletions a complete test and keeps this oracle independent of the
    local characterization used by ``is_minimal``.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if p.n < 2:
        raise ValueError("oracle needs size at least 2")
    v = p.values
    if descent_count(v) != d:
        return False
    for i in range(p.n):
        if descent_count(v[:i] + v[i + 1 :]) >= d:
            return False
    return True


@dataclass(frozen=True)
class BasisSlice:
    """All minimal permutations with d descents of one size, sorted lexicographically."""

    d: int
    n: int
    members: tuple[Permutation, ...]

    @property
    def count(self) -> int:
        return len(self.members)


def enumerate_basis_brute(d: int, n: int) -> BasisSlice:
    """Filter all n! permutations through the window scan of ``is_minimal``.

    The oracle for ``enumerate_basis``; only sensible for small n.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if n < d + 1 or n > 2 * d:
        return BasisSlice(d, n, ())
    # itertools.permutations of a sorted range yields lexicographic order.
    words = itertools.permutations(range(1, n + 1))
    return BasisSlice(d, n, tuple(Permutation(w) for w in words if _window_failure(w, d) is None))


def enumerate_basis(d: int, n: int) -> BasisSlice:
    """The size-n slice of minimal permutations with d descents.

    Sizes outside d+1 .. 2d yield an empty slice.  Members are the authorized
    labellings of the shape posets of all descent compositions, merged and
    sorted lexicographically as rows of digits.  They are permutations by
    construction, so they are wrapped without running the checks of
    ``Permutation`` again.
    """
    rows = _slice_words(d, n)
    return BasisSlice(d, n, tuple(map(Permutation._trusted, _unpack(rows, n))))


def _rank_scan(d: int, lo: int, hi: int | None = None) -> Iterator[tuple[int, int, int]]:
    # Counts minimal permutations by relative rank, left to right (see
    # count_basis), for d descents and the sizes lo..hi (hi defaults to lo).
    # A member of size m has m-1-d ascents, so one in the band has at least
    # `least` and at most `most`: the whole table d+1..2d takes 0 and d-1, a
    # single size n takes n-1-d for both.  A prefix of length m with k
    # ascents has slack = d - m + 2k - least, the descents it has left beyond
    # the ascents it still owes.  Only prefixes that end in a descent are
    # held: held[m, k] is a matrix whose row b = 1..m holds the ways to end
    # in ranks a > b, a = b+1..m.  Each is a member of B_d' for its d' = m-1-k
    # descents: each class taken yields (d', m, count), and grows while d' < d.
    least = lo - 1 - d
    most = (lo if hi is None else hi) - 1 - d
    held = {(2, 0): [[1], []]}
    while held:
        m, k = key = min(held)  # the shortest, so every move into it is in
        rows = held.pop(key)
        totals = list(map(sum, rows))
        yield m - 1 - k, m, sum(totals)
        if m - 1 - k == d:
            continue
        slack = d - m + 2 * k - least
        moves = []
        if slack >= 0:
            # A descent, to rank r <= b: row r gets row b's total at a = b+1.
            moves.append((m + 1, k, [totals[r:] for r in range(m + 1)]))
        if slack >= -1 and k < most:
            # An ascent to rank s > a, then a descent to rank r, b < r <= s,
            # whose slack is one more: row r gets at a = s+1 the ways with
            # b' < r and a' < s.  Row b of `across` sums a' < s for s =
            # b+1..m+1; row r of `sums` adds up rows b' < r of `across` for
            # s = r..m+1, and row m+2 is empty.
            across = [list(itertools.accumulate(row, initial=0)) for row in rows]
            sums = itertools.accumulate(across, lambda x, y: [*map(operator.add, x[1:], y)], initial=[0] * (m + 1))
            moves.append((m + 2, k + 1, [*sums, []]))
        for n, j, grown in moves:
            old = held.get((n, j))
            held[n, j] = grown if old is None else [list(map(operator.add, a, b)) for a, b in zip(old, grown)]


# The slices n = d + j, j = 1..8: count_basis(d, d + j) is the sum of
# P_i(d) * i**d over i = 1..j, with polynomials P_i of degree 2(j - i).
# Row j holds a common denominator den and, for each i, the coefficients
# of den * P_i, lowest degree first.  scripts/derive_forms.py fits the rows
# to _rank_scan under a degree bound the tests compute for every row.
_FEW_ASCENTS = (
    (1, ((1,),)),
    (1, ((-4, -3, -1), (4,))),
    (2, ((2, 12, 10, 5, 1), (-56, -32, -8), (54,))),
    (6, ((-24, 38, 3, -2, -8, -6, -1), (96, 384, 240, 84, 12), (-1620, -810, -162), (1536,))),
    (24, ((-960, 848, -192, 60, 68, -62, -9, 6, 1), (-960, 2288, -144, -608, -416, -144, -16),
          (5832, 19440, 10368, 2916, 324), (-79872, -36864, -6144), (75000,))),
    (120, ((-51840, 49032, -19170, -4335, 8015, -1167, -889, 155, 45, -5, -1),
           (-76800, 77440, -2240, -5760, -1920, -1320, 300, 200, 20),
           (-51840, 176040, -34020, -56160, -27000, -6480, -540),
           (491520, 1474560, 706560, 168960, 15360), (-6000000, -2625000, -375000), (5598720,))),
    (720, ((-3870720, 5231616, -1660928, -1209216, 699760, 68644, -80366, 868, 4114, -155, -101, 3, 1),
           (-7076160, 4967568, -230040, -299520, 124320, -67488, -7056, 7680, 480, -240, -24),
           (-7076160, 8696160, -745200, -962280, -230040, -8100, 41310, 11340, 810),
           (-3870720, 18585600, -5437440, -6328320, -2457600, -460800, -30720),
           (56250000, 157500000, 69750000, 14625000, 1125000), (-638254080, -268738560, -33592320),
           (592950960,))),
    (5040, ((-378000000, 820650000, -128012500, -237037500, 61539625, 23951410, -7606823, -1093318,
             427120, 23030, -12236, -182, 175, 0, -1),
            (-867041280, 509558784, -23109632, -51652608, 25070080, -2604224, -2264864, 463456, 95032,
             -18620, -2324, 252, 28),
            (-925888320, 739608408, -34904520, -51285150, -357210, -2922318, 999054, 459270, -28350,
             -17010, -1134),
            (-867041280, 1260994560, -193536000, -152248320, -22794240, 6988800, 5322240, 967680, 53760),
            (-378000000, 2619750000, -968625000, -918750000, -304500000, -47250000, -2625000),
            (8465264640, 22574039040, 9405849600, 1763596800, 117573120),
            (-91314447840, -37355910480, -4150656720), (84557168640,))),
)


def _horner(coefficients: tuple[int, ...], x: int) -> int:
    # The polynomial with these coefficients, lowest degree first, at x.
    value = 0
    for c in reversed(coefficients):
        value = value * x + c
    return value


def count_basis(d: int, n: int) -> int:
    """Number of size-n minimal permutations with d descents.

    Counted left to right by relative rank, from the window rules of
    ``is_minimal``: the first and last pairs descend, no two ascents are
    adjacent, an ascent's top exceeds the value two places back, and the
    value after an ascent lies above its bottom.  Only prefixes that end in
    a descent are kept, each summarized by its length m, its ascent count k
    and the ranks a > b of its last two values.  A prefix grows by a
    descent, or by an ascent and the descent after it; appending a value of
    rank r (1..m+1) shifts the old ranks >= r up by one.  A member has
    exactly n-1-d ascents, so the prefix's slack d - m + 2k - (n-1-d)
    counts the descents it has left beyond the ascents it still owes.  A
    descent needs slack >= 0; an ascent and its descent need slack >= -1
    and k < n-1-d, since that descent has one more slack.  So no prefix
    reaches d descents before length n.  No member is materialized.  This
    is the band scan of ``count_table`` with the band narrowed to n.

    The sizes 2d-3..2d and d+1..d+8 are answered without the scan, with
    Cat(k) = C(2k, k)/(k+1):

    - n = 2d: Cat(d);
    - n = 2d-1: 2**(d-2) * C(2d-1, d-2);
    - n = 2d-2: Cat(d-1) * ((d+1) * 4**(d-1) - 2(2d**2 + 3d + 4) * 3**(d-3)) / (d+1);
    - n = 2d-3: Cat(d-1) * (27(9d**2 + 19d + 22) * 4**d
      + 64(d-8)(d+1) * 6**d) / (13824 (d+1));
    - n = d+j, j = 1..8: the sum of P_i(d) * i**d over i = 1..j, from
      the table ``_FEW_ASCENTS``; d+1 is the decreasing word, and d+2 is
      2**(d+2) - (d+1)(d+2) - 2.

    The four diagonal forms are the cheapest (a microsecond or less,
    against several microseconds for rows 7 and 8 of the table, each
    polynomial evaluated by Horner's rule), so they are tried first.  The
    sizes d+2 and 2d are the paper's counts.  The rows d+1..d+8 are fitted
    to the scan by ``scripts/derive_forms.py`` under a degree bound the
    tests compute for every row; the forms at 2d-3, 2d-2 and 2d-1 were
    guessed from exact counts.  ``tests/test_minimal.py::TestCountBasis``
    pins every form against the scan.  The divisions are exact.  Where two
    sizes coincide, as d+3 = 2d at d = 3, their forms agree, so the order
    in which they are tried changes no count.

    >>> [count_basis(4, n) for n in range(5, 9)]
    [1, 32, 84, 14]
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if not d + 1 <= n <= 2 * d:
        return 0
    if n == 2 * d:
        return comb(2 * d, d) // (d + 1)
    if n == 2 * d - 1:
        return 2 ** (d - 2) * comb(2 * d - 1, d - 2)
    if n == 2 * d - 2:
        catalan = comb(2 * d - 2, d - 1) // d
        return catalan * ((d + 1) * 4 ** (d - 1) - 2 * (2 * d * d + 3 * d + 4) * 3 ** (d - 3)) // (d + 1)
    if n == 2 * d - 3:
        catalan = comb(2 * d - 2, d - 1) // d
        scaled = 27 * (9 * d * d + 19 * d + 22) * 4**d + 64 * (d - 8) * (d + 1) * 6**d
        return catalan * scaled // (13824 * (d + 1))
    if n - d <= len(_FEW_ASCENTS):
        den, polys = _FEW_ASCENTS[n - d - 1]
        return sum(i**d * _horner(q, d) for i, q in enumerate(polys, 1)) // den
    return next(count for e, _, count in _rank_scan(d, n) if e == d)


def count_table(d: int) -> dict[int, int]:
    """Numbers of minimal permutations with d descents, size by size.

    The whole table ``{n: count_basis(d, n)}`` for n = d+1 .. 2d.  The
    sizes d+1..d+8 and 2d-3..2d come from the closed forms of
    ``count_basis``.  The sizes d+9..2d-4 between them, non-empty from
    d = 13 on, are read off one left-to-right rank scan of that band
    instead of one scan per size.  Each prefix class the scan takes is a
    slice of B_d' for its own d' <= d descents; the table keeps those with
    d' = d, which the scan grows no further: the band's members, with 8 to
    d-5 ascents, the slack floor and ascent cap of the scan.

    >>> count_table(4)
    {5: 1, 6: 32, 7: 84, 8: 14}
    >>> count_table(1)
    {2: 1}
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    band = range(d + len(_FEW_ASCENTS) + 1, 2 * d - 3)
    scanned = {m: count for e, m, count in _rank_scan(d, band[0], band[-1]) if e == d} if band else {}
    return {n: scanned[n] if n in band else count_basis(d, n) for n in range(d + 1, 2 * d + 1)}


def count_by_diamond_type(d: int) -> tuple[int, int]:
    """Split the size-(d+2) slice by the shape of its single ascent.

    Returns (n1, n2) where n1 counts members whose ascent neighbourhood is
    ordered like 2 1 4 3 and n2 those ordered like 3 1 4 2.  A member is a
    decreasing first block followed by the rest of 1..d+2 decreasing.  One
    of type 3 1 4 2 is fixed by the value t after its top, its bottom
    a < t and its top b > t+1: the first block is a and every value above
    t but b.  So n2 = sum of (t-1)(d+1-t) over t = 2..d, which is
    C(d+1, 3), and n1 is the rest of the slice.  The tests check both
    against the authorized labellings of each shape poset for d = 2..30.

    >>> count_by_diamond_type(4)
    (22, 10)
    """
    if d < 2:
        raise ValueError("the size-(d+2) slice needs d >= 2")
    n2 = comb(d + 1, 3)
    return count_basis(d, d + 2) - n2, n2


def slice_to_text(s: BasisSlice) -> str:
    """Slice export: a counted header line, then one permutation per line."""
    lines = [f"# d={s.d} n={s.n} count={s.count}"]
    lines.extend(str(p) for p in s.members)
    return "\n".join(lines)
