#!/usr/bin/env python3
"""Derive the closed forms of the slices n = d + j, j = 1..8, from the rank scan.

A member of B_d of size n = d + j has j - 1 ascents, so it is j decreasing
blocks of at least two values each, read left to right: an ordered set
partition of 1..n.  The window rules of ``is_minimal`` say, for each pair
of neighbouring blocks, min2(B_t) < max(B_t+1) and min(B_t) < max2(B_t+1)
(min2 the second smallest value, max2 the second largest).

Why closed forms exist.  Hand the values 1..n, smallest first, each to
one block.  A block is empty, holds one value still open, holds one value
that is its max2, holds two or more values still open ("looping"), holds
two or more values with only its max to come, or is closed.  A value may
become a block's max2 only once the left neighbour holds a value, and its
max only once the left neighbour holds two.  Each value is one move of the
tuple of j block states (the transfer matrix of Stanley, EC1 4.7).  The
only move that keeps the tuple is a value inside a looping block, so the
matrix is triangular and its diagonal entry is the number i of looping
blocks.  Summing over the paths of proper moves,

    count(d, d + j) = sum over i = 1..j of P_i(d) * i**d

where deg P_i + 1 is at most the number of states with i looping blocks
on one path of moves.  That number is 3(j - i) + 1: the test
``tests/test_minimal.py::TestCountBasis::test_degree_bound_of_the_rows``
walks the moves and computes it for every row j = 1..8 and i = 0..j.  The
sum holds once n reaches the number of states with no looping block on a
path, 3j + 1 (the same count at i = 0).  Below that, at d = j..2j, a path
can add a term of its own, so there the form holds only because the scan
checks each of those d.

So each row is a vector of U = sum over i of (3(j - i) + 1) unknowns,
fixed by U consecutive values at d >= 2j + 1 (the sequences d**k * i**d
solve one linear recurrence of order U).  The script solves for them in
exact fractions on the scanned counts at d = j .. j + U + 2, checks every
scanned value from d = j up to U past 2j (at least 3 past the fit), and
asserts that every coefficient above degree 2(j - i) is exactly 0.  Given
the degree bound, the rows are then exact, not guessed.  What stays argued,
not computed, is the standard step from states on a path to the degree of
P_i (Stanley, EC1 4.7).  The tests also pin every row against the scan
(``TestCountBasis``).  The script never calls ``count_basis``, which reads
the table it derives, only ``_rank_scan``.

Each row comes from one scan, at the largest d it checks.  Every prefix
that scan takes is a member of B_d' for its own d' <= d descents, so the
scan of the size d + j (its members have j - 1 ascents) yields the size
d' + j slice of every d' <= d at once.

It prints the table as a Python literal equal to the one ``permdl.minimal``
holds: per row, a common denominator and the integer coefficients of each
P_i times it, lowest degree first.  The eight rows take about 4.5 s
(Python 3.11, 2-core VM), most of it in rows 7 and 8 (about 1 s and
2.5 s), and nearly all of that in their exact solves over 70 and 92
unknowns: their scans, at d = 84 and d = 108, take 0.13 s and 0.28 s.

Examples:
    python scripts/derive_forms.py
    python scripts/derive_forms.py --max-j 4
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from math import lcm

from permdl.minimal import _rank_scan


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Gauss-Jordan elimination over the rationals on a system with at least
    # as many equations as unknowns; an equation left over must read 0 = 0.
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    width = len(matrix[0])
    for col in range(width):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                factor = row[col]
                rows[r] = [x - factor * y for x, y in zip(row, rows[col])]
    if any(row[-1] for row in rows[width:]):
        raise SystemExit("the scanned counts fit no form of this degree")
    return [row[-1] for row in rows[:width]]


def derive_row(j: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Row j of the table: (den, (Q_1, .., Q_j)) with P_i = Q_i / den."""
    terms = [(i, k) for i in range(1, j + 1) for k in range(3 * (j - i) + 1)]
    unknowns = len(terms)
    last_fit = j + unknowns + 2
    ds = range(j, max(last_fit + 3, 2 * j + unknowns) + 1)
    # Every d' in ds from the scan at the largest: size d' + j has j - 1 ascents at each d'.
    counts = {e: count for e, m, count in _rank_scan(ds[-1], ds[-1] + j) if m - e == j}
    fit = ds[: last_fit - j + 1]
    solution = solve([[Fraction(d**k * i**d) for i, k in terms] for d in fit], [Fraction(counts[d]) for d in fit])
    coeffs = dict(zip(terms, solution))
    surplus = [term for term, c in coeffs.items() if c and term[1] > 2 * (j - term[0])]
    if surplus:
        raise SystemExit(f"row {j}: nonzero coefficients above degree 2(j - i): {surplus}")
    for d in ds:
        if sum(coeffs[i, k] * d**k * i**d for i, k in terms) != counts[d]:
            raise SystemExit(f"row {j}: the form misses the scan at d = {d}")
    den = lcm(*(c.denominator for c in solution))
    return den, tuple(tuple(int(coeffs[i, k] * den) for k in range(2 * (j - i) + 1)) for i in range(1, j + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-j", type=int, default=8, help="derive rows j = 1..MAX_J (default 8)")
    args = parser.parse_args()
    if args.max_j < 1:
        parser.error("--max-j must be at least 1")
    print("_FEW_ASCENTS = (")
    for j in range(1, args.max_j + 1):
        print(f"    {derive_row(j)!r},")
    print(")")


if __name__ == "__main__":
    main()
