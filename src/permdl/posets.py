"""Partial orders encoding the shape of minimal permutations with d descents.

A permutation with descent composition (b_1, .., b_k) splits into k maximal
decreasing-by-position blocks: block j carries b_j descents, so b_j + 1
elements.  Its shape poset has one node per position 1..n.  Within a block,
later positions sit below earlier ones (values decrease along the block).
Every ascent, at the last position i of a block, contributes a diamond on
positions i-1, i, i+1, i+2: position i is the bottom, i+1 the top, and i-1,
i+2 are two incomparable middle nodes.

The labellings of such a poset with 1..n that place larger values above
smaller ones are exactly the minimal permutations with that descent
composition, which is what makes these posets worth enumerating.  One
down-set peel counts and lists them: it hands the values n..1 to maximal
nodes, one per layer, and carries per remaining down-set either a count
(``count_labellings``) or a buffer of partial labellings, one row of n+1
digits each (``authorized_labellings`` and the slice listings), which one
strided slice assignment per move extends by a node.

This module owns the listing rows and their text: the digit width, digit
0 as the end of a peeled row, and the text chunks a listing is written
in.  Callers get sorted rows from ``_slice_words`` and text from
``_word_chunks`` in their format's separators, between a row's values and
after its last; only the library (``enumerate_basis``,
``authorized_labellings``) takes tuples from ``_unpack``.  Below n = 256,
a sorted row is a latin-1 str of n one-byte digits (list.sort compares
those with memcmp), and text is made with no Python step per word or
digit and no search of the text: one ``bytes.translate`` per character
column of the value names, interleaved, with the last value of each row
named with the row's end, and stripped of padding where names differ in
width.  The plain generating tree's lines, padded to one width, go the
same way.
From n = 256 on, which only the one-member slice n = d+1 and single
posets of 256 nodes or more reach, a row is the tuple of its values and
its text is joined value by value.

Covers are stored as (lower, upper) pairs of positions: the value at
``lower`` must be smaller than the value at ``upper``.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .perm import Permutation

__all__ = [
    "DescentComposition",
    "DiamondPoset",
    "authorized_labellings",
    "build_poset",
    "compositions",
    "count_labellings",
    "ladder",
    "poset_edges",
]


@dataclass(frozen=True)
class DescentComposition:
    """Descent counts of the maximal decreasing blocks, left to right; all >= 1."""

    run_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_lengths", tuple(self.run_lengths))
        if not self.run_lengths:
            raise ValueError("composition needs at least one block")
        if any(b < 1 for b in self.run_lengths):
            raise ValueError("every block must carry at least one descent")

    @property
    def d(self) -> int:
        return sum(self.run_lengths)

    @property
    def n(self) -> int:
        return self.d + len(self.run_lengths)

    def ascent_positions(self) -> tuple[int, ...]:
        """One-based positions of the ascents separating consecutive blocks."""
        return tuple(itertools.accumulate(b + 1 for b in self.run_lengths[:-1]))


def compositions(d: int, n: int) -> list[DescentComposition]:
    """All descent compositions of permutations of size n with d descents.

    There are none unless d+1 <= n <= 2*d (blocks have >= 2 elements), in
    which case the compositions of d into n-d positive parts are returned in
    lexicographic order.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    parts = n - d
    if parts < 1 or parts > d:
        return []
    # The parts are the gaps between parts-1 cut points in 1..d-1; cut tuples
    # in lexicographic order give the compositions in lexicographic order.
    return [
        DescentComposition(tuple(b - a for a, b in zip((0, *cuts), (*cuts, d))))
        for cuts in itertools.combinations(range(1, d), parts - 1)
    ]


@dataclass(frozen=True)
class DiamondPoset:
    """Poset on positions 1..size with covers (lower, upper); always acyclic."""

    size: int
    covers: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "covers", frozenset(self.covers))
        if self.size < 1:
            raise ValueError("a poset needs at least one node")
        graph = graphlib.TopologicalSorter()
        for lo, up in self.covers:
            if not (1 <= lo <= self.size and 1 <= up <= self.size) or lo == up:
                raise ValueError(f"cover ({lo}, {up}) out of range")
            graph.add(up, lo)
        try:
            graph.prepare()
        except graphlib.CycleError:
            raise ValueError("cover relation contains a cycle") from None

    @classmethod
    def _trusted(cls, size: int, covers: frozenset[tuple[int, int]]) -> DiamondPoset:
        # For the covers build_poset made: each joins two positions in
        # 1..size, and every minimal permutation with that composition
        # labels them in order, so they have no cycle.  The range and cycle
        # checks above are skipped.
        poset = object.__new__(cls)
        object.__setattr__(poset, "size", size)
        object.__setattr__(poset, "covers", covers)
        return poset


def build_poset(composition: DescentComposition) -> DiamondPoset:
    """Shape poset of the minimal permutations with the given composition."""
    # p+1 sits below p unless p is an ascent i: then i is below i+2, i-1 below i+1.
    ascents = composition.ascent_positions()
    at_ascent = set(ascents)
    covers = {(p + 1, p) for p in range(1, composition.n) if p not in at_ascent}
    covers.update(pair for i in ascents for pair in ((i, i + 2), (i - 1, i + 1)))
    return DiamondPoset._trusted(composition.n, frozenset(covers))


def ladder(d: int) -> DiamondPoset:
    """Ladder with d steps: the poset of the size-2d minimal permutations.

    Odd positions 2i-1 form the upper line, even positions 2i the lower line;
    node 2i sits below node 2i-1 and both lines increase rightward.
    """
    if d < 1:
        raise ValueError("a ladder needs at least one step")
    return build_poset(DescentComposition((1,) * d))


def _cover_offsets(poset: DiamondPoset) -> list[tuple[int, int]]:
    # (offset, lowers) for each offset up - lo among the covers (lo, up):
    # lowers has bit lo-1 set for every such cover.  A shape poset has two
    # offsets, -1 within blocks and +2 across ascents.
    lowers: defaultdict[int, int] = defaultdict(int)
    for lo, up in poset.covers:
        lowers[up - lo] |= 1 << (lo - 1)
    return list(lowers.items())


def _digit_code(n: int) -> str:
    # Array type code of the digits of rows over the values 1..n: one, two
    # or four bytes each.
    return "B" if n < 1 << 8 else "H" if n < 1 << 16 else "I"


def _peel(poset: DiamondPoset, seed, grow):
    # The down-set DP behind count_labellings and the listings: values n..1
    # go one per layer to a maximal node of the remaining down-set, keyed by
    # its bitmask.  The whole poset carries seed, and a move that labels
    # node with value turns its target's total so far into grow(total,
    # carried, value, node): counts add, digit rows concatenate.
    offsets = _cover_offsets(poset)
    layer = {(1 << poset.size) - 1: seed}
    for value in range(poset.size, 0, -1):
        # seed * 0 is the empty value of seed's kind: no ways, or no rows.
        below = defaultdict(lambda: seed * 0)
        for mask, carried in layer.items():
            # The maximal nodes, those with no upper cover left in mask, from
            # one shift per cover offset: the loop below visits no other node.
            covered = 0
            for offset, lowers in offsets:
                covered |= (mask >> offset if offset > 0 else mask << -offset) & lowers
            free = mask & ~covered
            while free:
                bit = free & -free
                free ^= bit
                below[mask ^ bit] = grow(below[mask ^ bit], carried, value, bit.bit_length())
        layer = below
    return layer[0]


def _sorted_rows(digits, n: int) -> list:
    # Rows of n+1 digits, values 1..n in position order then digit 0, cut
    # apart and sorted; a wide digits array is used up.  One-byte digits
    # become latin-1 strs of n characters: no value is 0, so the digit 0
    # ending each row is its one NUL, and list.sort compares such strs with
    # memcmp.  Wider digits become tuples of n values; the guard keeps an
    # empty buffer of a huge n from sizing zip's arguments from n.
    if n < 1 << 8:
        rows = str(digits, "latin-1").split("\0")
        rows.pop()
    else:
        del digits[n :: n + 1]
        rows = list(zip(*[iter(digits)] * n)) if digits else []
    rows.sort()
    return rows


def _labelling_rows(posets: Iterable[DiamondPoset], n: int) -> list:
    # The labellings of several posets on n nodes, merged and sorted as
    # rows (see _sorted_rows).  The peel carries one buffer of rows per
    # down-set, n+1 digits to a partial labelling, 0 at its unlabelled nodes
    # and at its end; labelling node with value appends the buffer to the
    # target's and writes value into each appended row with one strided
    # slice assignment.  A layer holds one row per partial labelling, each
    # with its own completions, so it never outgrows the final list.
    step = n + 1
    make = bytearray if n < 1 << 8 else functools.partial(array, _digit_code(n))

    def grow(total, rows, value: int, node: int):
        start = len(total)
        total += rows
        total[start + node - 1 :: step] = make((value,)) * (len(rows) // step)
        return total

    digits = make()
    for poset in posets:
        digits += _peel(poset, make((0,)) * step, grow)
    return _sorted_rows(digits, n)


def _slice_words(d: int, n: int) -> list:
    # The size-n slice of minimal permutations with d descents as sorted
    # rows: the labellings of the shape posets of its compositions.  The
    # size-(d+1) slice is the one word n..1, written directly: its peel
    # copies a row of n digits in each of n layers, quadratic in all.
    if d >= 1 and n == d + 1:
        return _sorted_rows(array(_digit_code(n), [*range(n, 0, -1), 0]), n)
    return _labelling_rows(map(build_poset, compositions(d, n)), n)


def _unpack(rows: list, n: int) -> Iterator[tuple[int, ...]]:
    # The rows over 1..n as tuples of values in position order: wide rows
    # already are, and one-byte rows are cut from the bytes of their join.
    if n >= 1 << 8:
        return iter(rows)
    return zip(*[iter("".join(rows).encode("latin-1"))] * n)


# Lines per text chunk of a rendered listing or tree, so that a long one is
# never held as text all at once.
_CHUNK_LINES = 1 << 14


def _byte_renderer(names: dict[int, str], ends: dict[int, str], n: int) -> Callable[[bytes], str]:
    # Text of rows of n one-byte digits, digit v named names[v] and the last
    # digit of each row ends[v], with no Python step per digit and no search
    # of the text: character c of every name, NUL past its end, is one
    # bytes.translate of the digits, written into every width-th byte of the
    # text, and character c of every end is written over every
    # (n * width)-th byte.  Deleting the NULs closes the gaps; when all names
    # have one width there are none.
    lengths = {len(name) for name in [*names.values(), *ends.values()]}
    width = max(lengths)

    def tables(names: dict[int, str]) -> list[bytes]:
        padded = "".join(names.get(v, "").ljust(width, "\0") for v in range(256)).encode("ascii")
        return [padded[c::width] for c in range(width)]

    columns, last_columns = tables(names), tables(ends)

    def render(raw: bytes) -> str:
        text = bytearray(len(raw) * width)
        for c, table in enumerate(columns):
            text[c::width] = raw.translate(table)
        for c, table in enumerate(last_columns):
            text[(n - 1) * width + c :: n * width] = raw[n - 1 :: n].translate(table)
        return (text if len(lengths) == 1 else text.translate(None, b"\0")).decode("ascii")

    return render


def _line_chunks(lines: Iterator[bytes], names: dict[int, str], ends: dict[int, str], n: int) -> Iterator[str]:
    # Lines of n one-byte digits as text, _CHUNK_LINES lines per chunk,
    # named as _byte_renderer names them.
    render = _byte_renderer(names, ends, n)
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        yield render(b"".join(chunk))


def _word_chunks(rows: list, n: int, sep: str, end: str) -> Iterator[str]:
    # The rows over 1..n as text, _CHUNK_LINES rows per chunk: each row's
    # values with sep between them and end after the last.  A wide row is
    # joined value by value; one-byte rows are rendered with value v named
    # v + sep, and v + end as the last of its row.
    values = range(1, n + 1)
    if rows and n < 1 << 8:
        render = _byte_renderer({v: f"{v}{sep}" for v in values}, {v: f"{v}{end}" for v in values}, n)
    for start in range(0, len(rows), _CHUNK_LINES):
        chunk = rows[start : start + _CHUNK_LINES]
        if n < 1 << 8:
            yield render("".join(chunk).encode("latin-1"))
        else:
            yield "".join(sep.join(map(str, w)) + end for w in chunk)


def authorized_labellings(poset: DiamondPoset) -> Iterator[Permutation]:
    """All labellings of the poset with 1..n placing larger values higher.

    The peel of ``count_labellings`` run over rows of digits instead of
    counts: each down-set carries one buffer of partial labellings, n+1
    digits each, and labelling a node with a value appends the buffer to
    the target's, writing that value into each appended row with one
    strided slice assignment.  The rows are sorted, which is lexicographic order, and yielded as
    permutations in position order.  Counts stay small at the scales this
    project works at (bounded by a Catalan number), so the full set is
    materialized before sorting.
    """
    for word in _unpack(_labelling_rows([poset], poset.size), poset.size):
        yield Permutation._trusted(word)


def count_labellings(poset: DiamondPoset) -> int:
    """Number of authorized labellings, without materializing them.

    Dynamic programming over the down-sets of the poset: peel the largest
    remaining value off a maximal node, one value per layer, carrying the
    number of ways to reach each remaining set (a bitmask).  The layered
    block structure keeps the number of distinct down-sets small, far below
    2**n.  ``authorized_labellings`` runs the same peel over rows of digits.
    """
    return _peel(poset, 1, lambda total, ways, value, node: total + ways)


def poset_edges(poset: DiamondPoset) -> str:
    """Edge-list export, one cover per line as ``lower -> upper``."""
    return "\n".join(f"{lo} -> {up}" for lo, up in sorted(poset.covers))
