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
(``count_labellings``) or a list of partial labellings packed into
integers (``authorized_labellings`` and the slice listings), which one
integer add per word extends by a node.

This module owns that packed format: the digit width, the byte order, digit
0 as the line break of a rendered listing, and the text chunks a listing is
written in.  Callers get sorted words from ``_slice_words`` and text from
``_word_chunks``, which every listing format is written from; only the
library (``enumerate_basis``, ``authorized_labellings``) takes tuples from
``_unpack``.  Every word reaches bytes through
one join of ``int.to_bytes``.  Below n = 256, where digits are one byte,
text is made with no Python step per word or digit: one ``bytes.translate``
per character column of the value names, interleaved and stripped of
padding.  Wider digits, which only slices of a few members reach, keep a
join over the names of their digits.

Covers are stored as (lower, upper) pairs of positions: the value at
``lower`` must be smaller than the value at ``upper``.
"""

from __future__ import annotations

import graphlib
import itertools
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    # Array type code of the digits of packed words over the values 1..n:
    # one, two or four bytes each.
    return "B" if n < 1 << 8 else "H" if n < 1 << 16 else "I"


def _big_endian(digits: array) -> array:
    # digits swapped in place between machine order and the packed words' big-endian.
    if digits.itemsize > 1 and sys.byteorder == "little":
        digits.byteswap()
    return digits


def _peel(poset: DiamondPoset, seed, grow):
    # The down-set DP behind count_labellings and the listings: values n..1
    # go one per layer to a maximal node of the remaining down-set, keyed by
    # its bitmask.  The whole poset carries seed, and a move that labels
    # node with value carries grow(carried, value, node); what reaches one
    # down-set from several is summed (ints add, lists extend).
    offsets = _cover_offsets(poset)
    layer = {(1 << poset.size) - 1: seed}
    for value in range(poset.size, 0, -1):
        below = defaultdict(type(seed))
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
                below[mask ^ bit] += grow(carried, value, bit.bit_length())
        layer = below
    return layer[0]


def _packed_labellings(posets: Iterable[DiamondPoset], n: int) -> list[int]:
    # The labellings of several posets on n nodes, merged and sorted, as
    # packed words: position i is digit n+1-i in base 256**k, k the bytes
    # of a _digit_code(n) digit, and digit 0 stays 0.  Numeric order is
    # lexicographic order.  A layer of the peel holds one word per partial
    # labelling, each with its own completions, so it never outgrows the
    # final list.
    bits = 8 * array(_digit_code(n)).itemsize

    def grow(words: list[int], value: int, node: int) -> Iterator[int]:
        return map((value << bits * (n + 1 - node)).__add__, words)

    words: list[int] = []
    for poset in posets:
        words += _peel(poset, [0], grow)
    words.sort()
    return words


def _slice_words(d: int, n: int) -> list[int]:
    # The size-n slice of minimal permutations with d descents as sorted
    # packed words: the labellings of the shape posets of its compositions.
    # The size-(d+1) slice is the one word n..1, packed directly: its peel
    # does big-int work in n per layer, quadratic in all.
    if d >= 1 and n == d + 1:
        return [int.from_bytes(_big_endian(array(_digit_code(n), [*range(n, 0, -1), 0])), "big")]
    return _packed_labellings(map(build_poset, compositions(d, n)), n)


def _word_bytes(words: list[int], length: int) -> bytes:
    # The packed words as big-endian bytes, length bytes each, in one join.
    return b"".join(map(int.to_bytes, words, itertools.repeat(length), itertools.repeat("big")))


def _digits(words: list[int], n: int) -> array:
    # Every digit of the packed words over 1..n, most significant first:
    # each word gives its values in position order, then its digit 0.
    digits = array(_digit_code(n))
    digits.frombytes(_word_bytes(words, (n + 1) * digits.itemsize))
    return _big_endian(digits)


def _unpack(words: list[int], n: int) -> Iterator[tuple[int, ...]]:
    # The packed words over 1..n as tuples of values in position order.
    # Nothing is sized from n unless there are words to unpack.
    if not words:
        return iter(())
    digits = _digits(words, n)
    del digits[n :: n + 1]
    return zip(*[iter(digits)] * n)


# Words per text chunk of a rendered listing, so that a long one is never
# held as text all at once.
_CHUNK_LINES = 1 << 14


def _word_chunks(words: list[int], n: int) -> Iterator[str]:
    # The packed words over 1..n as text, one line each, _CHUNK_LINES words
    # per chunk.  Value v is named "v " and digit 0, the end of every word,
    # "\n", so "3 1 4 2 \n" needs only its " \n" turned into "\n".
    if not words:
        return
    names = ["\n", *(f"{v} " for v in range(1, n + 1))]
    if n >= 1 << 8:
        # Two- and four-byte digits, which only slices of a few members
        # reach: the names are joined digit by digit.
        for start in range(0, len(words), _CHUNK_LINES):
            digits = _digits(words[start : start + _CHUNK_LINES], n)
            yield "".join(map(names.__getitem__, digits)).replace(" \n", "\n")
        return
    # One-byte digits: character c of every name, NUL past its end, is one
    # bytes.translate of the digits, written into every width-th byte of
    # the text; deleting the NULs closes the gaps.
    width = len(names[-1])
    padded = [name.ljust(width, "\0") for name in names]
    tables = ["".join(column).encode("ascii").ljust(256, b"\0") for column in zip(*padded)]
    for start in range(0, len(words), _CHUNK_LINES):
        raw = _word_bytes(words[start : start + _CHUNK_LINES], n + 1)
        text = bytearray(len(raw) * width)
        for c, table in enumerate(tables):
            text[c::width] = raw.translate(table)
        yield text.translate(None, b"\0").replace(b" \n", b"\n").decode("ascii")


def authorized_labellings(poset: DiamondPoset) -> Iterator[Permutation]:
    """All labellings of the poset with 1..n placing larger values higher.

    The peel of ``count_labellings`` run over packed words instead of
    counts: each down-set carries a list of partial labellings, each an
    integer, and labelling a node with a value adds one shifted digit to
    every word in the list at once.  The words are sorted as integers,
    which is lexicographic order, and yielded as permutations in position
    order.  Counts stay small at the scales this project works at (bounded
    by a Catalan number), so the full set is materialized before sorting.
    """
    for word in _unpack(_packed_labellings([poset], poset.size), poset.size):
        yield Permutation._trusted(word)


def count_labellings(poset: DiamondPoset) -> int:
    """Number of authorized labellings, without materializing them.

    Dynamic programming over the down-sets of the poset: peel the largest
    remaining value off a maximal node, one value per layer, carrying the
    number of ways to reach each remaining set (a bitmask).  The layered
    block structure keeps the number of distinct down-sets small, far below
    2**n.  ``authorized_labellings`` runs the same peel over words.
    """
    return _peel(poset, 1, lambda ways, value, node: ways)


def poset_edges(poset: DiamondPoset) -> str:
    """Edge-list export, one cover per line as ``lower -> upper``."""
    return "\n".join(f"{lo} -> {up}" for lo, up in sorted(poset.covers))
