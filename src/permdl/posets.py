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
composition, which is what makes these posets worth enumerating.

Covers are stored as (lower, upper) pairs of positions: the value at
``lower`` must be smaller than the value at ``upper``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

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
        out = []
        pos = 0
        for b in self.run_lengths[:-1]:
            pos += b + 1
            out.append(pos)
        return tuple(out)


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
        for lo, up in self.covers:
            if not (1 <= lo <= self.size and 1 <= up <= self.size) or lo == up:
                raise ValueError(f"cover ({lo}, {up}) out of range")
        # Kahn's algorithm; a leftover node means the cover relation has a cycle.
        indegree = {x: 0 for x in range(1, self.size + 1)}
        above: dict[int, list[int]] = {x: [] for x in indegree}
        for lo, up in self.covers:
            indegree[up] += 1
            above[lo].append(up)
        ready = [x for x, deg in indegree.items() if deg == 0]
        seen = 0
        while ready:
            x = ready.pop()
            seen += 1
            for y in above[x]:
                indegree[y] -= 1
                if indegree[y] == 0:
                    ready.append(y)
        if seen != self.size:
            raise ValueError("cover relation contains a cycle")

    @classmethod
    def _trusted(cls, size: int, covers: frozenset[tuple[int, int]]) -> DiamondPoset:
        # For the covers build_poset made: each joins two positions in
        # 1..size, and every minimal permutation with that composition
        # labels them in order, so they have no cycle.  The range and Kahn
        # checks above are skipped.
        poset = object.__new__(cls)
        object.__setattr__(poset, "size", size)
        object.__setattr__(poset, "covers", covers)
        return poset


def build_poset(composition: DescentComposition) -> DiamondPoset:
    """Shape poset of the minimal permutations with the given composition."""
    covers: set[tuple[int, int]] = set()
    pos = 1
    blocks = composition.run_lengths
    for j, b in enumerate(blocks):
        for p in range(pos, pos + b):
            covers.add((p + 1, p))
        if j + 1 < len(blocks):
            i = pos + b  # the ascent position at the end of this block
            covers.add((i, i + 2))
            covers.add((i - 1, i + 1))
        pos += b + 1
    return DiamondPoset._trusted(composition.n, frozenset(covers))


def ladder(d: int) -> DiamondPoset:
    """Ladder with d steps: the poset of the size-2d minimal permutations.

    Odd positions 2i-1 form the upper line, even positions 2i the lower line;
    node 2i sits below node 2i-1 and both lines increase rightward.
    """
    if d < 1:
        raise ValueError("a ladder needs at least one step")
    return build_poset(DescentComposition((1,) * d))


def _upmasks(poset: DiamondPoset) -> list[int]:
    # upmask[x] has bit y-1 set for every node y covering node x.
    upmask = [0] * (poset.size + 1)
    for lo, hi in poset.covers:
        upmask[lo] |= 1 << (hi - 1)
    return upmask


def _labelling_words(poset: DiamondPoset) -> list[tuple[int, ...]]:
    # The down-set walk of count_labellings, recording words instead of
    # counting.  Every remaining set is a down-set and so has a maximal node:
    # no branch dead-ends, so every step of the walk leads to output words.
    # An explicit stack of (remaining down-set, node, value given to it)
    # keeps the depth off the interpreter's recursion limit.  Everything
    # popped below an entry labels nodes of its remaining down-set only, so
    # word holds the labels of the whole current path.  Slot 0 is the root's.
    n = poset.size
    upmask = _upmasks(poset)
    word = [0] * (n + 1)
    found: list[tuple[int, ...]] = []
    stack = [((1 << n) - 1, 0, n + 1)]
    while stack:
        mask, node, value = stack.pop()
        word[node] = value
        if not mask:
            found.append(tuple(word[1:]))
            continue
        value -= 1
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            node = bit.bit_length()
            if upmask[node] & mask == 0:
                stack.append((mask ^ bit, node, value))
    return found


def authorized_labellings(poset: DiamondPoset) -> Iterator[Permutation]:
    """All labellings of the poset with 1..n placing larger values higher.

    Values are assigned n down to 1; each value goes to a node all of whose
    upper covers are already labelled.  Results are yielded as permutations
    in position order, sorted lexicographically.  Counts stay small at the
    scales this project works at (bounded by a Catalan number), so the full
    set is materialized before sorting.
    """
    for word in sorted(_labelling_words(poset)):
        yield Permutation._trusted(word)


def count_labellings(poset: DiamondPoset) -> int:
    """Number of authorized labellings, without materializing them.

    Dynamic programming over the down-sets of the poset: peel the largest
    remaining value off a maximal node, one value per layer, carrying the
    number of ways to reach each remaining set (a bitmask).  The layered
    block structure keeps the number of distinct down-sets small, far below
    2**n.
    """
    upmask = _upmasks(poset)
    layer = {(1 << poset.size) - 1: 1}
    for _ in range(poset.size):
        below: dict[int, int] = {}
        for mask, ways in layer.items():
            m = mask
            while m:
                bit = m & -m
                m ^= bit
                if upmask[bit.bit_length()] & mask == 0:
                    rest = mask ^ bit
                    below[rest] = below.get(rest, 0) + ways
        layer = below
    return layer[0]


def poset_edges(poset: DiamondPoset) -> str:
    """Edge-list export, one cover per line as ``lower -> upper``."""
    return "\n".join(f"{lo} -> {up}" for lo, up in sorted(poset.covers))
