"""Bijections onto the extreme slices of the minimal permutations.

Size-2d slice (counted by the Catalan numbers).  A minimal permutation of
size 2d with d descents is an authorized labelling of the d-step ladder.
The convention used by everything here: permutation position 2i-1 carries
the i-th node of the upper line and position 2i the i-th node of the lower
line, both lines read bottom-up.  Numbering the steps of a balanced U/D
path 1..2d left to right, the up-step numbers fill the lower line and the
down-step numbers the upper line, which is a bijection with Dyck paths.
The same slice also grows as a generating tree: a node's label says how
many children it has, the root 2 1 has label 2, and a node with label k
produces children labelled 2, 3, .., k+1.

Size-(d+2) slice.  A member has d descents among its d+1 adjacent pairs,
so exactly one ascent: it is a decreasing first block followed by the rest
of 1..d+2 decreasing, and the first block alone decides it.  The members
split into two camps, each the image of a bijection from the non-interval
subsets of {1..d+1}: ``phi1`` takes the subset as the first block, so d+2
tops the ascent; ``phi2`` takes a first block that starts with d+2 or is
consecutive, in one of five shapes A-E.  Together they cover the slice
exactly once, and the inverses read the subset back off the two blocks.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

from .minimal import is_minimal
from .perm import Permutation

__all__ = [
    "DyckPath",
    "EcoNode",
    "NonIntervalSubset",
    "S2Classification",
    "classify_s2",
    "count_non_interval_subsets",
    "dyck_to_perm",
    "eco_children",
    "eco_root",
    "generating_tree",
    "non_interval_subsets",
    "perm_to_dyck",
    "phi1",
    "phi1_inverse",
    "phi2",
    "phi2_inverse",
]


# ---------------------------------------------------------------------------
# Dyck paths and the ladder labelling convention


@dataclass(frozen=True)
class DyckPath:
    """A balanced U/D word whose every prefix has at least as many U as D."""

    steps: str

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("empty path")
        height = 0
        for c in self.steps:
            if c == "U":
                height += 1
            elif c == "D":
                height -= 1
            else:
                raise ValueError(f"invalid step {c!r}, expected 'U' or 'D'")
            if height < 0:
                raise ValueError("path dips below the axis")
        if height != 0:
            raise ValueError("path does not return to the axis")


def dyck_to_perm(path: DyckPath) -> Permutation:
    """Ladder labelling read off a Dyck path.

    >>> str(dyck_to_perm(DyckPath("UUDUUDDDUD")))
    '3 1 6 2 7 4 8 5 10 9'
    """
    # The upper line (odd positions) takes the D steps, the lower line the U steps.
    word = [0] * len(path.steps)
    word[0::2] = [i for i, c in enumerate(path.steps, start=1) if c == "D"]
    word[1::2] = [i for i, c in enumerate(path.steps, start=1) if c == "U"]
    return Permutation._trusted(tuple(word))


def _check_ladder_member(p: Permutation) -> None:
    # The one input check of the size-2d slice: minimal with d = n/2 descents.
    if p.n % 2:
        raise ValueError("ladder members have even size")
    d = p.n // 2
    if not is_minimal(p, d).is_minimal:
        raise ValueError(f"{p} is not minimal with {d} descents")


def perm_to_dyck(p: Permutation) -> DyckPath:
    """Inverse of ``dyck_to_perm``; rejects anything but a size-2d minimal member.

    >>> perm_to_dyck(Permutation((3, 1, 6, 2, 7, 4, 8, 5, 10, 9))).steps
    'UUDUUDDDUD'
    """
    _check_ladder_member(p)
    lower = set(p.values[1::2])
    return DyckPath("".join("U" if j in lower else "D" for j in range(1, p.n + 1)))


# ---------------------------------------------------------------------------
# The generating tree of the size-2d slice


@dataclass(frozen=True)
class EcoNode:
    """A size-2d minimal permutation, tagged with its child count."""

    perm: Permutation

    def __post_init__(self) -> None:
        _check_ladder_member(self.perm)

    @classmethod
    def _trusted(cls, perm: Permutation) -> EcoNode:
        # For children the generating-tree rule built: the rule keeps
        # minimality, so the is_minimal check above is skipped.
        node = object.__new__(cls)
        object.__setattr__(node, "perm", perm)
        return node

    @property
    def label(self) -> int:
        # How far below 2d the last element sits; ranges over 2 .. d+1.
        return self.perm.n - self.perm.values[-1] + 1


def eco_root() -> EcoNode:
    return EcoNode(Permutation((2, 1)))


def eco_children(node: EcoNode) -> list[EcoNode]:
    """Grow one ladder step on the right, in all label-preserving ways.

    The new step carries 2d+2 on top and a value i at the new last position;
    values >= i in the parent shift up by one.  A node with label k has
    exactly k children, labelled 2, 3, .., k+1 in the order returned.
    """
    v = node.perm.values
    two_d = len(v)
    kids = []
    for i in range(two_d + 1, two_d + 1 - node.label, -1):
        # bump[x] is x shifted past the new value i.
        bump = [*range(i), *range(i + 1, two_d + 2)]
        word = (*map(bump.__getitem__, v), two_d + 2, i)
        kids.append(EcoNode._trusted(Permutation._trusted(word)))
    return kids


def generating_tree(depth: int) -> list[list[EcoNode]]:
    """Levels 1..depth of the tree; level t holds the size-2t slice.

    Nodes appear in parent order, children in label order, which makes the
    level listings deterministic.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = [[eco_root()]]
    for _ in range(depth - 1):
        levels.append([kid for node in levels[-1] for kid in eco_children(node)])
    return levels


# ---------------------------------------------------------------------------
# Non-interval subsets and the two size-(d+2) bijections


@dataclass(frozen=True)
class NonIntervalSubset:
    """A subset of {1..d+1} that is not a block of consecutive integers."""

    d: int
    elements: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", frozenset(self.elements))
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not self.elements:
            raise ValueError("subset must be non-empty")
        lo, hi = min(self.elements), max(self.elements)
        if lo < 1 or hi > self.d + 1:
            raise ValueError(f"elements must lie in 1..{self.d + 1}")
        if hi - lo + 1 == len(self.elements):
            raise ValueError(f"{sorted(self.elements)} is an interval")

    @property
    def complement(self) -> tuple[int, ...]:
        """The missing values of {1..d+1}, increasing; never empty."""
        return tuple(v for v in range(1, self.d + 2) if v not in self.elements)


def non_interval_subsets(d: int) -> Iterator[NonIntervalSubset]:
    """All non-interval subsets of {1..d+1}, by size then lexicographically.

    >>> [sorted(s.elements) for s in non_interval_subsets(3)]
    [[1, 3], [1, 4], [2, 4], [1, 2, 4], [1, 3, 4]]
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    universe = range(1, d + 2)
    for size in range(2, d + 2):
        for combo in itertools.combinations(universe, size):
            if combo[-1] - combo[0] + 1 > size:
                yield NonIntervalSubset(d, frozenset(combo))


def count_non_interval_subsets(d: int) -> int:
    """Closed form: all non-empty subsets minus the intervals of {1..d+1}."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return 2 ** (d + 1) - (d + 1) * (d + 2) // 2 - 1


def _two_blocks(first: Iterable[int], full: int) -> tuple[int, ...]:
    # The member whose first block holds the values of first: those values
    # decreasing, then the rest of 1..full decreasing.
    lead = set(first)
    rest = itertools.filterfalse(lead.__contains__, range(full, 0, -1))
    return (*sorted(lead, reverse=True), *rest)


def _blocks(p: Permutation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The one input check of the size-(d+2) inverses: p must be minimal with
    # d = n-2 descents, so its d+1 adjacent pairs hold exactly one ascent,
    # where p splits into its two decreasing blocks.
    d = p.n - 2
    if d < 1 or not is_minimal(p, d).is_minimal:
        raise ValueError(f"{p} is not a size-(d+2) minimal permutation")
    v = p.values
    ascents = map(operator.lt, v, itertools.islice(v, 1, None))
    a = next(itertools.compress(itertools.count(1), ascents))
    return v[:a], v[a:]


def phi1(s: NonIntervalSubset) -> Permutation:
    """First bijection: s decreasing, then d+2, then the complement decreasing.

    >>> str(phi1(NonIntervalSubset(7, frozenset({3, 4, 5, 8}))))
    '8 5 4 3 9 7 6 2 1'
    """
    return Permutation._trusted(_two_blocks(s.elements, s.d + 2))


def phi1_inverse(p: Permutation) -> NonIntervalSubset:
    """Recover the subset from a member with d+2 on top of its ascent."""
    first, second = _blocks(p)
    if second[0] != p.n:
        raise ValueError(f"{p} does not carry {p.n} on top of its ascent")
    return NonIntervalSubset(p.n - 2, frozenset(first))


@dataclass(frozen=True)
class S2Classification:
    """Which construction a second-camp member comes from, plus its ascent diamond.

    ``left``, ``bottom``, ``top``, ``right`` are the four values around the
    single ascent (two before, two after); they always satisfy left > bottom,
    bottom < top, top > right, left < top, bottom < right.
    """

    type_tag: str  # one of "A".."E"
    ascent_position: int  # one-based position of the ascent's first element
    left: int
    bottom: int
    top: int
    right: int


def _diamond(tag: str, v: tuple[int, ...], a: int) -> S2Classification:
    # The classification of the member v whose first block has length a.
    return S2Classification(tag, a, v[a - 2], v[a - 1], v[a], v[a + 1])


def _classified(p: Permutation) -> tuple[S2Classification, tuple[int, ...], tuple[int, ...]]:
    # A second-camp member's classification and its two blocks.  A
    # decreasing block is consecutive when its ends lie len - 1 apart.
    first, second = _blocks(p)
    full = p.n
    if first[0] == full:
        tag = "D" if second[0] - second[-1] == len(second) - 1 else "E"
    elif first[0] - first[-1] != len(first) - 1:
        # The largest value is not at the front, so it tops the ascent.
        raise ValueError(f"{p} belongs to the first camp, not the second")
    elif len(first) == 2:
        tag = "A"
    elif len(second) >= 3 and second[2] == full - 2:
        tag = "C"
    else:
        tag = "B"
    return _diamond(tag, p.values, len(first)), first, second


def classify_s2(p: Permutation) -> S2Classification:
    """Sort a second-camp member into one of the five construction shapes.

    Raises on first-camp members (those belong to ``phi1``) and on anything
    that is not a size-(d+2) minimal permutation.
    """
    return _classified(p)[0]


def phi2(s: NonIntervalSubset) -> tuple[Permutation, S2Classification]:
    """Second bijection, dispatching on how the complement straddles the subset.

    With w the complement and s sorted increasingly, the shape is decided by
    comparing w's two smallest values against s's two largest.  Each branch
    names the member's first block and its type; the rest of 1..d+2 follows
    decreasing.
    """
    d = s.d
    full = d + 2
    w = s.complement
    ss = sorted(s.elements)
    if len(w) == 1:
        # s is 1..d+1 less one value x; the first block is x, x-1.
        first, tag = (w[0], w[0] - 1), "A"
    else:
        w1, w2 = w[0], w[1]
        sn, sn1 = ss[-1], ss[-2]
        size = len(ss)
        if w1 < sn1 and w2 < sn:
            # Both small complement values nest inside s, which comes last.
            first, tag = (full, *w), "E"
        elif sn1 < w1 and w2 < sn:
            # s is a prefix 1..size-1 plus one high straggler sn; the size
            # values ending at sn come last.
            first, tag = (full, *range(1, sn - size + 1), *range(sn + 1, full)), "D"
        elif w1 < sn1:
            # s is 1..size+1 with one low hole at w1.
            first, tag = range(w1 - 1, d - size + w1 + 1), "C"
        else:
            # s is a prefix 1..size-1 plus the straggler size+1.
            first, tag = range(size - 1, d + 1), "B"
    word = _two_blocks(first, full)
    return Permutation._trusted(word), _diamond(tag, word, len(first))


def _phi2_inverse(p: Permutation) -> tuple[NonIntervalSubset, S2Classification]:
    # The subset and the classification of a second-camp member, read off
    # its two blocks after one input check.
    cls, first, second = _classified(p)
    d, size = p.n - 2, len(second)
    if cls.type_tag == "E":
        elements = frozenset(second)
    elif cls.type_tag == "D":
        elements = frozenset((*range(1, size), second[0]))
    else:
        # 1..size+1 with one hole.
        hole = {"A": first[0], "B": size, "C": size - d + first[0]}[cls.type_tag]
        elements = frozenset(range(1, size + 2)) - {hole}
    return NonIntervalSubset(d, elements), cls


def phi2_inverse(p: Permutation) -> NonIntervalSubset:
    """Recover the subset from a second-camp member via its classification."""
    return _phi2_inverse(p)[0]
