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

Size-(d+2) slice.  Its members split into two camps by where the largest
value d+2 sits, and each camp is the image of a bijection from the
non-interval subsets of {1..d+1}: ``phi_top`` sends a subset to the member
carrying d+2 on top of its ascent, ``phi_front`` to the member starting
with d+2 or having a consecutive first block.  Together they cover the
slice exactly once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

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

    @property
    def d(self) -> int:
        return len(self.steps) // 2


def dyck_to_perm(path: DyckPath) -> Permutation:
    """Ladder labelling read off a Dyck path.

    >>> str(dyck_to_perm(DyckPath("UUDUUDDDUD")))
    '3 1 6 2 7 4 8 5 10 9'
    """
    ups = [i for i, c in enumerate(path.steps, start=1) if c == "U"]
    downs = [i for i, c in enumerate(path.steps, start=1) if c == "D"]
    word: list[int] = []
    for upper, lower in zip(downs, ups):
        word.append(upper)
        word.append(lower)
    return Permutation._trusted(tuple(word))


def perm_to_dyck(p: Permutation) -> DyckPath:
    """Inverse of ``dyck_to_perm``; rejects anything but a size-2d minimal member.

    >>> perm_to_dyck(Permutation((3, 1, 6, 2, 7, 4, 8, 5, 10, 9))).steps
    'UUDUUDDDUD'
    """
    if p.n % 2:
        raise ValueError("ladder members have even size")
    d = p.n // 2
    if not is_minimal(p, d).is_minimal:
        raise ValueError(f"{p} is not minimal with {d} descents")
    lower = set(p.values[1::2])
    return DyckPath("".join("U" if j in lower else "D" for j in range(1, p.n + 1)))


# ---------------------------------------------------------------------------
# The generating tree of the size-2d slice


@dataclass(frozen=True)
class EcoNode:
    """A size-2d minimal permutation, tagged with its child count."""

    perm: Permutation

    def __post_init__(self) -> None:
        n = self.perm.n
        if n % 2 or not is_minimal(self.perm, n // 2).is_minimal:
            raise ValueError(f"{self.perm} is not a size-2d minimal permutation")

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
        if any(not 1 <= v <= self.d + 1 for v in self.elements):
            raise ValueError(f"elements must lie in 1..{self.d + 1}")
        if max(self.elements) - min(self.elements) + 1 == len(self.elements):
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


def phi1(s: NonIntervalSubset) -> Permutation:
    """First bijection: s decreasing, then d+2, then the complement decreasing.

    >>> str(phi1(NonIntervalSubset(7, frozenset({3, 4, 5, 8}))))
    '8 5 4 3 9 7 6 2 1'
    """
    word = (
        tuple(sorted(s.elements, reverse=True))
        + (s.d + 2,)
        + tuple(sorted(s.complement, reverse=True))
    )
    return Permutation._trusted(word)


def _single_ascent(v: tuple[int, ...]) -> int:
    """Zero-based index a with v[a] < v[a+1]; size-(d+2) minimal members have one."""
    ascents = [i for i in range(len(v) - 1) if v[i] < v[i + 1]]
    if len(ascents) != 1:
        raise ValueError("expected exactly one ascent")
    return ascents[0]


def phi1_inverse(p: Permutation) -> NonIntervalSubset:
    """Recover the subset from a member with d+2 on top of its ascent."""
    d = p.n - 2
    if d < 1 or not is_minimal(p, d).is_minimal:
        raise ValueError(f"{p} is not a size-(d+2) minimal permutation")
    a = _single_ascent(p.values)
    if p.values[a + 1] != d + 2:
        raise ValueError(f"{p} does not carry {d + 2} on top of its ascent")
    return NonIntervalSubset(d, frozenset(p.values[: a + 1]))


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


def _is_consecutive(values: tuple[int, ...]) -> bool:
    return max(values) - min(values) + 1 == len(values)


def classify_s2(p: Permutation) -> S2Classification:
    """Sort a second-camp member into one of the five construction shapes.

    Raises on first-camp members (those belong to ``phi1``) and on anything
    that is not a size-(d+2) minimal permutation.
    """
    d = p.n - 2
    if d < 1 or not is_minimal(p, d).is_minimal:
        raise ValueError(f"{p} is not a size-(d+2) minimal permutation")
    v = p.values
    a = _single_ascent(v)
    first, second = v[: a + 1], v[a + 1 :]
    top_value = d + 2
    if v[0] == top_value:
        tag = "D" if _is_consecutive(second) else "E"
    else:
        # The largest value is not at the front, so it tops the ascent.
        if not _is_consecutive(first):
            raise ValueError(f"{p} belongs to the first camp, not the second")
        if len(first) == 2:
            tag = "A"
        elif len(second) >= 3 and second[2] == d:
            tag = "C"
        else:
            tag = "B"
    return S2Classification(
        tag,
        ascent_position=a + 1,
        left=v[a - 1],
        bottom=v[a],
        top=v[a + 1],
        right=v[a + 2],
    )


def phi2(s: NonIntervalSubset) -> tuple[Permutation, S2Classification]:
    """Second bijection, dispatching on how the complement straddles the subset.

    With w the complement and s sorted increasingly, the shape is decided by
    comparing w's two smallest values against s's two largest.  Each branch
    writes down the member directly; the classification of the result is
    returned along with it.
    """
    d = s.d
    full = d + 2
    w = sorted(s.complement)
    ss = sorted(s.elements)
    if len(w) == 1:
        x = w[0]
        rest = sorted(set(range(1, full + 1)) - {x, x - 1, full, full - 1}, reverse=True)
        word = (x, x - 1, full, full - 1, *rest)
    else:
        w1, w2 = w[0], w[1]
        sn, sn1 = ss[-1], ss[-2]
        size = len(ss)
        if w1 < sn1 and w2 < sn:
            # Both small complement values nest inside s: d+2 up front,
            # then the complement decreasing, then s decreasing.
            word = (full, *sorted(w, reverse=True), *sorted(ss, reverse=True))
        elif sn1 < w1 and w2 < sn:
            # s is a prefix 1..size-1 plus one high straggler sn.
            tail = tuple(range(sn, sn - size, -1))
            head = (full,) + tuple(sorted(set(range(1, full)) - set(tail), reverse=True))
            word = head + tail
        elif w1 < sn1 and sn < w2:
            # One low hole at w1; p counts the s-elements above it.
            p_count = size + 1 - w1
            tail = tuple(range(full, full - p_count - 1, -1)) + tuple(
                range(size - p_count - 1, 0, -1)
            )
            head = tuple(range(d + 1 - p_count, size - p_count - 1, -1))
            word = head + tail
        else:
            # s is a prefix 1..size-1 plus the straggler size+1.
            tail = (full, full - 1) + tuple(range(size - 2, 0, -1))
            head = tuple(range(d, size - 2, -1))
            word = head + tail
    perm = Permutation._trusted(word)
    return perm, classify_s2(perm)


def phi2_inverse(p: Permutation) -> NonIntervalSubset:
    """Recover the subset from a second-camp member via its classification."""
    cls = classify_s2(p)
    d = p.n - 2
    v = p.values
    a = cls.ascent_position - 1
    second = v[a + 1 :]
    if cls.type_tag == "A":
        return NonIntervalSubset(d, frozenset(range(1, d + 2)) - {v[0]})
    if cls.type_tag == "E":
        return NonIntervalSubset(d, frozenset(second))
    size = len(second)
    if cls.type_tag == "D":
        return NonIntervalSubset(d, frozenset(range(1, size)) | {second[0]})
    if cls.type_tag == "B":
        return NonIntervalSubset(d, frozenset(range(1, size)) | {size + 1})
    # Type C: the run of consecutive values down from d+2 has length p+1 and
    # cannot leak into the low tail (the tail starts strictly lower).
    p_count = 0
    while p_count + 1 < size and second[p_count + 1] == second[p_count] - 1:
        p_count += 1
    w1 = size + 1 - p_count
    return NonIntervalSubset(
        d, frozenset(range(1, w1)) | frozenset(range(w1 + 1, size + 2))
    )
