"""Pattern involvement, occurrence search, and avoidance of pattern bases.

A pattern pi occurs in a host sigma when some subsequence of sigma, read
left to right, has the same relative order as pi.  Occurrences are reported
as one-based index tuples into the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .perm import Permutation, parse_permutation, remove_element

__all__ = [
    "Occurrence",
    "PatternBasis",
    "avoids_basis",
    "involves",
    "load_basis",
    "occurrences",
    "parse_basis",
]


@dataclass(frozen=True)
class Occurrence:
    """Strictly increasing one-based host positions carrying one pattern copy."""

    indices: tuple[int, ...]


def _occurrence_indices(pattern: tuple[int, ...], host: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # Backtracking over host indices in increasing order, so occurrences come
    # out in lexicographic index order.  A candidate extends a partial match
    # when its value compares to every chosen value the way the pattern says.
    k, n = len(pattern), len(host)
    if k > n:
        return
    chosen: list[int] = []

    def extend(slot: int, start: int) -> Iterator[tuple[int, ...]]:
        if slot == k:
            yield tuple(i + 1 for i in chosen)
            return
        for i in range(start, n - (k - slot) + 1):
            v = host[i]
            if all(
                (v < host[j]) == (pattern[slot] < pattern[t])
                for t, j in enumerate(chosen)
            ):
                chosen.append(i)
                yield from extend(slot + 1, i + 1)
                chosen.pop()

    yield from extend(0, 0)


def involves(pattern: Permutation, host: Permutation) -> bool:
    """True when ``pattern`` occurs in ``host`` as an order-isomorphic subsequence.

    >>> involves(parse_permutation("1 3 4 2"), parse_permutation("1 4 2 5 6 3"))
    True
    >>> involves(parse_permutation("3 2 1"), parse_permutation("1 4 2 5 6 3"))
    False
    """
    return next(_occurrence_indices(pattern.values, host.values), None) is not None


def occurrences(
    pattern: Permutation, host: Permutation, limit: int | None = None
) -> list[Occurrence]:
    """All occurrences of ``pattern`` in ``host`` in lexicographic index order.

    The count can grow exponentially with the host size, so callers that only
    probe for existence should pass ``limit`` (truncates after that many).
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    return list(itertools.islice(map(Occurrence, _occurrence_indices(pattern.values, host.values)), limit))


# The antichain walk may make this many single deletions per
# smaller-into-larger pair of members before the pairwise search, one
# ``involves`` per pair, takes over as the cheaper check.
_DELETIONS_PER_PAIR = 1


def _deletions_below(patterns: frozenset[Permutation]) -> set[Permutation] | None:
    # Every pattern reached by deleting entries of a member, at the sizes
    # from one below the largest member down to one above the smallest;
    # None once that needs more than the deletions the pairs allow.
    by_size: dict[int, list[Permutation]] = {}
    for p in patterns:
        by_size.setdefault(p.n, []).append(p)
    budget = larger = 0
    for n in sorted(by_size, reverse=True):
        budget += _DELETIONS_PER_PAIR * len(by_size[n]) * larger
        larger += len(by_size[n])
    below: set[Permutation] = set()
    level: set[Permutation] = set()
    for n in range(max(by_size, default=0), min(by_size, default=0), -1):
        sources = (*level, *by_size.get(n, ()))
        budget -= len(sources) * n
        if budget < 0:
            return None
        level = {remove_element(q, i) for q in sources for i in range(1, n + 1)}
        below |= level
    return below


@dataclass(frozen=True)
class PatternBasis:
    """A finite antichain of patterns: none may occur inside another.

    A member a occurs in a larger member b exactly when deleting entries of
    b one at a time reaches a.  So the check walks the sizes down once, from
    the largest member size to one above the smallest: each level is the set
    of single deletions (``remove_element``) of the members of that size
    and of the level above, and every level joins one set ``below``.  The
    patterns form an antichain exactly when no member lies in ``below``.
    The walk makes one deletion per entry of each distinct pattern met on
    the way down and no occurrence search: for the 131 members of B_4,
    2,586 deletions and a few milliseconds, against 4,442 ``involves``
    searches for a check pair by pair.

    The walk's cost grows with the gap between member sizes, not with the
    number of pairs: a member of size m has up to C(m, k) distinct patterns
    of size k, so ``1 2`` beside one member of size 30 would meet about
    2**30.  The walk therefore stops once it would make more deletions than
    there are smaller-into-larger pairs, and the check falls back to one
    ``involves`` search per pair.  A failed check, by either route, names
    the first offending pair in (size, values) order.
    """

    patterns: frozenset[Permutation]

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", frozenset(self.patterns))
        below = _deletions_below(self.patterns)
        if below is not None and below.isdisjoint(self.patterns):
            return
        # Only members the walk reached (all, when it stopped early) are
        # searched for, each in the larger members, smallest first.
        members = sorted(self.patterns, key=lambda p: (p.n, p.values))
        for a in members:
            if below is None or a in below:
                b = next((p for p in members if p.n > a.n and involves(a, p)), None)
                if b is not None:
                    raise ValueError(f"not an antichain: {a} occurs in {b}")


def avoids_basis(host: Permutation, basis: PatternBasis) -> bool:
    """True when no basis pattern occurs in ``host``."""
    return not any(involves(q, host) for q in basis.patterns)


def parse_basis(text: str) -> PatternBasis:
    """Parse a basis file: one permutation per line, '#' comments, blanks ignored."""
    patterns = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            patterns.append(parse_permutation(line))
    if not patterns:
        raise ValueError("basis file contains no patterns")
    return PatternBasis(frozenset(patterns))


def load_basis(path: str) -> PatternBasis:
    with open(path, encoding="utf-8") as handle:
        return parse_basis(handle.read())
