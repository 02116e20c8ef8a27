"""Pattern involvement, occurrence search, and avoidance of pattern bases.

A pattern pi occurs in a host sigma when some subsequence of sigma, read
left to right, has the same relative order as pi.  Occurrences are reported
as one-based index tuples into the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .perm import Permutation, parse_permutation

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


@dataclass(frozen=True)
class PatternBasis:
    """A finite antichain of patterns: none may occur inside another."""

    patterns: frozenset[Permutation]

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", frozenset(self.patterns))
        # Sorted by size, each pair puts the smaller pattern first, and
        # distinct permutations of one size never involve each other, so
        # only smaller-into-larger pairs are tried.
        members = sorted(self.patterns, key=lambda p: (p.n, p.values))
        for a, b in itertools.combinations(members, 2):
            if a.n < b.n and involves(a, b):
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
