"""Permutations as one-based words, with descent and run statistics.

A permutation of size n is the word of its values: a tuple containing each
integer 1..n exactly once.  Positions are one-based everywhere in this
package, so "a descent at position i" relates the i-th and (i+1)-th values,
with 1 <= i <= n-1.  The size-0 permutation is deliberately rejected; every
genome has at least one marker.

All types are immutable values and all operations are pure functions, so
objects can be shared freely across threads or worker processes.

Hosts reach 10^5 values, so the scans over a word run as C-level passes
rather than per-value Python loops: descents are read off one
``map(operator.gt, ...)`` over adjacent pairs, and runs are slices between
the descent cuts.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DescentSet",
    "Permutation",
    "RunDecomposition",
    "all_permutations",
    "descent_count",
    "descents",
    "identity",
    "maximal_runs",
    "parse_permutation",
    "remove_element",
    "run_count",
    "standardize",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation over the values 1..n, n >= 1.

    >>> Permutation((2, 1, 4, 3)).n
    4
    >>> str(Permutation((6, 9, 8, 4, 1, 3, 7, 2, 5)))
    '6 9 8 4 1 3 7 2 5'
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        if n == 0:
            raise ValueError("a permutation must have size at least 1")
        seen = [False] * (n + 1)
        for v in values:
            if not 1 <= v <= n:
                raise ValueError(f"value {v} out of range 1..{n}")
            if seen[v]:
                raise ValueError(f"duplicate value {v}")
            seen[v] = True

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> Permutation:
        # For tuples the library itself built as permutations of 1..n: skips
        # the range and duplicate loop above.  Input from outside the package
        # goes through Permutation(...) or parse_permutation.
        p = object.__new__(cls)
        object.__setattr__(p, "values", values)
        return p

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(map(str, self.values))


@dataclass(frozen=True)
class DescentSet:
    """Positions i (one-based, 1 <= i <= n-1) whose value exceeds the next one."""

    positions: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class RunDecomposition:
    """The maximal increasing contiguous segments of a permutation, left to right."""

    runs: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.runs)


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace- or comma-separated one-based values.

    >>> parse_permutation("6 9 8 4 1 3 7 2 5").values
    (6, 9, 8, 4, 1, 3, 7, 2, 5)
    >>> parse_permutation("2,1").values
    (2, 1)
    """
    return _parse_spelled(text)[0]


def _parse_spelled(text: str) -> tuple[Permutation, list[str] | None]:
    # parse_permutation's answer, with its tokens when each already reads
    # str(value), else None.  Of the ASCII tokens int() reads as v >= 1, str(v)
    # alone is shortest (a sign, leading zero or underscore adds a character),
    # so ASCII tokens as long in all as the digits of 1..n are exactly those.
    tokens, values = _integers(text)
    if not values:
        raise ValueError("empty permutation input")
    p = Permutation(tuple(values))
    digits, n = "".join(tokens), len(values)
    exact = digits.isascii() and len(digits) == sum(n + 1 - 10**k for k in range(len(str(n))))
    return p, tokens if exact else None


def _integers(text: str) -> tuple[list[str], list[int]]:
    # Tokens and values of integers separated by commas and/or whitespace; callers refuse empty input.
    tokens = text.replace(",", " ").split()
    try:
        return tokens, list(map(int, tokens))
    except ValueError:
        return tokens, [_integer(tok) for tok in tokens]  # raises, naming the first bad token


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        digits = tok[1:] if tok[0] in "+-" else tok  # int() refuses decimals only past its digit limit
        what = f"value with {len(digits)} digits out of range" if digits.isdecimal() else f"not an integer: {tok!r}"
        raise ValueError(what) from None


def _descent_flags(word: Sequence[int]) -> Iterator[bool]:
    # word[i] > word[i + 1] for each adjacent pair, left to right.
    return map(operator.gt, word, itertools.islice(word, 1, None))


def _descent_cuts(word: Sequence[int]) -> Iterable[int]:
    # One-based descent positions: cutting the word there leaves its runs.
    return itertools.compress(itertools.count(1), _descent_flags(word))


def descent_count(word: Sequence[int]) -> int:
    """Number of adjacent out-of-order pairs in any sequence of distinct values."""
    return sum(_descent_flags(word))


def run_count(word: Sequence[int]) -> int:
    """Number of maximal increasing contiguous segments; always descents + 1."""
    return descent_count(word) + 1


def descents(p: Permutation) -> DescentSet:
    """Descent set of p, as one-based positions in increasing order.

    >>> descents(Permutation((6, 9, 8, 4, 1, 3, 7, 2, 5))).positions
    (2, 3, 4, 7)
    >>> descents(Permutation((1, 2, 3))).count
    0
    """
    return DescentSet(tuple(_descent_cuts(p.values)))


def maximal_runs(p: Permutation) -> RunDecomposition:
    """Split p into its maximal increasing substrings.

    >>> [list(r) for r in maximal_runs(Permutation((6, 9, 8, 4, 1, 3, 7, 2, 5))).runs]
    [[6, 9], [8], [4], [1, 3, 7], [2, 5]]
    """
    v = p.values
    cuts = [0, *_descent_cuts(v), len(v)]
    return RunDecomposition(tuple(v[a:b] for a, b in itertools.pairwise(cuts)))


def standardize(word: Sequence[int]) -> Permutation:
    """Renumber distinct integers to 1..k, preserving relative order.

    >>> standardize((1, 5, 6, 3)).values
    (1, 3, 4, 2)
    >>> standardize((42,)).values
    (1,)
    """
    word = tuple(word)
    if not word:
        raise ValueError("a permutation must have size at least 1")
    if len(set(word)) != len(word):
        dup = next(v for v in word if word.count(v) > 1)
        raise ValueError(f"duplicate value {dup}")
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    return Permutation._trusted(tuple(rank[v] for v in word))


def remove_element(p: Permutation, index: int) -> Permutation:
    """Delete the value at one-based ``index`` and renumber to 1..n-1.

    >>> remove_element(Permutation((3, 1, 4, 2)), 3).values
    (3, 1, 2)
    """
    if p.n == 1:
        raise ValueError("cannot remove from a permutation of size 1")
    if not 1 <= index <= p.n:
        raise ValueError(f"index {index} out of range 1..{p.n}")
    values = p.values
    v = values[index - 1]
    return Permutation._trusted(tuple([x - (x > v) for x in values[: index - 1] + values[index:]]))


def identity(n: int) -> Permutation:
    """The increasing permutation 1 2 .. n."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return Permutation._trusted(tuple(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of size n in lexicographic order.  For small n only."""
    if n < 1:
        raise ValueError("a permutation must have size at least 1")
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(word)
