"""Shared oracles for the test suite.

Everything here re-derives results from first principles (breadth-first
search over raw step semantics, standardized-subsequence sets, direct
definition checks) so the library's faster algorithms are compared against
definitions rather than against themselves.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from permdl import (
    DiamondPoset,
    DuplicationStep,
    Permutation,
    apply_step,
    build_poset,
    compositions,
    count_labellings,
)


def standardized(word: tuple[int, ...]) -> tuple[int, ...]:
    ranks = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(ranks[v] for v in word)


def descent_total(word: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


@lru_cache(maxsize=None)
def subsequence_patterns(values: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Standardizations of every non-empty subsequence of ``values``."""
    out = set()
    n = len(values)
    for r in range(1, n + 1):
        for idx in itertools.combinations(range(n), r):
            out.add(standardized(tuple(values[i] for i in idx)))
    return frozenset(out)


def definition_minimal(p: Permutation, d: int) -> bool:
    """Minimality straight from the definition.

    d descents, and no proper subsequence standardizes to a permutation
    with d descents.  Exponential in n; keep n small.
    """
    values = p.values
    n = len(values)
    if descent_total(values) != d:
        return False
    for r in range(d + 1, n):
        for idx in itertools.combinations(range(n), r):
            if descent_total(tuple(values[i] for i in idx)) == d:
                return False
    return True


def digit_row(word: tuple[int, ...], n: int) -> str | tuple[int, ...]:
    """A word over 1..n as a row of a listing, with no end digit.

    Below n = 256 the row is a latin-1 str, one character per value; from
    n = 256 on, the tuple of its values.
    """
    if n < 1 << 8:
        return "".join(map(chr, word))
    return tuple(word)


def composition_count(d: int, n: int) -> int:
    """Size-n minimal permutations with d descents, one descent composition at a time.

    Sums the down-set count of each composition's shape poset, an argument
    independent of the left-to-right rank counter behind ``count_basis``.
    Exponential in d; keep d small.
    """
    return sum(count_labellings(build_poset(c)) for c in compositions(d, n))


# States of one block in ``block_count``: empty; one value, open; one value
# that is its max2; two or more values, open ("looping": the one state a
# value can keep); two or more values with only the max to come; closed.
EMPTY, ONE, ONE_MAX2, MANY, MANY_MAX2, CLOSED = range(6)
# The moves of a block that is handed a value, each with the values its
# left neighbour must hold; and the values a block in each state holds, at
# least.
BLOCK_MOVES = {
    EMPTY: [(ONE, 0), (ONE_MAX2, 1)],
    ONE: [(MANY, 0), (MANY_MAX2, 1)],
    ONE_MAX2: [(CLOSED, 2)],
    MANY: [(MANY, 0), (MANY_MAX2, 1)],
    MANY_MAX2: [(CLOSED, 2)],
    CLOSED: [],
}
HELD = {EMPTY: 0, ONE: 1, ONE_MAX2: 1, MANY: 2, MANY_MAX2: 2, CLOSED: 2}


def block_steps(j: int) -> list[tuple[int, list[list[int]]]]:
    """The moves of j blocks whose states are packed into one int s.

    Each block is one octal digit of s: block t is digit t + 1, and digit 0
    is a closed block left of the first, which may therefore always move.
    So j empty blocks are the int CLOSED.  Entry t is (3t, table), and
    table[s >> 3t & 0o77], keyed by the digits of block t and its left
    neighbour, lists what block t's moves add to s.  A value kept by a
    looping block leaves s as it is; such moves are not listed, and s has
    one per octal digit MANY (``looping``).
    """
    steps = []
    for t in range(j):
        table: list[list[int]] = [[] for _ in range(64)]
        for state, moves in BLOCK_MOVES.items():
            for left, held in HELD.items():
                table[state << 3 | left] = [
                    (to - state) << 3 * t + 3 for to, needs in moves if to != state and held >= needs
                ]
        steps.append((3 * t, table))
    return steps


def looping(s: int) -> int:
    """The looping blocks of a packed state, the values that keep it as it is."""
    return f"{s:o}".count(str(MANY))


def block_count(d: int, n: int) -> int:
    """Size-n minimal permutations with d descents, as ordered set partitions.

    A member is j = n - d decreasing blocks of at least two values each;
    each pair of neighbours B, C satisfies min2(B) < max(C) and
    min(B) < max2(C), with min2 the second smallest and max2 the second
    largest value.  The values 1..n are handed out smallest first, each to
    one block: a value becomes a block's max2 only once its left neighbour
    holds a value, and its max only once the left neighbour holds two.
    Independent of both the rank scan and the composition posets, and
    exponential in j; keep j small.
    """
    j = n - d
    if j < 1 or n > 2 * d:
        return 0
    steps = block_steps(j)
    ways = {CLOSED: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for s, count in ways.items():
            if loops := looping(s):
                nxt[s] = nxt.get(s, 0) + loops * count
            for shift, table in steps:
                for step in table[s >> shift & 0o77]:
                    nxt[s + step] = nxt.get(s + step, 0) + count
        ways = nxt
    return ways.get(int(str(CLOSED) * (j + 1), 8), 0)


def guessed_2d_minus_3(d: int) -> tuple[int, int]:
    """The guessed size-(2d-3) count as (quotient, remainder) of its division.

    Cat(d-1) (27(9d^2 + 19d + 22) 4^d + 64(d-8)(d+1) 6^d) / (13824 (d+1)),
    written out apart from ``count_basis``; the remainder is 0 when the
    form divides exactly.
    """
    catalan = comb(2 * d - 2, d - 1) // d
    scaled = catalan * (27 * (9 * d**2 + 19 * d + 22) * 4**d + 64 * (d - 8) * (d + 1) * 6**d)
    return divmod(scaled, 13824 * (d + 1))


def diamond_split_by_posets(d: int) -> tuple[int, int]:
    """The size-(d+2) slice split by ascent shape, (2 1 4 3, 3 1 4 2).

    Each composition of the slice has one ascent, at i.  Its members of
    type 2 1 4 3 are the down-set count of the shape poset plus the cover
    (i-1, i+2): the value before the ascent lies below the value after it.
    Independent of the block argument behind ``count_by_diamond_type``.
    """
    n1 = total = 0
    for c in compositions(d, d + 2):
        (i,) = c.ascent_positions()
        poset = build_poset(c)
        n1 += count_labellings(DiamondPoset(poset.size, poset.covers | {(i - 1, i + 2)}))
        total += count_labellings(poset)
    return n1, total - n1


def list_step(word: list[int], kept_first) -> list[int]:
    """One duplication-loss step on a plain list, straight from its definition.

    Both copies are laid out in tandem; every value in ``kept_first`` loses
    its second copy and every other value its first, so the kept values come
    first and the rest follow, each group in the old order.
    """
    tandem = [(v, 0) for v in word] + [(v, 1) for v in word]
    return [v for v, copy in tandem if copy == (0 if v in kept_first else 1)]


def halving_by_rescan(word) -> list[frozenset[int]]:
    """Kept sets of the run-halving derivation of ``word``, first step first.

    Works backward on plain lists and rescans every word it builds: split
    the word at its descents into runs R1..Rk, keep the values of R1..Rm,
    m = ceil(k/2), and replace the word by the sorted unions Ri | R(i+m),
    laid end to end, until one run is left.
    """
    word = list(word)
    kept_sets = []
    while True:
        runs = [[word[0]]]
        for a, b in zip(word, word[1:]):
            if a > b:
                runs.append([])
            runs[-1].append(b)
        k = len(runs)
        if k == 1:
            return kept_sets[::-1]
        m = (k + 1) // 2
        kept_sets.append(frozenset(v for run in runs[:m] for v in run))
        word = []
        for i in range(m):
            word += sorted(runs[i] + (runs[i + m] if i + m < k else []))


def replay_rendered_scenario(lines: list[str], n: int) -> list[int]:
    """Check the step lines of a plain CLI scenario, then return where they end.

    ``lines`` are "step i: keep K | A -> B" for each step and a last
    "end: E".  Each step is replayed from the identity of size n with
    ``list_step``; every printed state A and B must equal the replayed one,
    and E the final state.
    """
    current = list(range(1, n + 1))
    for i, line in enumerate(lines[:-1], start=1):
        prefix = f"step {i}: keep "
        assert line.startswith(prefix), line[:80]
        head, _, states = line[len(prefix):].partition(" | ")
        before, _, after = states.partition(" -> ")
        assert before == " ".join(map(str, current)), f"step {i} does not start where the last ended"
        current = list_step(current, set() if head == "-" else set(map(int, head.split())))
        assert after == " ".join(map(str, current)), f"step {i} does not replay"
    assert lines[-1] == "end: " + " ".join(map(str, current))
    return current


@lru_cache(maxsize=None)
def all_steps(n: int) -> tuple[DuplicationStep, ...]:
    return tuple(
        DuplicationStep(frozenset(c))
        for r in range(n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    )


@lru_cache(maxsize=None)
def bfs_distances(n: int) -> dict[tuple[int, ...], int]:
    """Fewest steps from the identity to each permutation of size n.

    Plain breadth-first search trying all 2**n kept-first subsets at every
    state; the ground truth for every step-count claim.
    """
    steps = all_steps(n)
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            p = Permutation(t)
            for s in steps:
                q = apply_step(p, s).values
                if q not in dist:
                    dist[q] = dist[t] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def dyck_words(d: int) -> list[str]:
    """All balanced U/D words of length 2d never dipping below the axis."""
    out: list[str] = []

    def build(word: list[str], ups: int, downs: int) -> None:
        if len(word) == 2 * d:
            out.append("".join(word))
            return
        if ups < d:
            word.append("U")
            build(word, ups + 1, downs)
            word.pop()
        if downs < ups:
            word.append("D")
            build(word, ups, downs + 1)
            word.pop()

    build([], 0, 0)
    return out


def rule_label_multisets(depth: int) -> list[list[int]]:
    """Label multisets per level predicted by the succession rule alone.

    Axiom label 2; a node labelled k has children labelled 2, 3, .., k+1.
    Works purely on labels, never touching permutations.
    """
    levels = [[2]]
    for _ in range(depth - 1):
        levels.append(sorted(kid for k in levels[-1] for kid in range(2, k + 2)))
    return levels
