"""The benchmark's own reference computations.

Output checks must not trust the code under test, so everything here is
written from the definitions in the paper and imports nothing from permdl:
descents and runs of a word, the local minimality rule, the removal witness,
the ladder labelling of a Dyck path, and the duplication-loss step.
"""

from __future__ import annotations

import itertools
import random
from math import comb


def catalan(d: int) -> int:
    return comb(2 * d, d) // (d + 1)


def closed_form_count(d: int, n: int) -> int | None:
    """Slice sizes known in closed form (sizes d+1, d+2 and 2d), else None."""
    if n == d + 1:
        return 1
    if n == 2 * d:
        return catalan(d)
    if n == d + 2:
        return 2 ** (d + 2) - (d + 1) * (d + 2) - 2
    return None


def descent_positions(word) -> list[int]:
    """One-based positions i with word[i] > word[i+1] (in one-based terms)."""
    return [i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]]


def descent_total(word) -> int:
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def increasing_runs(word) -> list[list[int]]:
    runs = [[word[0]]]
    for prev, v in zip(word, word[1:]):
        if v > prev:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def min_steps(word) -> int:
    """ceil(log2(run count)): steps needed to build the word from the identity."""
    return (len(increasing_runs(word)) - 1).bit_length()


def is_minimal_local(word, d: int) -> bool:
    """Exactly d descents, and every ascent sits inside a 2143 or 3142 window."""
    n = len(word)
    if descent_total(word) != d:
        return False
    for a in range(n - 1):
        if word[a] < word[a + 1]:
            if a == 0 or a + 2 >= n:
                return False
            x, y, z, t = word[a - 1], word[a], word[a + 1], word[a + 2]
            if not (x > y and z > t and x < z and y < t):
                return False
    return True


def is_minimal_by_removal(word, d: int) -> bool:
    """The definition: d descents, and every single deletion loses one."""
    if descent_total(word) != d:
        return False
    return all(descent_total(word[:i] + word[i + 1 :]) < d for i in range(len(word)))


def removal_keeps_descents(word, position: int, d: int) -> bool:
    """True when deleting one-based ``position`` leaves exactly d descents."""
    rest = list(word[: position - 1]) + list(word[position:])
    return descent_total(rest) == d


def brute_basis(d: int, n: int) -> list[tuple[int, ...]]:
    """All size-n minimal permutations with d descents, by the definition."""
    return [w for w in itertools.permutations(range(1, n + 1)) if is_minimal_by_removal(w, d)]


def random_dyck_word(half: int, rng: random.Random) -> str:
    """A Dyck word of length 2*half: rotate a random balanced word at its lowest point."""
    steps = ["U"] * half + ["D"] * half
    rng.shuffle(steps)
    height, low, cut = 0, 0, 0
    for i, s in enumerate(steps):
        height += 1 if s == "U" else -1
        if height < low:
            low, cut = height, i + 1
    return "".join(steps[cut:] + steps[:cut])


def dyck_member(path: str) -> list[int]:
    """Ladder labelling: odd positions take the down-step numbers, even ones the up-steps.

    The result is a size-2d minimal permutation with d descents.
    """
    ups = [i for i, c in enumerate(path, start=1) if c == "U"]
    downs = [i for i, c in enumerate(path, start=1) if c == "D"]
    word: list[int] = []
    for upper, lower in zip(downs, ups):
        word.append(upper)
        word.append(lower)
    return word


def apply_step(word, kept: set[int]) -> list[int]:
    """Tandem duplication, then loss: kept values in order, then the others in order."""
    return [v for v in word if v in kept] + [v for v in word if v not in kept]


def text(word) -> str:
    return " ".join(map(str, word))
