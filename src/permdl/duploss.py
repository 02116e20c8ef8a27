"""Whole-genome duplication-loss steps on permutations.

One evolution step duplicates the whole permutation in tandem and loses one
copy of every element.  The surviving arrangement is fully described by the
set of values whose first copy is kept: the result is the subsequence of
kept values, in the old order, followed by the subsequence of the remaining
values, in the old order.

A step at most doubles the number of maximal increasing runs, and the run
structure is the whole story: building a permutation from the identity takes
exactly ceil(log2(run count)) steps, so a budget of p steps reaches exactly
the permutations with at most 2**p - 1 descents.  ``min_steps`` computes the
cost, ``synthesize_scenario`` exhibits a shortest witness, and
``reachable_within`` answers the budget question without constructing
anything.

Steps run as C-level passes over the word: ``apply_step`` splits it with
``itertools.compress`` and ``filterfalse`` on membership in the kept set,
so hosts of 10^5 values cost no per-value Python loop.  The synthesis reads
the target's runs once and then merges those sorted blocks of values round
by round: it never rescans an intermediate word, each intermediate state
is just its round's blocks, which are its runs, laid end to end, and a step
keeps the first half (rounded up) of the runs of the state it leads to.
``replay`` and every other route that is given steps rather than a target
fold ``apply_step`` over them, and that replay is the oracle the
synthesis's states are tested against.

Randomized scenarios use an explicit splitmix64 generator (documented on
``SplitMix64``) rather than the interpreter's RNG so that seeded runs are
reproducible bit for bit anywhere.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .perm import Permutation, descent_count, identity, maximal_runs

__all__ = [
    "DuplicationStep",
    "Scenario",
    "SplitMix64",
    "apply_step",
    "min_steps",
    "random_evolution",
    "reachable_within",
    "replay",
    "scenario_from_json",
    "scenario_to_json",
    "synthesize_scenario",
]


@dataclass(frozen=True)
class DuplicationStep:
    """One duplication-loss event: the values whose first copy survives."""

    kept_first: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept_first", frozenset(self.kept_first))


def apply_step(p: Permutation, step: DuplicationStep) -> Permutation:
    """Apply one duplication-loss step.

    >>> step = DuplicationStep(frozenset({1, 2, 4, 5}))
    >>> apply_step(Permutation((1, 2, 3, 4, 5, 6, 7)), step).values
    (1, 2, 4, 5, 3, 6, 7)
    """
    first = step.kept_first
    kept = tuple(itertools.compress(p.values, map(first.__contains__, p.values)))
    # The values of p are distinct, so each value of ``first`` was kept at
    # most once: a shortfall means exactly that some value is foreign.
    if len(kept) != len(first):
        extra = first - set(p.values)
        raise ValueError(f"kept values not in the permutation: {sorted(extra)}")
    lost = tuple(itertools.filterfalse(first.__contains__, p.values))
    return Permutation._trusted(kept + lost)


def min_steps(p: Permutation) -> int:
    """Exact number of steps needed to produce p from the identity.

    >>> min_steps(Permutation((6, 9, 8, 4, 1, 3, 7, 2, 5)))
    3
    >>> min_steps(Permutation((1, 2, 3)))
    0
    """
    return descent_count(p.values).bit_length()  # ceil(log2(descents + 1)), 0 for the identity


def reachable_within(p: Permutation, budget: int) -> bool:
    """True when p can be produced from the identity in at most ``budget`` steps."""
    if budget < 0:
        raise ValueError("budget must be at least 0")
    return min_steps(p) <= budget


@dataclass(frozen=True)
class Scenario:
    """A derivation: steps that replay from ``start`` (the identity) to ``end``."""

    start: Permutation
    steps: tuple[DuplicationStep, ...]
    end: Permutation


def replay(scenario: Scenario) -> Permutation:
    """Run the steps from ``start``; equals ``end`` for any valid scenario."""
    return functools.reduce(apply_step, scenario.steps, scenario.start)


def synthesize_scenario(target: Permutation) -> Scenario:
    """A shortest derivation of ``target`` from the identity.

    Works backward: a permutation with runs R1..Rk is the image of the
    permutation obtained by sorting each union Ri | R(i+m) into one block,
    m = ceil(k/2), under the step keeping the values of R1..Rm first.
    Halving the run count each time lands on the identity after exactly
    ceil(log2(k)) steps.

    The blocks are exactly the runs of the earlier permutation: sorted
    block i ends at its maximum, which is at least last(Ri) > first(R(i+1)),
    itself at least the minimum that starts block i+1, so that word descends
    at every block boundary and never inside a block.  The next round can
    therefore merge the blocks themselves, and the runs are read once, from
    ``target``.  Each merge is one sort of two sorted runs, which is linear,
    and the earlier permutation is its blocks concatenated, so every state
    of the derivation comes out of the same loop (see ``_synthesis``); each
    step keeps the first ceil(k/2) runs of the k-run state it leads to.
    """
    kept = (itertools.chain.from_iterable(runs[: (len(runs) + 1) // 2]) for runs in _synthesis(target)[1:])
    return Scenario(identity(target.n), tuple(DuplicationStep(frozenset(k)) for k in kept), target)


def _synthesis(target: Permutation) -> list[Sequence[Sequence[int]]]:
    # The states of ``synthesize_scenario``'s derivation, the identity first
    # and the target last.  Each state is given as its runs, the sorted
    # blocks of one round: laid end to end they are the word a replay of the
    # steps passes through, and holding them spares a copy of n values per
    # step.  The step into a state of k runs keeps the values of its first
    # ceil(k/2) runs, so the steps are read off the states.
    blocks = maximal_runs(target).runs
    states = [blocks]
    while len(blocks) > 1:
        m = (len(blocks) + 1) // 2
        pairs = itertools.zip_longest(blocks[:m], blocks[m:], fillvalue=())
        blocks = [sorted(itertools.chain(a, b)) for a, b in pairs]
        states.append(blocks)
    states.reverse()
    return states


class SplitMix64:
    """Deterministic 64-bit generator for reproducible random scenarios.

    The state advances by the 64-bit odd constant 0x9E3779B97F4A7C15; each
    output mixes the new state with two xorshift-multiply rounds (constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) and a final 31-bit xorshift.
    The stream depends only on ``seed`` reduced mod 2**64, never on the
    platform or interpreter, so golden outputs are portable.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def coin(self) -> bool:
        return bool(self.next_word() & 1)


def random_evolution(n: int, steps: int, seed: int) -> Scenario:
    """Run ``steps`` random duplication-loss steps from the identity of size n.

    Each step keeps each value's first copy independently with probability
    one half.  Draw order is fixed: one splitmix64 word per value 1..n, per
    step, in that nesting, taking the word's low bit.  Identical arguments
    therefore produce identical scenarios on any platform.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if steps < 0:
        raise ValueError("steps must be at least 0")
    rng = SplitMix64(seed)
    values = range(1, n + 1)
    taken = tuple(DuplicationStep(frozenset(v for v in values if rng.coin())) for _ in range(steps))
    start = identity(n)
    return Scenario(start, taken, functools.reduce(apply_step, taken, start))


def scenario_to_json(scenario: Scenario) -> dict:
    """Wire format: ``{"n": .., "steps": [[kept values].., ..], "end": [..]}``."""
    return {
        "n": scenario.start.n,
        "steps": [sorted(step.kept_first) for step in scenario.steps],
        "end": list(scenario.end.values),
    }


def scenario_from_json(obj: dict) -> Scenario:
    """Parse and validate the wire format, converting nothing; replaying must reproduce ``end``."""
    try:
        n, steps, end = obj["n"], obj["steps"], obj["end"]
        if not all(type(v) is list for v in itertools.chain((steps, end), steps)):
            raise TypeError("steps, each kept set and end must be lists")
        if not all(type(v) is int for v in itertools.chain((n,), end, *steps)):
            raise TypeError("n and every value must be integers")
        end = Permutation(tuple(end))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scenario object: {exc}") from None
    if any(len(set(kept)) != len(kept) for kept in steps):
        raise ValueError("malformed scenario object: a kept set repeats a value")
    if end.n != n:
        raise ValueError(f"end permutation has size {end.n}, expected {n}")
    scenario = Scenario(identity(n), tuple(DuplicationStep(frozenset(kept)) for kept in steps), end)
    if replay(scenario) != end:
        raise ValueError("steps do not replay to the stated end permutation")
    return scenario
