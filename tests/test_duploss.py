import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdl import (
    DuplicationStep,
    Permutation,
    Scenario,
    SplitMix64,
    apply_step,
    descents,
    identity,
    maximal_runs,
    min_steps,
    parse_permutation,
    random_evolution,
    reachable_within,
    replay,
    scenario_from_json,
    scenario_to_json,
    synthesize_scenario,
)
from permdl.duploss import _synthesis

from helpers import all_steps, bfs_distances, halving_by_rescan, list_step

perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda v: Permutation(tuple(v)))


class TestApplyStep:
    def test_worked_example(self):
        start = identity(7)
        after = apply_step(start, DuplicationStep(frozenset({1, 2, 4, 5})))
        assert after.values == (1, 2, 4, 5, 3, 6, 7)

    def test_keep_all_or_none_is_identity_map(self):
        p = parse_permutation("3 1 4 2")
        assert apply_step(p, DuplicationStep(frozenset())).values == p.values
        assert apply_step(p, DuplicationStep(frozenset({1, 2, 3, 4}))).values == p.values

    def test_foreign_values_rejected(self):
        with pytest.raises(ValueError):
            apply_step(identity(3), DuplicationStep(frozenset({4})))

    @pytest.mark.parametrize(
        "kept, foreign",
        [({6}, [6]), ({1, 9, 3, 0}, [0, 9]), ({2, -5, 12, 5, 7}, [-5, 7, 12]), ({1, 2, 3, 4, 5, 6}, [6])],
    )
    def test_only_the_foreign_values_are_listed_sorted(self, kept, foreign):
        with pytest.raises(ValueError) as got:
            apply_step(parse_permutation("3 1 5 2 4"), DuplicationStep(frozenset(kept)))
        assert str(got.value) == f"kept values not in the permutation: {foreign}"

    @given(perms, st.data())
    def test_matches_list_based_step(self, p, data):
        kept = frozenset(data.draw(st.sets(st.integers(1, p.n))))
        assert list(apply_step(p, DuplicationStep(kept)).values) == list_step(list(p.values), kept)

    @given(perms, st.data())
    def test_preserves_content(self, p, data):
        kept = frozenset(data.draw(st.sets(st.integers(1, p.n))))
        after = apply_step(p, DuplicationStep(kept))
        assert sorted(after.values) == sorted(p.values)

    @given(perms, st.data())
    def test_runs_at_most_double(self, p, data):
        kept = frozenset(data.draw(st.sets(st.integers(1, p.n))))
        after = apply_step(p, DuplicationStep(kept))
        assert maximal_runs(after).count <= 2 * maximal_runs(p).count

    def test_runs_at_most_double_exhaustive_small(self):
        for n in range(1, 6):
            steps = all_steps(n)
            for t in itertools.permutations(range(1, n + 1)):
                p = Permutation(t)
                bound = 2 * maximal_runs(p).count
                for s in steps:
                    assert maximal_runs(apply_step(p, s)).count <= bound


class TestMinSteps:
    def test_examples(self):
        assert min_steps(identity(9)) == 0
        assert min_steps(parse_permutation("6 9 8 4 1 3 7 2 5")) == 3
        assert min_steps(Permutation((2, 1))) == 1

    def test_formula_from_runs(self):
        for n in range(1, 7):
            for t in itertools.permutations(range(1, n + 1)):
                p = Permutation(t)
                runs = maximal_runs(p).count
                assert min_steps(p) == (math.ceil(math.log2(runs)) if runs > 1 else 0)

    def test_matches_breadth_first_search(self):
        for n in range(1, 7):
            for t, dist in bfs_distances(n).items():
                assert min_steps(Permutation(t)) == dist


class TestReachability:
    def test_threshold(self):
        p = parse_permutation("6 9 8 4 1 3 7 2 5")  # 4 descents
        assert not reachable_within(p, 2)
        assert reachable_within(p, 3)
        assert reachable_within(identity(5), 0)
        with pytest.raises(ValueError):
            reachable_within(p, -1)

    def test_equals_bfs_distance_bound(self):
        for n in range(1, 6):
            for t, dist in bfs_distances(n).items():
                p = Permutation(t)
                for budget in range(4):
                    assert reachable_within(p, budget) == (dist <= budget)

    @given(perms)
    def test_agrees_with_min_steps(self, p):
        for budget in range(5):
            assert reachable_within(p, budget) == (min_steps(p) <= budget)


class TestSynthesize:
    @staticmethod
    def check_against_rescan(p):
        # Same kept sets as the derivation that rebuilds and rescans every
        # word, read off the states as the first half, rounded up, of the
        # runs of the state each step leads to and equal to the scenario's;
        # each replayed state has half its successor's runs, rounded up, and
        # the states the synthesis reads off its sorted blocks are exactly
        # the runs of the replayed ones, so the blocks laid end to end are
        # the replayed words.
        states = _synthesis(p)
        scenario = synthesize_scenario(p)
        kept_sets = halving_by_rescan(p.values)
        derived = [frozenset(itertools.chain.from_iterable(runs[: -(-len(runs) // 2)])) for runs in states[1:]]
        assert derived == kept_sets
        assert [step.kept_first for step in scenario.steps] == derived
        assert scenario.start == identity(p.n) and scenario.end == p
        replayed = list(itertools.accumulate(scenario.steps, apply_step, initial=scenario.start))
        assert replayed[-1] == p
        assert [list(map(tuple, runs)) for runs in states] == [list(maximal_runs(q).runs) for q in replayed]
        for before, after in zip(replayed, replayed[1:]):
            assert maximal_runs(before).count == -(-maximal_runs(after).count // 2)
        assert scenario_to_json(scenario) == {
            "n": p.n, "steps": [sorted(kept) for kept in kept_sets], "end": list(replayed[-1].values)
        }

    def test_replays_to_target_exhaustively(self):
        for n in range(1, 8):
            for t in itertools.permutations(range(1, n + 1)):
                p = Permutation(t)
                scenario = synthesize_scenario(p)
                assert replay(scenario).values == p.values
                assert len(scenario.steps) == min_steps(p)
                self.check_against_rescan(p)

    def test_identity_needs_no_steps(self):
        scenario = synthesize_scenario(identity(4))
        assert scenario.steps == ()
        assert replay(scenario).values == (1, 2, 3, 4)

    @given(st.integers(1, 300).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_matches_rescan_by_property(self, values):
        self.check_against_rescan(Permutation(tuple(values)))

    def test_matches_rescan_on_large_hosts(self):
        n = 10**4
        shuffled = list(range(1, n + 1))
        random.Random(5).shuffle(shuffled)
        walks = [random_evolution(n, steps, seed).end for steps, seed in ((1, 0), (3, 1), (6, 2), (9, 3))]
        for host in (*walks, Permutation(tuple(shuffled)), Permutation(tuple(range(n, 0, -1)))):
            self.check_against_rescan(host)


class TestSplitMix:
    def test_reference_words(self):
        g = SplitMix64(0)
        assert [g.next_word() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]
        g = SplitMix64(1234567)
        assert [g.next_word() for _ in range(3)] == [
            0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_word() == SplitMix64(0).next_word()

    def test_coin_is_low_bit(self):
        g1, g2 = SplitMix64(99), SplitMix64(99)
        for _ in range(20):
            assert g1.coin() == bool(g2.next_word() & 1)


class TestRandomEvolution:
    def test_golden_scenario(self):
        scenario = random_evolution(6, 3, 1)
        assert scenario_to_json(scenario) == {
            "n": 6,
            "steps": [[1, 2, 4, 5], [1, 2, 5], [4, 5, 6]],
            "end": [5, 4, 6, 1, 2, 3],
        }

    def test_zero_steps(self):
        scenario = random_evolution(5, 0, 77)
        assert scenario.steps == ()
        assert scenario.end.values == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize(
        "n, steps, message", [(0, 2, "size must be at least 1"), (5, -1, "steps must be at least 0")]
    )
    def test_refusals(self, n, steps, message):
        with pytest.raises(ValueError, match=message):
            random_evolution(n, steps, 1)

    def test_deterministic(self):
        a = random_evolution(7, 4, 123)
        b = random_evolution(7, 4, 123)
        assert scenario_to_json(a) == scenario_to_json(b)

    def test_seeds_differ(self):
        outcomes = {
            tuple(map(tuple, scenario_to_json(random_evolution(6, 3, seed))["steps"]))
            for seed in range(8)
        }
        assert len(outcomes) > 1

    @given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**64 - 1))
    def test_descent_bound_always_holds(self, n, steps, seed):
        scenario = random_evolution(n, steps, seed)
        assert replay(scenario).values == scenario.end.values
        assert descents(scenario.end).count <= 2**steps - 1


class TestScenarioJson:
    def test_roundtrip(self):
        scenario = synthesize_scenario(parse_permutation("6 9 8 4 1 3 7 2 5"))
        data = scenario_to_json(scenario)
        back = scenario_from_json(data)
        assert back.end.values == scenario.end.values
        assert [sorted(s.kept_first) for s in back.steps] == data["steps"]

    def test_tampered_end_rejected(self):
        data = scenario_to_json(random_evolution(5, 2, 3))
        data["end"] = list(range(1, 6))
        if scenario_to_json(random_evolution(5, 2, 3))["end"] == data["end"]:
            data["end"] = [2, 1, 3, 4, 5]
        with pytest.raises(ValueError):
            scenario_from_json(data)

    def test_bad_sizes_rejected(self):
        for data in (
            {"n": 3, "steps": [[5]], "end": [1, 2, 3]},
            {"n": 3, "steps": 5, "end": [1, 2, 3]},
            {"n": 3, "steps": [[1]], "end": 5},
            {"n": 3, "steps": [5], "end": [1, 2, 3]},
            {"n": 3, "steps": [[1]], "end": [2, 1]},
            # Values are never converted: a float, bool or string is refused.
            {"n": 3, "steps": [[2.7]], "end": [2, 1, 3]},
            {"n": 3.9, "steps": [[2]], "end": [2, 1, 3]},
            {"n": 3, "steps": [[2]], "end": [2.5, 1.2, 3.9]},
            {"n": 3, "steps": "2", "end": [2, 1, 3]},
            {"n": 3, "steps": [[2]], "end": "213"},
            {"n": True, "steps": [], "end": [1]},
            # A kept list that repeats a value is refused, not read as a set.
            {"n": 2, "steps": [[1, 1]], "end": [1, 2]},
        ):
            with pytest.raises(ValueError):
                scenario_from_json(data)
