import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permdl
from permdl import (
    Occurrence,
    PatternBasis,
    Permutation,
    all_permutations,
    avoids_basis,
    count_table,
    descent_count,
    descents,
    enumerate_basis,
    involves,
    load_basis,
    occurrences,
    parse_basis,
    parse_permutation,
    random_evolution,
    reachable_within,
    remove_element,
)

from helpers import subsequence_patterns

small_perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda v: Permutation(tuple(v)))


class TestInvolves:
    def test_worked_example(self):
        host = parse_permutation("1 4 2 5 6 3")
        assert involves(parse_permutation("1 3 4 2"), host)
        assert not involves(parse_permutation("3 2 1"), host)

    def test_occurrence_indices_exact(self):
        host = parse_permutation("1 4 2 5 6 3")
        got = occurrences(parse_permutation("1 3 4 2"), host)
        assert got == [
            Occurrence((1, 2, 4, 6)),
            Occurrence((1, 2, 5, 6)),
            Occurrence((1, 4, 5, 6)),
            Occurrence((3, 4, 5, 6)),
        ]

    def test_limit(self):
        host = parse_permutation("1 4 2 5 6 3")
        pattern = parse_permutation("1 3 4 2")
        assert len(occurrences(pattern, host, limit=2)) == 2
        assert occurrences(pattern, host, limit=2) == occurrences(pattern, host)[:2]
        with pytest.raises(ValueError):
            occurrences(pattern, host, limit=0)

    def test_pattern_larger_than_host(self):
        assert not involves(Permutation((1, 2, 3)), Permutation((2, 1)))

    @given(small_perms, small_perms)
    def test_matches_subsequence_oracle(self, pattern, host):
        expected = pattern.values in subsequence_patterns(host.values)
        assert involves(pattern, host) == expected

    @given(small_perms)
    def test_reflexive(self, p):
        assert involves(p, p)
        assert occurrences(p, p) == [Occurrence(tuple(range(1, p.n + 1)))]

    def test_transitive_on_small_sizes(self):
        # a ≺ b and b ≺ c forces a ≺ c; checked through the oracle sets
        for c in all_permutations(5):
            pats_c = subsequence_patterns(c.values)
            for b_vals in pats_c:
                for a_vals in subsequence_patterns(b_vals):
                    assert a_vals in pats_c

    @given(small_perms, small_perms)
    def test_occurrences_are_sorted_and_valid(self, pattern, host):
        occs = occurrences(pattern, host)
        assert occs == sorted(occs, key=lambda o: o.indices)
        for occ in occs:
            sub = tuple(host.values[i - 1] for i in occ.indices)
            ranks = {v: r for r, v in enumerate(sorted(sub), start=1)}
            assert tuple(ranks[v] for v in sub) == pattern.values


def pairwise_antichain_error(patterns):
    # The check PatternBasis made before it walked deletions, kept as the
    # oracle: one involves search per smaller-into-larger pair, in (size,
    # values) order; the first hit is the pair the error names.
    members = sorted(patterns, key=lambda p: (p.n, p.values))
    for a, b in itertools.combinations(members, 2):
        if a.n < b.n and involves(a, b):
            return f"not an antichain: {a} occurs in {b}"
    return None


def random_pattern_set(rng):
    # Up to 8 patterns: random ones with sizes in a random window of 1..6
    # (a window of one size is always an antichain), or part of B_2 or B_3
    # (always an antichain, over two or three sizes).  A quarter of the sets
    # then get a pattern reached by deleting entries of a member, which
    # never leaves an antichain.
    k = rng.randint(0, 8)
    if rng.random() < 0.4:
        members = sorted(minimal_basis(rng.randint(2, 3)).patterns, key=lambda p: (p.n, p.values))
        patterns = set(rng.sample(members, min(k, len(members))))
    else:
        lo = rng.randint(1, 6)
        hi = rng.randint(lo, 6)
        sizes = [rng.randint(lo, hi) for _ in range(k)]
        patterns = {Permutation(tuple(rng.sample(range(1, n + 1), n))) for n in sizes}
    if patterns and rng.random() < 0.25:
        q = rng.choice(sorted(patterns, key=lambda p: p.values))
        for _ in range(rng.randint(1, q.n - 1) if q.n > 1 else 0):
            q = remove_element(q, rng.randint(1, q.n))
        patterns.add(q)
    return patterns


def two_run_host(n, seed):
    # A size-n permutation that avoids 3 2 1 yet has many distinct
    # patterns: two increasing runs merged at random positions.
    rng = random.Random(seed)
    positions = set(rng.sample(range(n), n // 2))
    chosen = set(rng.sample(range(1, n + 1), n // 2))
    first = iter(sorted(chosen))
    second = iter(sorted(set(range(1, n + 1)) - chosen))
    return Permutation(tuple(next(first) if i in positions else next(second) for i in range(n)))


class TestPatternBasis:
    # The walk alone, the pairwise search alone, and the default switch.
    @pytest.mark.parametrize("per_pair", [10**9, 0, 1], ids=["walk", "pairwise", "default"])
    def test_walk_matches_the_pairwise_search(self, monkeypatch, per_pair):
        monkeypatch.setattr(permdl.patterns, "_DELETIONS_PER_PAIR", per_pair)
        outcomes = []
        for seed in range(600):
            patterns = random_pattern_set(random.Random(seed))
            want = pairwise_antichain_error(patterns)
            if want is None:
                assert PatternBasis(frozenset(patterns)).patterns == patterns, seed
            else:
                with pytest.raises(ValueError) as excinfo:
                    PatternBasis(frozenset(patterns))
                assert str(excinfo.value) == want, seed
            outcomes.append(want is None)
        assert 150 <= sum(outcomes) <= 450

    def test_all_of_b5_is_an_antichain(self, monkeypatch):
        # 1,485 members and 637,112 smaller-into-larger pairs; the walk
        # decides with 47,152 deletions and no involves search.
        def no_search(pattern, host):
            raise AssertionError("searched a pair")

        monkeypatch.setattr(permdl.patterns, "involves", no_search)
        assert len(minimal_basis(5).patterns) == sum(count_table(5).values()) == 1485

    @pytest.mark.parametrize("small", ["3 2 1", "1 2", "1"])
    def test_far_apart_sizes_fall_back_to_the_pair(self, monkeypatch, small):
        # Beside one member of size 30 the walk would meet up to C(30, k)
        # patterns at size k; with one pair it must stop at once and search.
        made = itertools.count()

        def counted(p, index):
            assert next(made) < 100, "the walk did not stop"
            return remove_element(p, index)

        monkeypatch.setattr(permdl.patterns, "remove_element", counted)
        pattern, host = parse_permutation(small), two_run_host(30, 0)
        want = pairwise_antichain_error({pattern, host})
        start = time.perf_counter()
        if small == "3 2 1":
            assert want is None
            assert PatternBasis(frozenset({pattern, host})).patterns == {pattern, host}
        else:
            assert want == f"not an antichain: {pattern} occurs in {host}"
            with pytest.raises(ValueError) as excinfo:
                PatternBasis(frozenset({pattern, host}))
            assert str(excinfo.value) == want
        assert time.perf_counter() - start < 5

    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            PatternBasis(frozenset({Permutation((2, 1)), Permutation((3, 2, 1))}))
        PatternBasis(frozenset({Permutation((2, 1, 4, 3)), Permutation((3, 1, 4, 2))}))

    def test_empty_basis_is_avoided_vacuously(self):
        empty = PatternBasis(frozenset())
        assert avoids_basis(Permutation((2, 1, 4, 3)), empty)

    def test_avoidance_of_two_descent_minimals(self):
        # avoiding all minimal permutations with 2 descents == having at most 1
        basis = PatternBasis(
            frozenset(
                {
                    Permutation((3, 2, 1)),
                    Permutation((2, 1, 4, 3)),
                    Permutation((3, 1, 4, 2)),
                }
            )
        )
        for n in range(1, 7):
            for p in all_permutations(n):
                assert avoids_basis(p, basis) == (descents(p).count <= 1)


def minimal_basis(d):
    # B_d: the minimal permutations with d descents, of sizes d+1..2d.
    return PatternBasis(frozenset(m for n in range(d + 1, 2 * d + 1) for m in enumerate_basis(d, n).members))


def basis_for_steps(p):
    return minimal_basis(1 << p)


class TestBasisTheorem:
    @pytest.mark.parametrize("p", [1, 2])
    def test_avoidance_is_reachability(self, p):
        # The paper's equivalence on seeded hosts of p steps (all reachable)
        # and p+1 steps (mostly not), sizes 6..15, and on the basis members:
        # random hosts almost never involve a size-2^(p+1) member alone.
        basis = basis_for_steps(p)
        hosts = [random_evolution(6 + seed % 10, steps, seed).end for steps in (p, p + 1) for seed in range(80)]
        seen = set()
        for host in [*hosts, *basis.patterns]:
            expected = reachable_within(host, p)
            assert avoids_basis(host, basis) == expected, host
            seen.add(expected)
        assert seen == {True, False}

    def test_avoidance_is_fewer_than_d_descents_for_d_not_a_power_of_two(self):
        basis = minimal_basis(3)
        for n in range(1, 7):
            for host in all_permutations(n):
                assert avoids_basis(host, basis) == (descent_count(host.values) < 3), host

    def test_antichain_message_names_the_pair(self):
        patterns = basis_for_steps(2).patterns | {parse_permutation("2 1 4 3 6 5")}
        with pytest.raises(ValueError) as excinfo:
            PatternBasis(patterns)
        assert str(excinfo.value) == "not an antichain: 2 1 4 3 6 5 occurs in 2 1 4 3 7 6 5"


class TestBasisFiles:
    def test_parse(self):
        text = "# comment\n2 1 4 3\n\n3 1 4 2\n"
        basis = parse_basis(text)
        assert {p.values for p in basis.patterns} == {(2, 1, 4, 3), (3, 1, 4, 2)}

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError):
            parse_basis("# nothing here\n")

    def test_load(self, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text("3 2 1\n# tail comment\n")
        basis = load_basis(path)
        assert {p.values for p in basis.patterns} == {(3, 2, 1)}
