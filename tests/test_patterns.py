import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdl import (
    Occurrence,
    PatternBasis,
    Permutation,
    all_permutations,
    avoids_basis,
    descents,
    enumerate_basis,
    involves,
    load_basis,
    occurrences,
    parse_basis,
    parse_permutation,
    random_evolution,
    reachable_within,
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


class TestPatternBasis:
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


def basis_for_steps(p):
    # B_{2^p}: the minimal permutations with 2^p descents, of sizes 2^p+1..2^(p+1).
    d = 1 << p
    return PatternBasis(frozenset(m for n in range(d + 1, 2 * d + 1) for m in enumerate_basis(d, n).members))


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
