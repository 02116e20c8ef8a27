import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdl import (
    DescentSet,
    Permutation,
    all_permutations,
    descent_count,
    descents,
    identity,
    maximal_runs,
    parse_permutation,
    remove_element,
    run_count,
    standardize,
)
from permdl.perm import _parse_spelled

from helpers import standardized

perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda v: Permutation(tuple(v)))


class TestPermutation:
    def test_valid(self):
        p = Permutation((2, 1, 4, 3))
        assert p.n == 4
        assert len(p) == 4
        assert list(p) == [2, 1, 4, 3]
        assert str(p) == "2 1 4 3"

    def test_coerces_sequences(self):
        assert Permutation([3, 1, 2]).values == (3, 1, 2)

    @pytest.mark.parametrize("bad", [(), (0, 1), (1, 1), (1, 3), (2, 3), (1, 2, 4)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_identity(self):
        assert identity(4).values == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            identity(0)

    def test_all_permutations(self):
        assert sorted(p.values for p in all_permutations(3)) == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]
        for n in (0, -1):
            with pytest.raises(ValueError, match="size at least 1"):
                next(all_permutations(n))


class TestParse:
    def test_whitespace_and_commas(self):
        assert parse_permutation("2 1 4 3").values == (2, 1, 4, 3)
        assert parse_permutation("2,1,4,3").values == (2, 1, 4, 3)
        assert parse_permutation("  2, 1  4,3 ").values == (2, 1, 4, 3)

    def test_bad_token_is_named(self):
        with pytest.raises(ValueError, match="x"):
            parse_permutation("1 x 2")

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_permutation("   ")

    @pytest.mark.parametrize(
        "values",
        [
            (0,),
            (1, 0),
            (2, 3),
            (3, 1, 2, 4, 6),
            (2, 1, 2),
            (3, 1, 1),
            (1, 5, 2, 2),  # out of range first, duplicate after it
            (2, 2, 7),  # duplicate first, out of range after it
            (-1, 1),
        ],
    )
    def test_malformed_values_raise_the_constructor_message(self, values):
        with pytest.raises(ValueError) as want:
            Permutation(tuple(values))
        for text in (" ".join(map(str, values)), ",".join(map(str, values))):
            with pytest.raises(ValueError) as got:
                parse_permutation(text)
            assert str(got.value) == str(want.value)

    def test_first_bad_token_is_named(self):
        for text, bad in (("1 x 2", "x"), ("2 1 y z", "y"), ("1.0 2", "1.0"), ("q", "q")):
            with pytest.raises(ValueError) as got:
                parse_permutation(text)
            assert str(got.value) == f"not an integer: {bad!r}"

    @given(perms)
    def test_str_roundtrip(self, p):
        assert parse_permutation(str(p)).values == p.values

    @given(st.integers(1, 120).flatmap(lambda n: st.permutations(list(range(1, n + 1)))), st.data())
    def test_tokens_kept_only_when_each_reads_as_its_value(self, values, data):
        # The length rule of _parse_spelled against the token-by-token
        # definition: a drawn set of values is spelled in one other way that
        # int() reads as the same value.
        fullwidth = {ord(c): ord(c) + 0xFEE0 for c in "0123456789"}
        way = data.draw(st.sampled_from([
            lambda s: "+" + s,
            lambda s: "0" + s,
            lambda s: s.translate(fullwidth),
            lambda s: s[0] + "_" + s[1:] if len(s) > 1 else s,
        ]))
        odd = data.draw(st.sets(st.integers(0, len(values) - 1)))
        tokens = [way(str(v)) if i in odd else str(v) for i, v in enumerate(values)]
        p, spelled = _parse_spelled(data.draw(st.sampled_from([" ", ",", " ,  "])).join(tokens))
        assert p.values == tuple(values)
        assert spelled == (tokens if tokens == [str(v) for v in values] else None)


class TestStatistics:
    def test_running_example(self):
        p = parse_permutation("6 9 8 4 1 3 7 2 5")
        assert descents(p) == DescentSet((2, 3, 4, 7))
        assert descents(p).count == 4
        assert [list(r) for r in maximal_runs(p).runs] == [
            [6, 9], [8], [4], [1, 3, 7], [2, 5],
        ]

    def test_monotone_extremes(self):
        assert descents(identity(5)).count == 0
        assert maximal_runs(identity(5)).count == 1
        rev = Permutation((5, 4, 3, 2, 1))
        assert descents(rev).positions == (1, 2, 3, 4)
        assert maximal_runs(rev).count == 5

    @given(perms)
    def test_runs_are_descents_plus_one(self, p):
        assert maximal_runs(p).count == descents(p).count + 1

    @given(perms)
    def test_runs_partition_the_permutation(self, p):
        flat = tuple(v for run in maximal_runs(p).runs for v in run)
        assert flat == p.values
        for run in maximal_runs(p).runs:
            assert all(a < b for a, b in zip(run, run[1:]))

    def test_raw_word_helpers(self):
        assert descent_count((3, 1, 2)) == 1
        assert run_count((3, 1, 2)) == 2
        assert descent_count(()) == 0


def naive_descents(word) -> list[int]:
    return [i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]]


def naive_runs(word) -> list[tuple[int, ...]]:
    runs, current = [], [word[0]]
    for v in word[1:]:
        if v > current[-1]:
            current.append(v)
        else:
            runs.append(tuple(current))
            current = [v]
    return runs + [tuple(current)]


class TestScansMatchDefinitions:
    """The C-level scans against per-element loops straight from the definitions."""

    @given(st.lists(st.integers(-10**6, 10**6), max_size=40, unique=True))
    def test_descent_count_on_lists_and_tuples(self, word):
        want = len(naive_descents(word))
        assert descent_count(word) == descent_count(tuple(word)) == want

    @given(st.integers(1, 60).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_descents_and_runs(self, word):
        p = Permutation(word)
        assert descents(p).positions == tuple(naive_descents(word))
        assert maximal_runs(p).runs == tuple(naive_runs(word))
        assert all(type(r) is tuple for r in maximal_runs(p).runs)

    def test_size_one(self):
        p = Permutation((1,))
        assert descent_count([1]) == descent_count((1,)) == 0
        assert descents(p).positions == ()
        assert maximal_runs(p).runs == ((1,),)


class TestStandardize:
    def test_example(self):
        assert standardize((1, 5, 6, 3)).values == (1, 3, 4, 2)

    def test_refuses_empty_and_repeated_words(self):
        with pytest.raises(ValueError, match="size at least 1"):
            standardize(())
        with pytest.raises(ValueError, match="duplicate value 5"):
            standardize((1, 5, 6, 5))

    @given(perms)
    def test_fixes_permutations(self, p):
        assert standardize(p.values) == p

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    def test_matches_rank_definition(self, word):
        assert standardize(tuple(word)).values == standardized(tuple(word))


class TestRemoveElement:
    def test_one_based(self):
        p = Permutation((2, 1, 4, 3))
        assert remove_element(p, 1).values == (1, 3, 2)
        assert remove_element(p, 3).values == (2, 1, 3)

    def test_bounds(self):
        p = Permutation((2, 1))
        with pytest.raises(ValueError):
            remove_element(p, 0)
        with pytest.raises(ValueError):
            remove_element(p, 3)
        with pytest.raises(ValueError):
            remove_element(Permutation((1,)), 1)

    def test_matches_rank_definition(self):
        for n in range(2, 7):
            for p in all_permutations(n):
                for i in range(1, n + 1):
                    assert remove_element(p, i).values == standardized(p.values[: i - 1] + p.values[i:])

    @given(perms, st.data())
    def test_removal_drops_descents_by_at_most_one(self, p, data):
        if p.n == 1:
            return
        i = data.draw(st.integers(1, p.n))
        before = descents(p).count
        after = descents(remove_element(p, i)).count
        assert after in (before, before - 1)
