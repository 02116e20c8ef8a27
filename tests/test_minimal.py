import functools
import itertools
import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdl import (
    BasisSlice,
    Permutation,
    all_permutations,
    count_basis,
    count_by_diamond_type,
    count_table,
    descents,
    enumerate_basis,
    enumerate_basis_brute,
    is_minimal,
    is_minimal_oracle,
    parse_permutation,
    remove_element,
    slice_to_text,
    standardize,
)
from permdl import minimal
from permdl.minimal import _rank_scan, _window_failure

from helpers import (
    CLOSED,
    block_count,
    block_steps,
    composition_count,
    definition_minimal,
    diamond_split_by_posets,
    guessed_2d_minus_3,
    looping,
)


# The rows n = d+1 .. d+ROWS of the closed-form table.
ROWS = len(minimal._FEW_ASCENTS)


@functools.cache
def scanned() -> dict[tuple[int, int], int]:
    # {(d, n): count} for every slice with d <= 60, from one scan of the
    # whole band at d = 60 (about 1 s), against which the closed forms are pinned.
    return {(e, m): count for e, m, count in _rank_scan(60, 61, 120)}


def closed_form_slice_count(d: int) -> int:
    return 2 ** (d + 2) - (d + 1) * (d + 2) - 2


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def guessed_d_plus_3(d: int) -> int:
    quartic = d**4 + 5 * d**3 + 10 * d**2 + 12 * d + 2
    assert quartic % 2 == 0
    return 3 ** (d + 3) - 4 * (d**2 + 4 * d + 7) * 2**d + quartic // 2


def guessed_2d_minus_2(d: int) -> int:
    scaled = catalan(d - 1) * ((d + 1) * 4 ** (d - 1) - 2 * (2 * d**2 + 3 * d + 4) * 3 ** (d - 3))
    assert scaled % (d + 1) == 0
    return scaled // (d + 1)


class TestIsMinimal:
    def test_minimal_example(self):
        report = is_minimal(parse_permutation("6 4 2 1 9 7 3 8 5"), 6)
        assert report.is_minimal
        assert report.descent_count == 6
        assert report.bad_ascent is None

    def test_non_minimal_example_with_witness(self):
        p = parse_permutation("8 6 1 3 2 4 11 9 5 10 7")
        report = is_minimal(p, 6)
        assert not report.is_minimal
        assert report.descent_count == 6
        # the witness must actually work: remove it and keep 6 descents
        smaller = remove_element(p, report.removable_position)
        assert descents(smaller).count == 6

    def test_reverse_identity(self):
        for d in range(1, 9):
            p = Permutation(tuple(range(d + 1, 0, -1)))
            assert is_minimal(p, d).is_minimal

    def test_wrong_descent_count_reported(self):
        report = is_minimal(Permutation((3, 2, 1)), 1)
        assert not report.is_minimal
        assert report.descent_count == 2
        assert report.bad_ascent is None
        assert report.removable_position is None

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            is_minimal(Permutation((2, 1)), 0)

    def test_equals_oracle_exhaustively(self):
        for n in range(2, 8):
            for t in itertools.permutations(range(1, n + 1)):
                p = Permutation(t)
                for d in range(1, n):
                    assert is_minimal(p, d).is_minimal == is_minimal_oracle(p, d)

    def test_equals_definition_on_small_sizes(self):
        for n in range(2, 7):
            for t in itertools.permutations(range(1, n + 1)):
                p = Permutation(t)
                for d in range(1, n):
                    assert is_minimal(p, d).is_minimal == definition_minimal(p, d)

    def test_witnesses_always_checkable(self):
        # whenever the descent count matches but an ascent breaks the diamond
        # condition, the named removal must preserve the descent count
        for n in range(3, 8):
            for t in itertools.permutations(range(1, n + 1)):
                p = Permutation(t)
                d = descents(p).count
                if d < 1:
                    continue
                report = is_minimal(p, d)
                if report.is_minimal:
                    continue
                assert report.bad_ascent is not None
                assert descents(remove_element(p, report.removable_position)).count == d


class TestOracle:
    def test_trivial_cases(self):
        assert is_minimal_oracle(Permutation((3, 2, 1)), 2)
        assert not is_minimal_oracle(Permutation((1, 2)), 1)

    @pytest.mark.parametrize(
        "values, d, message",
        [((2, 1), 0, "d must be at least 1"), ((1,), 1, "oracle needs size at least 2")],
        ids=["d=0", "size 1"],
    )
    def test_refusals(self, values, d, message):
        with pytest.raises(ValueError, match=message):
            is_minimal_oracle(Permutation(values), d)

    def test_removals_from_minimal_drop_exactly_one(self):
        for d, n in [(2, 4), (3, 5), (3, 6), (4, 6)]:
            for p in enumerate_basis(d, n).members:
                for i in range(1, n + 1):
                    assert descents(remove_element(p, i)).count == d - 1


class TestEnumerate:
    def test_smallest_slices(self):
        assert [p.values for p in enumerate_basis(2, 4).members] == [
            (2, 1, 4, 3), (3, 1, 4, 2),
        ]
        assert enumerate_basis(3, 5).count == 10
        assert enumerate_basis(2, 5).members == ()
        assert enumerate_basis(2, 2).members == ()

    def test_slice_invariants(self):
        for d in range(1, 5):
            for n in range(d + 1, 2 * d + 1):
                s = enumerate_basis(d, n)
                assert isinstance(s, BasisSlice)
                assert s.count == len(s.members) == count_basis(d, n)
                assert list(s.members) == sorted(s.members, key=lambda p: p.values)
                for p in s.members:
                    assert p.n == n
                    assert is_minimal(p, d).is_minimal
                    # no ascent at the edges, no two consecutive ascents
                    word = p.values
                    assert word[0] > word[1] and word[-2] > word[-1]
                    for i in range(n - 2):
                        assert word[i] > word[i + 1] or word[i + 1] > word[i + 2]

    def test_size_2d_members_pin_two_values(self):
        for d in range(1, 6):
            for p in enumerate_basis(d, 2 * d).members:
                assert p.values[1] == 1
                assert p.values[-2] == 2 * d

    def test_routes_agree(self):
        # Sizes outside d+1..2d are empty slices on both routes.
        for d in range(1, 9):
            for n in range(d, min(2 * d + 1, 9) + 1):
                brute = enumerate_basis_brute(d, n)
                comp = enumerate_basis(d, n)
                assert [p.values for p in brute.members] == [p.values for p in comp.members]
        assert enumerate_basis_brute(2, 5) == BasisSlice(2, 5, ())

    @pytest.mark.parametrize("route", [enumerate_basis, enumerate_basis_brute])
    def test_rejects_bad_d(self, route):
        with pytest.raises(ValueError, match="d must be at least 1"):
            route(0, 1)

    def test_frozen_count_tables(self):
        assert [count_basis(4, n) for n in range(5, 9)] == [1, 32, 84, 14]
        assert [count_basis(5, n) for n in range(6, 11)] == [1, 84, 686, 672, 42]

    def test_formula_endpoints(self):
        for d in range(1, 9):
            assert count_basis(d, d + 1) == 1
        for d in range(2, 8):
            assert count_basis(d, d + 2) == closed_form_slice_count(d)
        assert count_basis(7, 9) == 438

    def test_listings_past_the_brute_route(self):
        # Packed words sorted as integers, checked member by member and
        # counted against the rank scan.
        for d, n in [(7, 11), (7, 13), (11, 22)]:
            words = [p.values for p in enumerate_basis(d, n).members]
            assert len(words) == scanned()[d, n]
            assert all(a < b for a, b in zip(words, words[1:]))
            assert all(_window_failure(w, d) is None for w in words)

    @given(st.integers(1, 5), st.data())
    def test_members_are_minimal(self, d, data):
        n = data.draw(st.integers(d + 1, min(2 * d, 9)))
        s = enumerate_basis(d, n)
        if s.members:
            p = data.draw(st.sampled_from(s.members))
            assert is_minimal(p, d).is_minimal


class TestCountBasis:
    def test_matches_composition_oracle(self):
        # Both rank counters, the per-size scan and the one-scan table, on
        # every size to d = 11 and on two of the band sizes d+9..2d-4,
        # which only the scan answers.
        for d in range(1, 12):
            table = count_table(d)
            assert list(table) == list(range(d + 1, 2 * d + 1))
            for n in range(1, 2 * d + 3):
                want = composition_count(d, n)
                assert count_basis(d, n) == want, (d, n)
                assert table.get(n, 0) == want, (d, n)
        for d, n in [(13, 22), (14, 24)]:
            assert count_basis(d, n) == count_table(d)[n] == composition_count(d, n), (d, n)

    def test_table_equals_count_basis_to_d_20(self):
        # Every count a scan yields is a slice of B_d' for some d' <= d, and
        # the only size with d descents a scan of one size n yields is n.
        for d in range(1, 21):
            table = count_table(d)
            assert table == {n: count_basis(d, n) for n in range(d + 1, 2 * d + 1)}, d
            for n in table:
                yields = list(_rank_scan(d, n))
                assert all(count == count_basis(e, m) for e, m, count in yields), (d, n)
                assert [(m, count) for e, m, count in yields if e == d] == [(n, table[n])], (d, n)

    def test_table_equals_the_full_band_scan(self):
        # The closed forms and the band scan of count_table against one
        # scan of every size d+1..2d.
        for d in [*range(1, 31), 40]:
            assert count_table(d) == {m: count for e, m, count in _rank_scan(d, d + 1, 2 * d) if e == d}, d

    def test_table_scans_only_the_open_band(self, monkeypatch):
        calls = []

        def recorded(*args):
            calls.append(args)
            return _rank_scan(*args)

        monkeypatch.setattr(minimal, "_rank_scan", recorded)
        for d in range(1, 21):
            calls.clear()
            count_table(d)
            assert calls == ([] if d <= 12 else [(d, d + 9, 2 * d - 4)]), d

    def test_table_rejects_bad_d(self):
        for d in (0, -1):
            with pytest.raises(ValueError):
                count_table(d)

    def test_count_rejects_bad_d(self):
        for d, n in ((0, 1), (0, 0), (-1, 3)):
            with pytest.raises(ValueError, match="d must be at least 1"):
                count_basis(d, n)

    def test_closed_forms_to_d_60(self):
        # count_basis answers these sizes in closed form; the scan is the oracle.
        scan = scanned()
        for d in range(1, 61):
            assert scan[d, d + 1] == count_basis(d, d + 1) == 1
            assert scan.get((d, d + 2), 0) == count_basis(d, d + 2) == closed_form_slice_count(d)
            if d >= 2:
                want = 2 ** (d - 2) * comb(2 * d - 1, d - 2)
                assert scan[d, 2 * d - 1] == count_basis(d, 2 * d - 1) == want
            assert scan[d, 2 * d] == count_basis(d, 2 * d) == catalan(d)

    # The fitted rows d+j of the table and the guessed 2d-3 and 2d-2 forms
    # are pinned against the scan on every d they answer up to 60; rows 1
    # and 2 are pinned in test_closed_forms_to_d_60.
    @pytest.mark.parametrize(
        "size",
        [*(lambda d, j=j: d + j for j in range(3, ROWS + 1)), lambda d: 2 * d - 3, lambda d: 2 * d - 2],
        ids=[*(f"d+{j}" for j in range(3, ROWS + 1)), "2d-3", "2d-2"],
    )
    def test_guessed_forms_match_the_scan(self, size):
        scan = scanned()
        for d in range(1, 61):
            n = size(d)
            if d < n <= 2 * d:
                assert scan[d, n] == count_basis(d, n), d

    @pytest.mark.parametrize("j", range(1, ROWS + 1))
    def test_each_row_matches_the_scan_where_feasible(self, j):
        # count_basis answers 2d-3..2d before the rows, so it never reads
        # row j at d <= j + 3; the row itself is pinned on its whole
        # feasible range d >= j here, evaluated without count_basis.
        den, polys = minimal._FEW_ASCENTS[j - 1]
        scan = scanned()
        for d in range(j, 61):
            total = sum(i**d * sum(c * d**k for k, c in enumerate(q)) for i, q in enumerate(polys, 1))
            assert divmod(total, den) == (scan[d, d + j], 0), d

    def test_2d_minus_3_is_the_guessed_form(self):
        for d in range(4, 201):
            assert guessed_2d_minus_3(d) == (count_basis(d, 2 * d - 3), 0), d

    def test_2d_minus_2_is_the_guessed_form(self):
        for d in range(3, 201):
            assert count_basis(d, 2 * d - 2) == guessed_2d_minus_2(d), d

    def test_table_rows_2_and_3_are_the_known_forms(self):
        for d in range(3, 201):
            assert count_basis(d, d + 1) == 1
            assert count_basis(d, d + 2) == closed_form_slice_count(d)
            assert count_basis(d, d + 3) == guessed_d_plus_3(d)

    def test_table_rows_never_scan(self, monkeypatch):
        # Far past what the scan reaches, and still never falling along a
        # diagonal (see TestDiagonalFloor); nor does the 2d-3 form scan.
        def refuse(*args):
            raise AssertionError(f"_rank_scan{args} called")

        monkeypatch.setattr(minimal, "_rank_scan", refuse)
        below = [0] * (ROWS + 1)
        for d in range(1, 401):
            for j in range(1, min(d, ROWS) + 1):
                count = count_basis(d, d + j)
                assert count >= max(below[j], 1), (d, j)
                below[j] = count
            if d >= 10:
                assert count_basis(d, 2 * d - 3) > 0, d

    def test_block_automaton_agrees(self):
        for d in range(1, 13):
            for n in range(d + 1, min(d + 4, 2 * d) + 1):
                assert block_count(d, n) == count_basis(d, n), (d, n)

    def test_degree_bound_of_the_rows(self):
        # scripts/derive_forms.py fits row j under deg P_i + 1 <= the most
        # states with i looping blocks (MANY) on one path of block moves
        # from j empty blocks to j closed ones; the bound is computed here
        # for every row of the table and i = 0..j, and is 3(j - i) + 1
        # exactly.  A looping block keeping a value is a self-loop, not a
        # new state.  Every other state has a move (the leftmost block not
        # yet closed always may), and blocks only move forward, so every
        # path ends with every block closed.  States are packed one octal
        # digit per block (see block_steps in helpers.py).
        for j in range(1, ROWS + 1):
            steps = block_steps(j)

            @functools.cache
            def most(s: int) -> tuple[int, ...]:
                # Per i, the most states with i looping blocks on a path from s on.
                tails = [most(s + step) for shift, table in steps for step in table[s >> shift & 0o77]]
                best = [max(column) for column in zip(*tails)] or [0] * (j + 1)
                best[looping(s)] += 1
                return tuple(best)

            assert most(CLOSED) == tuple(3 * (j - i) + 1 for i in range(j + 1)), j

    def test_zero_outside_d_plus_1_to_2d(self):
        for d in range(1, 61):
            for n in [*range(d + 1), 2 * d + 1, 2 * d + 2]:
                assert count_basis(d, n) == 0, (d, n)


def with_new_maximum(p: Permutation) -> Permutation:
    # A member of B_d with n+1 put in front is a member of B_{d+1}.  By the
    # local characterization, minimality is a check of each ascent on its
    # window of four values around it.  Every ascent of p keeps the same
    # window, one position to the right, and the new first pair, n+1 before
    # anything, descends: one descent more and no ascent more.  So slice
    # counts never fall along a diagonal n - d = j, which starts at the
    # size-2j slice with Cat(j) >= 2^(j-1) members; the CLI refuses listings
    # on that floor.
    return Permutation((p.n + 1, *p.values))


class TestDiagonalFloor:
    def test_new_maximum_keeps_members_minimal(self):
        # Checked by the removal oracle, not the window scan: every member
        # with d <= 6, and 2,000 of each d = 7 slice (all of them would take
        # the oracle about 14 s).
        rng = random.Random(7)
        for d in range(1, 8):
            for n in range(d + 1, 2 * d + 1):
                members = enumerate_basis(d, n).members
                if d == 7 and len(members) > 2000:
                    members = rng.sample(members, 2000)
                for p in members:
                    assert is_minimal_oracle(with_new_maximum(p), d + 1), p

    def test_counts_never_fall_along_a_diagonal(self):
        tables = [count_table(d) for d in range(1, 32)]
        for row, above in zip(tables, tables[1:]):
            for n, count in row.items():
                assert above[n + 1] >= count, n
        for j in range(1, 61):
            assert catalan(j) >= 2 ** (j - 1)


class TestDiamondTypes:
    def test_smallest_split(self):
        assert count_by_diamond_type(2) == (1, 1)
        # 2143 is its own diamond of type 2143; 3142 likewise of type 3142
        assert standardize((2, 1, 4, 3)).values == (2, 1, 4, 3)
        # The size-3 slice is the one word 3 2 1, which has no ascent.
        with pytest.raises(ValueError, match=r"the size-\(d\+2\) slice needs d >= 2"):
            count_by_diamond_type(1)

    def test_closed_forms(self):
        for d in range(2, 13):
            n1, n2 = count_by_diamond_type(d)
            assert n1 == 2 ** (d + 2) - (d + 1) * (d + 2) * (d + 3) // 6 - d - 3
            assert n2 == d * (d - 1) * (d + 1) // 6
            assert n1 + n2 == closed_form_slice_count(d)

    def test_matches_poset_oracle_to_d_30(self):
        for d in range(2, 31):
            assert count_by_diamond_type(d) == diamond_split_by_posets(d), d


class TestSliceText:
    def test_format(self):
        text = slice_to_text(enumerate_basis(2, 4))
        assert text == "# d=2 n=4 count=2\n2 1 4 3\n3 1 4 2"
