import itertools
import random
from array import array
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdl import (
    DescentComposition,
    DiamondPoset,
    Permutation,
    all_permutations,
    authorized_labellings,
    build_poset,
    compositions,
    count_basis,
    count_labellings,
    descents,
    is_minimal,
    ladder,
    maximal_runs,
    parse_permutation,
    poset_edges,
)
from permdl.posets import _digit_code, _sorted_rows, _unpack

from helpers import digit_row

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def descending_block_composition(p: Permutation) -> tuple[int, ...]:
    # descents per maximal decreasing block, left to right
    blocks = []
    current = 1
    for a, b in zip(p.values, p.values[1:]):
        if a > b:
            current += 1
        else:
            blocks.append(current - 1)
            current = 1
    blocks.append(current - 1)
    return tuple(blocks)


class TestDescentComposition:
    def test_accessors(self):
        c = DescentComposition((3, 3, 1, 7, 2))
        assert c.d == 16
        assert c.n == 21
        assert c.ascent_positions() == (4, 8, 10, 18)

    def test_validation(self):
        with pytest.raises(ValueError):
            DescentComposition(())
        with pytest.raises(ValueError):
            DescentComposition((2, 0, 1))

    def test_compositions_counts(self):
        # compositions of d into n-d positive parts
        for d in range(1, 8):
            for n in range(d + 1, 2 * d + 1):
                got = compositions(d, n)
                assert len(got) == comb(d - 1, n - d - 1)
                assert got == sorted(got, key=lambda c: c.run_lengths)
                assert all(c.d == d and c.n == n for c in got)

    def test_compositions_empty_outside_bounds(self):
        assert compositions(3, 3) == []
        assert compositions(3, 7) == []
        with pytest.raises(ValueError):
            compositions(0, 1)


class TestDiamondPoset:
    def test_cover_validation(self):
        with pytest.raises(ValueError):
            DiamondPoset(2, frozenset({(1, 3)}))
        with pytest.raises(ValueError):
            DiamondPoset(2, frozenset({(1, 1)}))
        for size in (0, -2):
            with pytest.raises(ValueError, match="a poset needs at least one node"):
                DiamondPoset(size, frozenset())

    def test_cycle_detection(self):
        with pytest.raises(ValueError):
            DiamondPoset(3, frozenset({(1, 2), (2, 3), (3, 1)}))

    def test_single_ascent_shape(self):
        # composition (1, 1): one diamond on four positions
        poset = build_poset(DescentComposition((1, 1)))
        assert poset.size == 4
        assert poset.covers == frozenset({(2, 1), (4, 3), (2, 4), (1, 3)})

    def test_edges_export(self):
        poset = build_poset(DescentComposition((1, 1)))
        assert poset_edges(poset) == "1 -> 3\n2 -> 1\n2 -> 4\n4 -> 3"


class TestLadder:
    def test_two_steps_exactly_the_two_diamonds(self):
        got = [p.values for p in authorized_labellings(ladder(2))]
        assert got == [(2, 1, 4, 3), (3, 1, 4, 2)]

    def test_catalan_counts(self):
        for d in range(1, 8):
            assert count_labellings(ladder(d)) == CATALAN[d]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ladder(0)


class TestLabellings:
    def test_match_minimal_permutations_by_composition(self):
        # labellings of the shape poset == minimal permutations with that
        # composition; together they partition each (d, n) slice
        for d in range(1, 5):
            for n in range(d + 1, 2 * d + 1):
                by_brute: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
                for p in all_permutations(n):
                    if is_minimal(p, d).is_minimal:
                        by_brute.setdefault(descending_block_composition(p), set()).add(p.values)
                for comp in compositions(d, n):
                    poset = build_poset(comp)
                    got = {p.values for p in authorized_labellings(poset)}
                    assert got == by_brute.pop(comp.run_lengths, set())
                    assert count_labellings(poset) == len(got)
                assert not by_brute

    def test_large_example_respects_its_shape(self):
        p = parse_permutation("20 18 15 14 19 17 10 8 13 12 21 16 11 9 7 5 3 2 6 4 1")
        assert descents(p).count == 16
        comp = descending_block_composition(p)
        assert comp == (3, 3, 1, 7, 2)
        poset = build_poset(DescentComposition(comp))
        for lo, up in poset.covers:
            assert p.values[lo - 1] < p.values[up - 1]
        assert is_minimal(p, 16).is_minimal

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda b: sum(b) <= 5)
    )
    def test_labellings_are_minimal_with_the_right_shape(self, lengths):
        comp = DescentComposition(tuple(lengths))
        labellings = list(authorized_labellings(build_poset(comp)))
        assert len(labellings) == count_labellings(build_poset(comp))
        for p in labellings:
            assert is_minimal(p, comp.d).is_minimal
            assert descending_block_composition(p) == comp.run_lengths

    def test_count_equals_listing_length(self):
        # The two uses of the one peel, on every composition up to 10 nodes
        # (d <= 9 in full would list 2.7e8 labellings at d = 9 alone).
        for d in range(1, 10):
            for n in range(d + 1, min(2 * d, 10) + 1):
                for comp in compositions(d, n):
                    poset = build_poset(comp)
                    assert count_labellings(poset) == len(list(authorized_labellings(poset))), comp

    def test_one_block_means_reverse_identity(self):
        # d = 1200 is far deeper than the interpreter's recursion limit.
        for d in (4, 1200):
            poset = build_poset(DescentComposition((d,)))
            assert [p.values for p in authorized_labellings(poset)] == [tuple(range(d + 1, 0, -1))]
        assert count_basis(1200, 1201) == 1

    @pytest.mark.parametrize("lengths", [(254, 1), (1, 254)])
    def test_two_byte_digits_list_many_members(self, lengths):
        # 257 nodes, so every digit takes two bytes, and 32,639 labellings.
        comp = DescentComposition(lengths)
        poset = build_poset(comp)
        members = list(authorized_labellings(poset))
        assert all(a.values < b.values for a, b in zip(members, members[1:]))
        assert len(members) == count_labellings(poset) == 32639
        assert all(is_minimal(p, comp.d).is_minimal for p in members)


class TestPackedWords:
    @pytest.mark.parametrize("n, code", [(1, "B"), (255, "B"), (256, "H"), (65535, "H"), (65536, "I")])
    def test_round_trip_and_order(self, n, code):
        # Synthetic words at the edges of the 1-, 2- and 4-byte digits.
        assert _digit_code(n) == code
        words = [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), tuple(random.Random(n).sample(range(1, n + 1), n))]
        rows = [digit_row(w, n) for w in words]
        assert list(_unpack(rows, n)) == words
        assert sorted(rows) == [digit_row(w, n) for w in sorted(words)]
        # The peel's layout, each word followed by digit 0, is cut into the
        # same rows, sorted.
        peeled = array(code, [v for w in words for v in (*w, 0)])
        assert _sorted_rows(peeled, n) == sorted(rows)

    def test_empty(self):
        assert list(_unpack([], 10**9)) == []
