import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdl import (
    DyckPath,
    EcoNode,
    NonIntervalSubset,
    Permutation,
    all_permutations,
    bijections,
    classify_s2,
    count_non_interval_subsets,
    dyck_to_perm,
    eco_children,
    eco_root,
    enumerate_basis,
    generating_tree,
    identity,
    is_minimal,
    is_minimal_oracle,
    non_interval_subsets,
    parse_permutation,
    perm_to_dyck,
    phi1,
    phi1_inverse,
    phi2,
    phi2_inverse,
)
from permdl.cli import main

from helpers import dyck_words, rule_label_multisets

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


class TestDyckPath:
    @pytest.mark.parametrize("bad", ["", "UD X", "UU", "UDD", "DU", "UDDU"])
    def test_invalid_paths(self, bad):
        with pytest.raises(ValueError):
            DyckPath(bad)

    def test_valid(self):
        assert DyckPath("UUDUUDDDUD").steps == "UUDUUDDDUD"


class TestDyckBijection:
    def test_worked_example_both_ways(self):
        assert str(dyck_to_perm(DyckPath("UUDUUDDDUD"))) == "3 1 6 2 7 4 8 5 10 9"
        assert perm_to_dyck(parse_permutation("3 1 6 2 7 4 8 5 10 9")).steps == "UUDUUDDDUD"

    def test_smallest_cases(self):
        assert dyck_to_perm(DyckPath("UD")).values == (2, 1)
        assert dyck_to_perm(DyckPath("UUDD")).values == (3, 1, 4, 2)
        assert dyck_to_perm(DyckPath("UDUD")).values == (2, 1, 4, 3)

    def test_roundtrip_and_image(self):
        for d in range(1, 6):
            words = dyck_words(d)
            assert len(words) == CATALAN[d]
            image = set()
            for word in words:
                p = dyck_to_perm(DyckPath(word))
                assert perm_to_dyck(p).steps == word
                assert is_minimal(p, d).is_minimal
                image.add(p.values)
            assert image == {p.values for p in enumerate_basis(d, 2 * d).members}

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            perm_to_dyck(identity(4))
        with pytest.raises(ValueError):
            perm_to_dyck(Permutation((3, 2, 1)))


class TestEcoTree:
    def test_root(self):
        root = eco_root()
        assert root.perm.values == (2, 1)
        assert root.label == 2

    def test_label_rule(self):
        # label = number of possible insertion slots = 2d - last value + 1
        assert EcoNode(Permutation((2, 1, 4, 3))).label == 2
        assert EcoNode(Permutation((3, 1, 4, 2))).label == 3
        assert EcoNode(Permutation((4, 1, 5, 2, 6, 3))).label == 4

    def test_children_worked_examples(self):
        kids = [k.perm.values for k in eco_children(eco_root())]
        assert kids == [(2, 1, 4, 3), (3, 1, 4, 2)]
        kids = [k.perm.values for k in eco_children(EcoNode(Permutation((3, 1, 4, 2))))]
        assert kids == [
            (3, 1, 4, 2, 6, 5), (3, 1, 5, 2, 6, 4), (4, 1, 5, 2, 6, 3),
        ]
        kids = [str(k.perm) for k in eco_children(EcoNode(Permutation((4, 1, 5, 2, 6, 3))))]
        assert kids == [
            "4 1 5 2 6 3 8 7", "4 1 5 2 7 3 8 6", "4 1 6 2 7 3 8 5", "5 1 6 2 7 3 8 4",
        ]

    def test_first_four_levels_verbatim(self):
        levels = generating_tree(4)
        assert [[str(n.perm) for n in level] for level in levels] == [
            ["2 1"],
            ["2 1 4 3", "3 1 4 2"],
            ["2 1 4 3 6 5", "2 1 5 3 6 4", "3 1 4 2 6 5", "3 1 5 2 6 4", "4 1 5 2 6 3"],
            [
                "2 1 4 3 6 5 8 7", "2 1 4 3 7 5 8 6",
                "2 1 5 3 6 4 8 7", "2 1 5 3 7 4 8 6", "2 1 6 3 7 4 8 5",
                "3 1 4 2 6 5 8 7", "3 1 4 2 7 5 8 6",
                "3 1 5 2 6 4 8 7", "3 1 5 2 7 4 8 6", "3 1 6 2 7 4 8 5",
                "4 1 5 2 6 3 8 7", "4 1 5 2 7 3 8 6", "4 1 6 2 7 3 8 5", "5 1 6 2 7 3 8 4",
            ],
        ]

    def test_levels_are_catalan_and_match_enumeration(self):
        levels = generating_tree(6)
        for t, level in enumerate(levels, start=1):
            assert len(level) == CATALAN[t]
            assert sorted(n.perm.values for n in level) == sorted(
                p.values for p in enumerate_basis(t, 2 * t).members
            )

    def test_child_labels_run_from_2_to_label_plus_1(self):
        for level in generating_tree(5):
            for node in level:
                kids = eco_children(node)
                assert [k.label for k in kids] == list(range(2, node.label + 2))
                for kid in kids:
                    assert is_minimal(kid.perm, kid.perm.n // 2).is_minimal

    def test_children_shift_values_past_the_new_one(self):
        # The rule spelled out: values >= i move up by one, then 2d+2 and i
        # close the new step, for i from 2d+1 down to 2d+2-label.
        for level in generating_tree(8):
            for node in level:
                v = node.perm.values
                two_d = len(v)
                want = [
                    tuple(x + 1 if x >= i else x for x in v) + (two_d + 2, i)
                    for i in range(two_d + 1, two_d + 1 - node.label, -1)
                ]
                assert [kid.perm.values for kid in eco_children(node)] == want

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            generating_tree(0)

    def test_label_multisets_match_rule_expansion(self):
        levels = generating_tree(6)
        by_walk = [sorted(n.label for n in level) for level in levels]
        assert by_walk == rule_label_multisets(6)
        assert by_walk[2] == [2, 2, 3, 3, 4]

    def test_rejects_non_minimal_node(self):
        with pytest.raises(ValueError):
            EcoNode(identity(4))
        with pytest.raises(ValueError):
            EcoNode(Permutation((3, 2, 1, 5, 4)))  # odd size, not 2d-shaped


class TestNonIntervalSubsets:
    def test_d3_exact(self):
        got = [sorted(s.elements) for s in non_interval_subsets(3)]
        assert got == [[1, 3], [1, 4], [2, 4], [1, 2, 4], [1, 3, 4]]

    def test_counts_match_formula(self):
        for d in range(1, 13):
            formula = 2 ** (d + 1) - (d + 1) * (d + 2) // 2 - 1
            subsets = list(non_interval_subsets(d))
            assert len(subsets) == formula == count_non_interval_subsets(d)
            assert len({frozenset(s.elements) for s in subsets}) == len(subsets)

    def test_known_terms(self):
        assert [count_non_interval_subsets(d) for d in range(1, 13)] == [
            0, 1, 5, 16, 42, 99, 219, 466, 968, 1981, 4017, 8100,
        ]

    def test_validation(self):
        NonIntervalSubset(3, frozenset({1, 3}))
        with pytest.raises(ValueError, match="d must be at least 1"):
            next(non_interval_subsets(0))
        with pytest.raises(ValueError, match="d must be at least 1"):
            count_non_interval_subsets(0)
        with pytest.raises(ValueError, match="d must be at least 1"):
            NonIntervalSubset(0, frozenset({1, 3}))
        with pytest.raises(ValueError):
            NonIntervalSubset(3, frozenset({2, 3}))  # an interval
        with pytest.raises(ValueError):
            NonIntervalSubset(3, frozenset())
        with pytest.raises(ValueError):
            NonIntervalSubset(3, frozenset({1, 5}))  # 5 outside {1..4}

    def test_complement(self):
        s = NonIntervalSubset(5, frozenset({1, 2, 5}))
        assert sorted(s.complement) == [3, 4, 6]


class TestPhi1:
    def test_worked_example(self):
        s = NonIntervalSubset(7, frozenset({3, 4, 5, 8}))
        assert str(phi1(s)) == "8 5 4 3 9 7 6 2 1"

    def test_smallest(self):
        assert phi1(NonIntervalSubset(2, frozenset({1, 3}))).values == (3, 1, 4, 2)

    def test_image_is_minimal_with_top_at_ascent(self):
        for d in range(2, 7):
            for s in non_interval_subsets(d):
                p = phi1(s)
                assert is_minimal(p, d).is_minimal
                assert p.n == d + 2
                # the ascent is immediately followed by the largest value
                ascent = next(i for i in range(1, p.n) if p.values[i - 1] < p.values[i])
                assert p.values[ascent] == d + 2

    def test_inverse_roundtrip(self):
        for d in range(2, 8):
            for s in non_interval_subsets(d):
                assert phi1_inverse(phi1(s)).elements == s.elements

    def test_inverse_rejects_other_family(self):
        # a permutation whose ascent is not topped by the largest value
        other, _ = phi2(NonIntervalSubset(5, frozenset({1, 2, 5})))
        with pytest.raises(ValueError):
            phi1_inverse(other)


class TestPhi2:
    # worked rows for d=5: wholes, image, type
    ROWS = [
        ({3}, "3 2 7 6 5 4 1", "A"),
        ({2, 3, 4}, "7 4 3 2 6 5 1", "E"),
        ({2, 5}, "7 5 2 6 4 3 1", "E"),
        ({3, 4, 6}, "7 6 2 1 5 4 3", "D"),
        ({2, 6}, "3 2 1 7 6 5 4", "C"),
        ({3, 6}, "4 3 2 7 6 5 1", "C"),
        ({4, 6}, "5 4 3 7 6 2 1", "B"),
    ]

    @pytest.mark.parametrize("wholes,image,type_tag", ROWS)
    def test_worked_rows(self, wholes, image, type_tag):
        s = NonIntervalSubset(5, frozenset(set(range(1, 7)) - wholes))
        p, cls = phi2(s)
        assert str(p) == image
        assert cls.type_tag == type_tag
        assert phi2_inverse(p).elements == s.elements

    def test_classification_is_consistent(self):
        # phi2 names each branch's type itself; classify_s2 reads it back
        # off the member.
        for d in range(2, 11):
            for s in non_interval_subsets(d):
                p, cls = phi2(s)
                assert is_minimal(p, d).is_minimal
                again = classify_s2(p)
                assert again.type_tag == cls.type_tag
                assert again == cls

    def test_classify_rejects_phi1_family(self):
        p = phi1(NonIntervalSubset(3, frozenset({1, 3})))
        with pytest.raises(ValueError):
            classify_s2(p)
        with pytest.raises(ValueError):
            phi2_inverse(p)

    def test_classify_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            classify_s2(identity(4))

    def test_inverse_roundtrip(self):
        for d in range(2, 8):
            for s in non_interval_subsets(d):
                assert phi2_inverse(phi2(s)[0]).elements == s.elements


class TestPartition:
    def test_images_partition_the_slice(self):
        for d in range(2, 8):
            subsets = list(non_interval_subsets(d))
            image1 = {phi1(s).values for s in subsets}
            image2 = {phi2(s)[0].values for s in subsets}
            assert len(image1) == len(subsets)
            assert len(image2) == len(subsets)
            assert not (image1 & image2)
            slice_values = {p.values for p in enumerate_basis(d, d + 2).members}
            assert image1 | image2 == slice_values

    def test_every_slice_member_classifies_one_way(self):
        for d in range(2, 7):
            for p in enumerate_basis(d, d + 2).members:
                try:
                    phi1_inverse(p)
                    in_first = True
                except ValueError:
                    in_first = False
                if in_first:
                    with pytest.raises(ValueError):
                        classify_s2(p)
                else:
                    assert classify_s2(p).type_tag in "ABCDE"


def refusal(f, p):
    try:
        f(p)
    except ValueError as exc:
        return str(exc)
    return None


class TestInputChecks:
    def test_every_small_permutation_refused_by_camp(self):
        # A size-(d+2) minimal member (by the removal oracle) lies in exactly
        # one camp, and the maps of the other camp refuse it: phi1_inverse
        # because n does not top the ascent, or because the values before n
        # form an interval.  Every other permutation is refused by all three.
        for n in range(1, 8):
            d = n - 2
            subsets = list(non_interval_subsets(d)) if d >= 1 else []
            camp1 = {phi1(s).values for s in subsets}
            camp2 = {phi2(s)[0].values for s in subsets}
            for p in all_permutations(n):
                not_member = f"{p} is not a size-(d+2) minimal permutation"
                first_camp = f"{p} belongs to the first camp, not the second"
                if p.values in camp1:
                    expected = (None, first_camp, first_camp)
                elif p.values in camp2:
                    top = p.values.index(n)
                    if top == 0:
                        expected = (f"{p} does not carry {n} on top of its ascent", None, None)
                    else:
                        expected = (f"{sorted(p.values[:top])} is an interval", None, None)
                else:
                    assert d < 1 or not is_minimal_oracle(p, d)
                    expected = (not_member,) * 3
                assert tuple(refusal(f, p) for f in (phi1_inverse, classify_s2, phi2_inverse)) == expected

    @pytest.mark.parametrize("check", [perm_to_dyck, EcoNode])
    @pytest.mark.parametrize(
        "text, message",
        [("2 1 3", "ladder members have even size"), ("1 2 3 4", "1 2 3 4 is not minimal with 2 descents")],
    )
    def test_size_2d_checks_share_their_texts(self, check, text, message):
        assert refusal(check, parse_permutation(text)) == message

    def test_one_minimality_scan_per_input(self, monkeypatch):
        scanned = []

        def counted(p, d):
            scanned.append(p)
            return is_minimal(p, d)

        def invert(p):
            return main(["bijection", "phi2", "--invert", str(p)])

        monkeypatch.setattr(bijections, "is_minimal", counted)
        for d in range(2, 6):
            for s in non_interval_subsets(d):
                members = phi1(s), phi2(s)[0]
                assert scanned == []
                for f in (phi1_inverse, classify_s2, phi2_inverse, invert):
                    for p in members:
                        refusal(f, p)
                        assert scanned == [p]
                        scanned.clear()
