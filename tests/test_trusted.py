"""Every site that wraps words without the checks of the public constructors.

``Permutation._trusted`` skips the range and duplicate loop (the library
built the word, or ``standardize`` checked it in one pass),
``eco_children`` skips the minimality check of ``EcoNode``, and
``build_poset`` skips the range and cycle checks of ``DiamondPoset``.  Each
test here rebuilds a sample of one site's outputs through the public,
checking constructors and requires an equal object, so a site that ever
produced a non-permutation (or a non-minimal tree node, or a cyclic poset)
fails here rather than later.
"""

import itertools

import pytest

from permdl import (
    DiamondPoset,
    DuplicationStep,
    DyckPath,
    EcoNode,
    Permutation,
    all_permutations,
    apply_step,
    authorized_labellings,
    build_poset,
    compositions,
    dyck_to_perm,
    enumerate_basis,
    generating_tree,
    identity,
    ladder,
    non_interval_subsets,
    parse_permutation,
    phi1,
    phi2,
    random_evolution,
    remove_element,
    standardize,
    synthesize_scenario,
)

from helpers import dyck_words


def rebuilt(p: Permutation) -> Permutation:
    q = Permutation(p.values)
    assert q == p and hash(q) == hash(p) and type(p.values) is tuple
    return q


def test_public_constructors_still_check():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        EcoNode(Permutation((1, 2)))


def test_identity():
    for n in (1, 2, 3, 10, 1000):
        assert rebuilt(identity(n)).values == tuple(range(1, n + 1))


def test_all_permutations():
    for n in range(1, 7):
        for p in all_permutations(n):
            rebuilt(p)


def test_standardize():
    for word in ((42,), (1, 5, 6, 3), (-3, 10, 0, 7, 2), tuple(range(500, 0, -3))):
        rebuilt(standardize(word))
    for p in all_permutations(5):
        for kept in itertools.combinations(p.values, 3):
            rebuilt(standardize(kept))


def test_remove_element():
    for n in range(2, 7):
        for p in all_permutations(n):
            for i in range(1, n + 1):
                rebuilt(remove_element(p, i))


def test_parse_permutation():
    texts = [str(p) for n in range(1, 6) for p in all_permutations(n)]
    texts += ["2,1", " 3 , 1 2 ", str(random_evolution(2000, 5, 4).end)]
    for text in texts:
        rebuilt(parse_permutation(text))


def test_enumerate_basis_members():
    for d in range(1, 6):
        for n in range(d + 1, 2 * d + 1):
            for p in enumerate_basis(d, n).members:
                rebuilt(p)


def test_authorized_labellings():
    for d in range(1, 6):
        for n in range(d + 1, 2 * d + 1):
            for c in compositions(d, n):
                for p in authorized_labellings(build_poset(c)):
                    rebuilt(p)


def test_build_poset_and_ladder():
    posets = [ladder(d) for d in range(1, 51)]
    for d in range(1, 9):
        posets += [build_poset(c) for n in range(d + 1, 2 * d + 1) for c in compositions(d, n)]
    for p in posets:
        q = DiamondPoset(p.size, p.covers)
        assert q == p and hash(q) == hash(p) and type(p.covers) is frozenset


def test_apply_step():
    for p in itertools.chain.from_iterable(all_permutations(n) for n in range(1, 6)):
        for r in range(p.n + 1):
            for kept in itertools.combinations(p.values, r):
                rebuilt(apply_step(p, DuplicationStep(frozenset(kept))))


def test_synthesize_scenario_merged_words(monkeypatch):
    # The synthesis merges run lists and wraps no merged word, so the spy
    # sees only the word of ``identity``, the scenario's start; were a
    # merged word ever wrapped again, it would be caught here.
    made = []
    original = Permutation._trusted.__func__

    def spy(cls, values):
        p = original(cls, values)
        made.append(p)
        return p

    monkeypatch.setattr(Permutation, "_trusted", classmethod(spy))
    targets = list(all_permutations(6))
    targets += [random_evolution(n, 4, seed).end for n in (50, 400) for seed in range(5)]
    for target in targets:
        synthesize_scenario(target)
    assert made
    for p in made:
        rebuilt(p)


def test_dyck_to_perm():
    for d in range(1, 8):
        for word in dyck_words(d):
            rebuilt(dyck_to_perm(DyckPath(word)))


def test_phi1_and_phi2():
    for d in range(1, 9):
        for s in non_interval_subsets(d):
            rebuilt(phi1(s))
            rebuilt(phi2(s)[0])


def test_eco_children_to_depth_9():
    for level in generating_tree(9):
        for node in level:
            assert EcoNode(rebuilt(node.perm)) == node
