"""Whole-genome duplication-loss rearrangement on permutations.

The package models genomes as permutations evolving by tandem duplication
of the whole genome followed by random loss of one copy of each marker.
It computes step costs from descent statistics, characterizes and counts
the minimal permutations with d descents (the avoidance basis of the
permutations reachable in a given number of steps), represents their
shapes as posets, and carries the bijections tying the extreme slices to
Dyck paths and to non-interval subsets.
"""

from .bijections import (
    DyckPath,
    EcoNode,
    NonIntervalSubset,
    S2Classification,
    classify_s2,
    count_non_interval_subsets,
    dyck_to_perm,
    eco_children,
    eco_root,
    generating_tree,
    non_interval_subsets,
    perm_to_dyck,
    phi1,
    phi1_inverse,
    phi2,
    phi2_inverse,
)
from .duploss import (
    DuplicationStep,
    Scenario,
    SplitMix64,
    apply_step,
    min_steps,
    random_evolution,
    reachable_within,
    replay,
    scenario_from_json,
    scenario_to_json,
    synthesize_scenario,
)
from .minimal import (
    BasisSlice,
    MinimalityReport,
    count_basis,
    count_by_diamond_type,
    count_table,
    enumerate_basis,
    enumerate_basis_brute,
    is_minimal,
    is_minimal_oracle,
    slice_to_text,
)
from .patterns import (
    Occurrence,
    PatternBasis,
    avoids_basis,
    involves,
    load_basis,
    occurrences,
    parse_basis,
)
from .perm import (
    DescentSet,
    Permutation,
    RunDecomposition,
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
from .posets import (
    DescentComposition,
    DiamondPoset,
    authorized_labellings,
    build_poset,
    compositions,
    count_labellings,
    ladder,
    poset_edges,
)

__version__ = "0.1.0"
