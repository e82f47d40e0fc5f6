"""Rigid commutator calculus in the Sylow 2-subgroup of Sym(2^n).

The group of automorphisms of the full binary tree of depth n acts on
{1, ..., 2^n}; its rigid commutators (left-normed commutators of the
standard generators along strictly decreasing index sequences) are in
bijection with subsets of {1, ..., n} and multiply by a closed-form rule
on those subsets.  This package implements that calculus together with
the structures it makes cheap: an independent permutation oracle,
saturated generating sets and their normalizers, the normalizer chain
starting from the translation subgroup, unique factorization of group
elements, and the distinct-part partition counts that predict the chain
indices.
"""

from .rigid import (
    MAX_RANK,
    PuncturedForm,
    RigidCommutator,
    commutator,
    commutator_mask,
    evaluate_expression,
    format_commutator,
    format_punctured,
    from_punctured,
    order_key,
    parse_commutator,
    punctured_commutator,
    reduce_left_normed,
    to_punctured,
)
from .permutations import (
    LevelFlipPattern,
    ScaleGuardError,
    TreePermutation,
    brute_normalizer_in_sym,
    compose,
    elementary_abelian_order,
    expand,
    flip_pattern_permutation,
    generate_group,
    generator,
    identity,
    inverse,
    level_flip_pattern,
    perm_commutator,
    perm_from_json,
    perm_to_json,
    translation_checks,
)
from .saturated import (
    Factorization,
    SaturatedSet,
    factorize,
    full_rigid_set,
    members_from_json,
    normal_closure,
    normalizer_in,
    normalizing_step,
    saturate,
)
from .chain import (
    ChainReport,
    ChainStep,
    run_chain,
    translation_normalizer_set,
    translation_set,
    verify_theoretical,
)
from .partitions import (
    PartitionTable,
    distinct_partitions,
    euler_table,
    predicted_chain_set,
    punctured_family,
)

__version__ = "0.1.0"
