"""Partition counts, the punctured families, and the closed-form chain terms."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidcomm import (
    RigidCommutator,
    SaturatedSet,
    ScaleGuardError,
    distinct_partitions,
    euler_table,
    predicted_chain_set,
    punctured_commutator,
    punctured_family,
    run_chain,
    translation_normalizer_set,
)
from rigidcomm import _kernel, partitions
from rigidcomm.partitions import PARTITION_MAX_TOTAL

# partitions of j into at least two distinct parts, and their partial
# sums, indexed by j = 0..14
B_COUNTS = (0, 0, 0, 1, 1, 2, 3, 4, 5, 7, 9, 11, 14, 17, 21)
A_SUMS = (0, 0, 0, 1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95)


def test_distinct_partitions_small():
    assert distinct_partitions(5) == [(4, 1), (3, 2)]
    assert distinct_partitions(6) == [(5, 1), (4, 2), (3, 2, 1)]
    assert distinct_partitions(1) == []
    assert distinct_partitions(2) == []
    assert distinct_partitions(3) == [(2, 1)]
    assert distinct_partitions(0) == []


def test_distinct_partitions_max_part():
    assert distinct_partitions(6, max_part=4) == [(4, 2), (3, 2, 1)]
    assert distinct_partitions(6, max_part=2) == []
    assert distinct_partitions(3, max_part=2) == [(2, 1)]


def test_distinct_partitions_min_parts():
    assert distinct_partitions(4, min_parts=1) == [(4,), (3, 1)]
    assert distinct_partitions(4, min_parts=3) == []
    assert distinct_partitions(6, min_parts=3) == [(3, 2, 1)]


@given(st.integers(0, 40))
@settings(max_examples=40)
def test_partitions_are_distinct_descending_and_sum(j):
    for parts in distinct_partitions(j):
        assert sum(parts) == j
        assert len(parts) >= 2
        assert all(a > b for a, b in zip(parts, parts[1:]))


def test_partition_scale_guard():
    # the cap is checked before any partition is enumerated
    with pytest.raises(ScaleGuardError):
        distinct_partitions(PARTITION_MAX_TOTAL + 1)
    with pytest.raises(ScaleGuardError):
        euler_table(PARTITION_MAX_TOTAL + 1)
    assert distinct_partitions(PARTITION_MAX_TOTAL, min_parts=1, max_part=1) == []


def test_partition_arguments_must_be_integers(monkeypatch):
    # a bool is no count and a float no total; both are refused before any work
    monkeypatch.setattr(partitions, "_distinct_desc", lambda *a: pytest.fail("enumerated"))
    for args in ((True,), (3.5,), (3.0,), (-1,), ("3",)):
        with pytest.raises(ValueError, match="total must be an integer"):
            distinct_partitions(*args)
    for kwargs in ({"min_parts": True}, {"min_parts": 1.0}, {"max_part": True}, {"max_part": 2.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            distinct_partitions(3, **kwargs)
    for args in ((True, 3, 4), (4.0, 3, 4), (4, True, 4), (4, 3.0, 4), (4, 3, True), (4, 3, 4.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            punctured_family(*args)
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="max_total must be an integer"):
            euler_table(bad)
    monkeypatch.undo()
    assert punctured_family(4, 3, 4) == {RigidCommutator.from_elements([4, 3], 4)}


def test_euler_table_values():
    table = euler_table(14)
    assert table.b == B_COUNTS
    assert table.a == A_SUMS
    assert euler_table(3).b == (0, 0, 0, 1)
    assert euler_table(0) == euler_table(0)
    assert euler_table(0).b == (0,)
    with pytest.raises(ValueError):
        euler_table(-1)


def test_partial_sums_consistent():
    table = euler_table(20)
    running = 0
    for b_j, a_j in zip(table.b, table.a):
        running += b_j
        assert a_j == running


def test_punctured_family_small():
    f = punctured_family(6, 3, 6)
    assert f == {punctured_commutator(6, {2, 1}, 6)}
    f5 = punctured_family(6, 5, 6)
    assert f5 == {
        punctured_commutator(6, {4, 1}, 6),
        punctured_commutator(6, {3, 2}, 6),
    }
    assert punctured_family(6, 2, 6) == frozenset()


def test_punctured_family_excludes_base():
    # puncture sums needing a part >= base are unreachable
    assert punctured_family(3, 5, 6) == frozenset()
    f = punctured_family(4, 5, 6)
    assert f == {punctured_commutator(4, {3, 2}, 6)}


def test_punctured_family_sizes_follow_counts():
    table = euler_table(12)
    n = 14
    for j in range(3, 13):
        # base large enough that no partition is clipped by max_part
        assert len(punctured_family(n, j, n)) == table.b[j]


def test_predicted_step_zero_is_baseline():
    for n in (3, 4, 5, 6, 8):
        assert predicted_chain_set(n, 0) == translation_normalizer_set(n)


def test_predicted_rank3_step_one_adds_bare_top():
    got = predicted_chain_set(3, 1)
    added = got.masks - predicted_chain_set(3, 0).masks
    assert {RigidCommutator(m, 3).elements for m in added} == {(3,)}


def test_predicted_matches_computed_chain():
    # building each prediction runs its closure check, which is how the
    # closed form's closure is checked at ranks 9..16
    for n in range(3, 17):
        report = run_chain(n) if n <= 8 else run_chain(n, n - 2)
        for i in range(0, n - 1):
            predicted = predicted_chain_set(n, i)
            assert predicted.masks == report.member_masks_at(i), (n, i)


def _submask_chain_set(n: int, i: int) -> frozenset[int]:
    """The membership rule read literally, over every puncture set J in {1..b-1}."""
    members = set()
    for b in range(1, n + 1):
        full = (1 << b) - 1
        for j_mask in range(1 << (b - 1)):
            holes = bin(j_mask).count("1")
            total = sum(k for k in range(1, b) if (j_mask >> (k - 1)) & 1)
            if holes <= 1 or total <= i + 2 - (n - b):
                members.add(full & ~j_mask)
    return frozenset(members)


def _recursive_chain_set(n: int, i: int) -> frozenset[int]:
    """The baseline plus the family each step s = 1..i adds, accumulated."""
    masks = set(translation_normalizer_set(n).masks)
    for s in range(1, i + 1):
        for j in range(1, s + 1):
            masks.update(c.mask for c in punctured_family(n + j - s, j + 2, n))
    return frozenset(masks)


def test_predicted_methods_agree():
    for n in range(3, 13):
        first = {}  # each mask's first term under the literal rule
        for i in range(0, n - 1):
            got = predicted_chain_set(n, i).masks
            literal = _submask_chain_set(n, i)
            assert got == literal, (n, i)
            assert got == _recursive_chain_set(n, i), (n, i)
            for m in literal:
                first.setdefault(m, i)
        # the closed form's join steps; the translations' -1 reads as step 0
        masks, steps = partitions._predicted_joins(n, n - 2)
        assert {m: max(step, 0) for m, step in zip(masks.tolist(), steps.tolist())} == first, n


def _reference_joins(n: int, last: int) -> dict[int, int]:
    """Each member of closed-form term ``last`` mapped to its join step, member by member."""
    joins = {}
    for b in range(1, n + 1):
        full = (1 << b) - 1
        joins[full] = -1
        for j in range(1, b):
            joins[full & ~(1 << (j - 1))] = 0
        for total in range(3, last + 3 - (n - b)):
            for parts in distinct_partitions(total, max_part=b - 1):
                joins[full & ~sum(1 << (k - 1) for k in parts)] = total - 2 + n - b
    return joins


def _sorted_joins(n: int, last: int) -> list[tuple[int, int]]:
    """The closed form's (mask, step) pairs as Python ints, sorted."""
    return sorted(zip(*(a.tolist() for a in partitions._predicted_joins(n, last))))


def test_predicted_joins_are_the_member_by_member_enumeration():
    for n in range(1, 25):
        for last in range(-1, n - 1):
            masks, steps = partitions._predicted_joins(n, last)
            assert masks.dtype == steps.dtype == np.int64 and not masks.flags.writeable
            assert masks.all() and np.unique(masks).size == masks.size, (n, last)
            assert _sorted_joins(n, last) == sorted(_reference_joins(n, last).items()), (n, last)


def test_hole_masks_list_each_partition_once_ascending():
    for total in range(PARTITION_MAX_TOTAL + 1):
        holes = partitions._hole_masks(total)
        assert not holes.flags.writeable and (np.diff(holes) > 0).all(), total
        assert holes.tolist() == sorted(sum(1 << (k - 1) for k in p) for p in distinct_partitions(total))


def test_a_max_part_or_a_base_adds_no_partition_cache_key():
    euler_table(PARTITION_MAX_TOTAL)
    keys = partitions._distinct_desc.cache_info().currsize
    for c in range(PARTITION_MAX_TOTAL + 1):
        distinct_partitions(PARTITION_MAX_TOTAL, max_part=c)
    for b in range(1, 64):
        family = punctured_family(b, PARTITION_MAX_TOTAL, 63)
        assert len(family) == len(distinct_partitions(PARTITION_MAX_TOTAL, max_part=b - 1)), b
    assert partitions._distinct_desc.cache_info().currsize == keys


# sha256 of the repr of the sorted (mask, step) pairs of _predicted_joins(n, n - 2),
# recorded from the enumeration that went through the checked distinct_partitions
PREDICTED_JOINS_SHA256 = {
    20: "32eac6f36955a23c31ac230b8e05138c184d7ca2e89e9602790fefea49079d09",
    24: "971f88ab25f6d8ba241b0c3b12f6b5a20e2acb484493aaab26a23d34a6e33618",
    30: "f07d13532200e8fefbc535c5813e5082cefe049506e5df410ed6de4f64f9d986",
    40: "480ac3705eefcb96e2e3376cb20ed6fb208d7934d555f1b8815fd3f6c9dcac54",
}


@pytest.mark.parametrize("n", sorted(PREDICTED_JOINS_SHA256))
def test_predicted_joins_frozen(n):
    joins = _sorted_joins(n, n - 2)
    assert hashlib.sha256(repr(joins).encode()).hexdigest() == PREDICTED_JOINS_SHA256[n]


def test_predicted_sets_are_saturated():
    # the constructor re-verifies closure, so rebuilding one is the check
    s = predicted_chain_set(9, 5)
    assert SaturatedSet(9, s.masks) == s and s.contains_translations


def test_predicted_set_stops_at_the_member_cap(monkeypatch):
    # term n-2 has 15148 members at rank 31 and 17912 at rank 32, past 2^14 - 1
    assert len(predicted_chain_set(31, 29)) == 15148
    monkeypatch.setattr(_kernel, "_pair_products", lambda *args, **kw: pytest.fail("product made"))
    with pytest.raises(ScaleGuardError, match="saturated set of size 17912 exceeds the cap 16383"):
        predicted_chain_set(32, 30)


def test_predicted_rejects_out_of_range():
    with pytest.raises(ValueError):
        predicted_chain_set(6, 5)
    with pytest.raises(ValueError):
        predicted_chain_set(6, -1)
    for step in (True, 1.5, "1"):
        with pytest.raises(ValueError, match="step must be an integer"):
            predicted_chain_set(4, step)
    with pytest.raises(ValueError, match="rank"):
        predicted_chain_set(4.0, 1)


def test_predicted_growth_is_euler_counts():
    table = euler_table(16)
    for n in (5, 6, 7, 9):
        prev = predicted_chain_set(n, 0)
        for i in range(1, n - 1):
            cur = predicted_chain_set(n, i)
            assert cur.log2_order - prev.log2_order == table.a[i + 2], (n, i)
            prev = cur
