"""Saturated sets, normalizer steps, closures, and unique factorization.

Derived expectations are recomputed on the permutation oracle inside the
tests where that is cheap, so the two layers certify each other.
"""

import functools
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidcomm import (
    Factorization,
    LevelFlipPattern,
    RigidCommutator,
    SaturatedSet,
    TreePermutation,
    compose,
    elementary_abelian_order,
    expand,
    factorize,
    flip_pattern_permutation,
    full_rigid_set,
    generate_group,
    generator,
    identity,
    level_flip_pattern,
    members_from_json,
    normal_closure,
    normalizer_in,
    normalizing_step,
    run_chain,
    saturate,
    translation_normalizer_set,
    translation_set,
)
from rigidcomm import _kernel, saturated
from rigidcomm.permutations import ScaleGuardError
from rigidcomm.rigid import MAX_RANK, commutator_mask

C = RigidCommutator.from_elements


def _trusted(n, masks):
    """A set built unchecked from masks, as the engine's producers hand it a sorted int64 array."""
    return SaturatedSet._make(n, np.array(sorted(masks), dtype=np.int64))


# ── the type and its invariants ──────────────────────────────────────────────

def test_rejects_unclosed_set():
    # {[3,1],[2]} commutes into [3,2], which is missing
    with pytest.raises(ValueError):
        SaturatedSet(3, [C([3, 1], 3), C([2], 3)])


def test_identity_is_implicit():
    s = SaturatedSet(3, [RigidCommutator.identity(3), C([3], 3)])
    assert s.log2_order == 1
    assert RigidCommutator.identity(3) in s
    assert C([3], 3) in s
    assert C([2], 3) not in s


def test_members_sorted_canonically():
    s = translation_normalizer_set(3)
    assert [c.elements for c in s.members] == [
        (1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1),
    ]
    r = full_rigid_set(3)
    assert [c.elements for c in r.members] == [
        (1,), (2,), (2, 1), (3,), (3, 1), (3, 2), (3, 2, 1),
    ]


def test_level_dims_counts_bases():
    assert translation_normalizer_set(6).level_dims() == (1, 2, 3, 4, 5, 6)
    assert full_rigid_set(4).level_dims() == (1, 2, 4, 8)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        SaturatedSet(3, [C([2], 4)])


def test_set_and_saturate_check_their_rank():
    # both read their members through one coercion, which checks the rank first
    for bad in (0, -1, 100, True, 2.5):
        with pytest.raises(ValueError):
            SaturatedSet(bad, [])
        with pytest.raises(ValueError):
            saturate([], bad)
    with pytest.raises(ValueError):
        SaturatedSet(MAX_RANK + 1, [1 << MAX_RANK])  # not an OverflowError from numpy


def test_set_and_saturate_refuse_bool_members():
    # True is an int to Python, but not a mask: it must not become member 1
    for make in (lambda ms: SaturatedSet(3, ms), lambda ms: saturate(ms, 3)):
        for bad in ([True], [1, False], [C([2], 3), True]):
            with pytest.raises(TypeError, match="members must be"):
                make(bad)
    s = SaturatedSet(3, [1])
    assert s.masks == {1}
    # nor may a lookup take True for member 1
    assert True not in s and False not in s
    assert 1 in s and 0 in s and C([1], 3) in s
    assert C([1], 4) not in s and 2 not in s and 1.0 not in s


def test_full_set_properties():
    r = full_rigid_set(5)
    assert r.log2_order == 31
    assert r.contains_translations
    assert SaturatedSet(5, r.masks) == r


def test_full_rigid_set_checks_rank_before_building(monkeypatch):
    for bad in (0, True, -1, 64):
        with pytest.raises(ValueError):
            full_rigid_set(bad)
    # 2^15 - 1 members would pass the SaturatedSet member cap; refused before the masks are built
    tracemalloc.start()
    try:
        with pytest.raises(ScaleGuardError):
            full_rigid_set(saturated.CLOSURE_MAX_RANK + 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 4)
    monkeypatch.setattr(saturated.SaturatedSet, "_make", lambda *a: pytest.fail("set built"))
    with pytest.raises(ScaleGuardError):
        full_rigid_set(5)


# ── saturate ─────────────────────────────────────────────────────────────────

def test_saturate_example():
    got = saturate([C([3, 1], 3), C([2], 3)])
    assert {c.elements for c in got} == {(3, 1), (2,), (3, 2)}
    assert SaturatedSet(3, got.masks) == got


def test_saturate_of_saturated_is_identity_map():
    u = translation_normalizer_set(5)
    assert saturate(u.members, 5) == u


def test_saturate_empty_needs_rank():
    assert saturate([], 3).log2_order == 0
    with pytest.raises(ValueError):
        saturate([])
    # an int mask carries no rank, also as the first item of a mixed seed
    for seed in ([3], [True], [3, C([2], 3)]):
        with pytest.raises(ValueError, match="pass n"):
            saturate(seed)


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_saturate_is_closed_and_idempotent(n, data):
    seeds = data.draw(
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5)
    )
    s = saturate([RigidCommutator(m, n) for m in seeds], n)
    assert SaturatedSet(n, s.masks) == s
    assert set(seeds) <= s.masks
    assert saturate(s.members, n) == s
    if s.log2_order <= 10:
        # small enough to span brute-force: member count is exact
        span = len(generate_group([expand(RigidCommutator(m, n)) for m in seeds]))
        assert span == 1 << s.log2_order


def _saturate_loop(seed, n):
    """Reference: the saturation by one scalar product per pair of members."""
    masks = {m for m in seed if m}
    frontier = list(masks)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(masks):
                # [x, y] = [y, x]: tests/test_rigid.py::test_antisymmetric_and_involutive
                c = commutator_mask(x, y)
                if c and c not in masks:
                    masks.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(masks)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_saturate_matches_reference_loop(n, data):
    # empty seeds and identity members included
    seed = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    got = saturate([RigidCommutator(m, n) for m in seed], n)
    assert got.masks == _saturate_loop(seed, n)


def test_saturate_blocks_and_early_merges(monkeypatch):
    # tiny blocks, and a cap of the rank's full set, checked on each block's finds,
    # in the numpy rounds alone
    monkeypatch.setattr(_kernel, "_SCALAR_MEMBERS", 0)
    rng = random.Random(7)
    cases = [(n, [rng.randrange(1, 1 << n) for _ in range(k)]) for n in (3, 5, 6) for k in (1, 2, 3, n)]
    cases.append((6, [1 << i for i in range(6)]))
    expected = [_saturate_loop(seed, n) for n, seed in cases]
    for block in (1, 7, 64):
        monkeypatch.setattr(_kernel, "_PAIR_BLOCK", block)
        got = []
        for n, seed in cases:
            monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", n)
            got.append(saturate([RigidCommutator(m, n) for m in seed], n).masks)
        assert got == expected


@pytest.mark.parametrize("n", range(3, 7))
def test_saturate_of_a_closed_seed_makes_the_closure_checks_products(n, monkeypatch):
    # the first numpy round meets each pair of seed members with a nonzero product
    # once, and finds nothing new
    monkeypatch.setattr(_kernel, "_SCALAR_MEMBERS", 0)
    counts = []
    pair_products = _kernel._pair_products

    def counting(*args, **kw):
        for lo, hi, block in pair_products(*args, **kw):
            counts[-1] += block.size
            yield lo, hi, block

    monkeypatch.setattr(_kernel, "_pair_products", counting)
    full = full_rigid_set(n)
    for build in (lambda: saturate(full.members, n), lambda: SaturatedSet(n, full.masks)):
        counts.append(0)
        assert build() == full
    pairs = itertools.combinations(range(1, 1 << n), 2)
    assert counts[0] == counts[1] == sum(1 for x, y in pairs if commutator_mask(x, y))


def test_saturate_scale_guard(monkeypatch):
    # the cap is on the member count: 2^CLOSURE_MAX_RANK - 1
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 2)
    assert len(saturate([C([3, 1], 3), C([2], 3)])) == 3
    with pytest.raises(ScaleGuardError):
        saturate([C([3], 3), C([2], 3), C([1], 3)])
    with pytest.raises(ScaleGuardError):
        saturate([C([3, 2, 1], 3), C([3, 2], 3), C([3, 1], 3), C([3], 3)])


@pytest.mark.parametrize("scalar_members", [0, 3, 1 << 15], ids=["numpy", "handoff", "ints"])
def test_each_closure_path_matches_the_reference_loop(scalar_members, monkeypatch):
    # 0 sends every nonempty seed to the numpy rounds, 2^15, past the member cap,
    # keeps every closure on ints, and 3 hands the ints' finds to the numpy rounds
    monkeypatch.setattr(_kernel, "_SCALAR_MEMBERS", scalar_members)
    unused = {0: "commutator_mask", 3: None}.get(scalar_members, "_pair_products")
    rng = random.Random(11)
    cases = [(n, [rng.randrange(1 << n) for _ in range(k)]) for n in (1, 3, 5, 8) for k in (0, 1, 2, 3, n)]
    cases += [(n, [1 << i for i in range(n)]) for n in (6, 8)]  # the whole group
    with monkeypatch.context() as only:
        if unused:  # the other path's kernel
            only.setattr(_kernel, unused, lambda *a, **kw: pytest.fail(f"{unused} called"))
        got = [saturate([RigidCommutator(m, n) for m in seed], n).masks for n, seed in cases]
    assert got == [_saturate_loop(seed, n) for n, seed in cases]
    test_saturate_example()
    test_saturate_of_saturated_is_identity_map()
    test_saturate_scale_guard(monkeypatch)


# ── order and dimension against the oracle ───────────────────────────────────

def test_log2_order_matches_brute_force_span():
    for n in (2, 3, 4):
        u = translation_normalizer_set(n)
        group = generate_group([expand(c) for c in u])
        assert len(group) == 1 << u.log2_order
    t = translation_set(3)
    assert elementary_abelian_order([expand(c) for c in t]) == 1 << t.log2_order


def test_level_blocks_are_elementary_abelian():
    # all members with one base span an elementary abelian block of that rank
    n = 4
    for b in range(1, n + 1):
        block = [RigidCommutator(m | (1 << (b - 1)), n) for m in range(1 << (b - 1))]
        assert elementary_abelian_order([expand(c) for c in block]) == 1 << len(block)


# ── normalizing step ─────────────────────────────────────────────────────────

def test_normalizing_step_grows_baseline_by_eta():
    u6 = translation_normalizer_set(6)
    n1 = normalizing_step(u6)
    assert n1.log2_order == u6.log2_order + 1
    added = n1.masks - u6.masks
    assert added == {C([6, 5, 4, 3], 6).mask}
    assert n1.contains_translations and SaturatedSet(6, n1.masks) == n1


def test_normalizing_step_second_growth():
    n = 6
    n1 = normalizing_step(translation_normalizer_set(n))
    n2 = normalizing_step(n1)
    added = {RigidCommutator(m, n).elements for m in n2.masks - n1.masks}
    assert added == {(5, 4, 3), (6, 5, 4, 2)}


def test_normalizing_step_fixpoint_on_full_set():
    r = full_rigid_set(4)
    assert normalizing_step(r) == r


def test_normalizing_step_monotone():
    m = translation_normalizer_set(5)
    stepped = normalizing_step(m)
    assert m.issubset(stepped)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.data())
def test_normalizing_step_returns_a_saturated_set(n, data):
    # a saturated start with the translations; its step passes the checked constructor
    picks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
    M = saturate([RigidCommutator(m, n) for m in (*translation_set(n).masks, *picks)], n)
    step = normalizing_step(M)
    assert SaturatedSet(n, step.masks) == step
    assert step.masks == _normalizer_in_loop(full_rigid_set(n), M)


def test_normalizing_step_without_translations_flags():
    # without the translations the scan is no normalizer, so it refuses
    n = 4
    g = SaturatedSet(n, [C([4, 3], n)])
    assert not g.contains_translations
    with pytest.raises(ValueError, match="t_1..t_n"):
        normalizing_step(g)


def test_normalizing_step_agrees_with_permutation_normalizer():
    # independent cross-check entirely at the permutation level, rank 3
    from rigidcomm import brute_normalizer_in_sym

    current = translation_normalizer_set(3)
    while True:
        elements = generate_group([expand(c) for c in current])
        brute = brute_normalizer_in_sym(elements, 3)
        stepped = normalizing_step(current)
        spanned = generate_group([expand(c) for c in stepped])
        assert spanned == brute
        if stepped == current:
            break
        current = stepped
        if current.log2_order == 7:
            # full group: one more lap confirms the fixpoint
            assert normalizing_step(current) == current
            break


def _tree_group_images(n):
    """Every element of the rank-n tree group as a row of 0-based images.

    An element flips letter i of a word exactly at the prefixes
    w1..w(i-1) its portrait marks, so row k takes its flips from the
    bits of k, level i at bits 2^(i-1) - 1 + prefix.  Built from that
    definition alone, with no mask calculus.
    """
    pts = np.arange(1 << n)
    portraits = np.arange(1 << ((1 << n) - 1))[:, None]
    img = np.broadcast_to(pts, (portraits.size, pts.size)).copy()
    for i in range(1, n + 1):
        prefix_bit = (1 << (i - 1)) - 1 + (pts >> (n - i + 1))
        img ^= ((portraits >> prefix_bit) & 1) << (n - i)
    return img


def _portraits(img, n):
    """The portrait of each row of tree-group images, the inverse of the row order above."""
    out = np.zeros(img.shape[:-1], dtype=np.int64)
    for i in range(1, n + 1):
        prefixes = np.arange(1 << (i - 1))
        # the word with that prefix and zeros below shows the flip at letter i
        flips = (img[..., prefixes << (n - i + 1)] >> (n - i)) & 1
        out |= (flips << ((1 << (i - 1)) - 1 + prefixes)).sum(axis=-1)
    return out


def _span(gens, tree, n):
    """Which portraits lie in the group the image rows ``gens`` generate."""
    inside = np.zeros(len(tree), dtype=bool)
    inside[0] = True  # the identity
    frontier = tree[:1]
    while frontier.size:
        # right action: p then g has images g[p]
        found = np.unique(_portraits(np.concatenate([g[frontier] for g in gens]), n))
        found = found[~inside[found]]
        inside[found] = True
        frontier = tree[found]
    return inside


def test_normalizing_step_agrees_with_tree_group_normalizer_at_rank_4():
    # the normalizer of each chain term inside the whole tree group, 2^15
    # elements, found by conjugating the term's generators by every element
    n = 4
    tree = _tree_group_images(n)
    assert (_portraits(tree, n) == np.arange(1 << 15)).all()
    inverse = np.argsort(tree, axis=1)
    report = run_chain(n)
    assert [s.log2_order for s in report.steps] == [10, 11, 13, 14, 15]
    for i in range(len(report.steps)):
        term = SaturatedSet(n, report.member_masks_at(i))
        gens = np.array([expand(c)._img for c in term])
        assert (tree[_portraits(gens, n)] == gens).all()  # the oracle's tree is this one
        span = _span(gens, tree, n)
        assert span.sum() == 1 << term.log2_order
        normalizes = np.ones(len(tree), dtype=bool)
        for h in gens:
            # g^-1 h g sends p to g[h[g^-1[p]]]
            conjugate = np.take_along_axis(tree, h[inverse], axis=1)
            normalizes &= span[_portraits(conjugate, n)]
        stepped = normalizing_step(term)
        assert normalizes.sum() == 1 << stepped.log2_order, i
        assert normalizes[_portraits(np.array([expand(c)._img for c in stepped]), n)].all()
        if i + 1 < len(report.steps):
            assert stepped.masks == report.member_masks_at(i + 1)


# ── normalizer_in and normal_closure ─────────────────────────────────────────

@pytest.mark.parametrize("call, name", [
    pytest.param(lambda bad, good: normalizing_step(bad), "M", id="step"),
    pytest.param(lambda bad, good: normalizer_in(bad, good), "B", id="normalizer_in-B"),
    pytest.param(lambda bad, good: normalizer_in(good, bad), "A", id="normalizer_in-A"),
    pytest.param(lambda bad, good: normal_closure(bad, good), "A", id="closure-A"),
    pytest.param(lambda bad, good: normal_closure(good, bad), "B", id="closure-B"),
])
def test_normalizer_functions_refuse_a_non_set(call, name):
    u = translation_normalizer_set(4)
    for bad in (sorted(u.masks), list(u), u.masks):
        with pytest.raises(TypeError, match=f"{name} must be a SaturatedSet"):
            call(bad, u)
    # before any work: a rank-15 set would trip the closure-rank guard
    with pytest.raises(TypeError, match=f"{name} must be a SaturatedSet"):
        call(list(translation_set(15)), translation_set(15))


def test_normalizer_in_requires_containment_and_translations():
    r = full_rigid_set(4)
    u = translation_normalizer_set(4)
    with pytest.raises(ValueError):
        normalizer_in(u, r)  # A not inside B
    g = SaturatedSet(4, [C([4, 3], 4)])
    with pytest.raises(ValueError):
        normalizer_in(r, g)  # A misses the translations


def test_normalizer_in_full_ambient_matches_step():
    n = 5
    u = translation_normalizer_set(n)
    assert normalizer_in(full_rigid_set(n), u) == normalizing_step(u)
    b = normalizing_step(u)
    assert normalizer_in(b, b) == b


def test_normalizer_in_smaller_ambient_restricts():
    n = 5
    u = translation_normalizer_set(n)
    b = normalizing_step(normalizing_step(u))
    inside = normalizer_in(b, u)
    assert inside.masks == normalizing_step(u).masks & b.masks


def test_normal_closure_of_central_member_is_itself():
    n = 5
    r = full_rigid_set(n)
    t_n = SaturatedSet(n, [RigidCommutator((1 << n) - 1, n)])
    assert normal_closure(t_n, r).masks == t_n.masks


def test_normal_closure_of_top_generator_is_its_level():
    n = 3
    r = full_rigid_set(n)
    seed = SaturatedSet(n, [C([3], n)])
    clo = normal_closure(seed, r)
    assert {RigidCommutator(m, n).elements for m in clo.masks} == {
        (3,), (3, 1), (3, 2), (3, 2, 1),
    }
    # oracle cross-check: smallest normal subgroup of the full tree
    # group containing s3
    full = generate_group([expand(RigidCommutator(m, n)) for m in r.masks])
    target = generate_group([expand(c) for c in clo])
    s3 = expand(C([3], n))
    covers = generate_group(
        [compose(compose(g_inv, s3), g) for g, g_inv in
         [(g, _inv(g)) for g in full]]
    )
    assert covers == target


def _inv(p):
    from rigidcomm import inverse
    return inverse(p)


def test_normal_closure_requires_containment():
    with pytest.raises(ValueError):
        normal_closure(full_rigid_set(3), translation_normalizer_set(3))


def _normal_closure_loop(A, B):
    """Reference: the closure by two scalar products per (member, ambient) pair."""
    masks = set(A.masks)
    frontier = list(masks)
    while frontier:
        nxt = []
        for c in frontier:
            for b in B.masks:
                for r in (commutator_mask(c, b), commutator_mask(b, c)):
                    if r and r not in masks:
                        masks.add(r)
                        nxt.append(r)
        frontier = nxt
    return frozenset(masks)


def _closure_defect_loop(masks):
    """Reference: the first pair, in set order, whose product leaves the set."""
    for x in masks:
        for y in masks:
            c = commutator_mask(x, y)
            if c and c not in masks:
                return (x, y)
    return None


def _witness_loop(c, masks):
    """Reference: the first product [c, m], in set order, that is nonzero and not a member."""
    for m in masks:
        r = commutator_mask(c, m)
        if r and r not in masks:
            return r
    return 0


def _normalizer_in_loop(B, A):
    """Reference: the members of B whose product with every member of A stays in A."""
    return frozenset(b for b in B.masks if not _witness_loop(b, A.masks))


def _close_within(A, B):
    """The loop's closure of A within B, as a frozenset, whatever B is."""
    a, b = (np.array(sorted(S.masks), dtype=np.int64) for S in (A, B))
    return frozenset(_kernel._close(a, (1 << saturated.CLOSURE_MAX_RANK) - 1, b).tolist())


@functools.lru_cache(maxsize=None)
def _chain(n):
    """The full chain at rank n, run once per rank so hypothesis examples share it."""
    return run_chain(n)


def _ambient(n, term):
    """The full set when term is None, else chain term number term modulo the chain length."""
    if term is None:
        return full_rigid_set(n)
    report = _chain(n)
    return SaturatedSet(n, report.member_masks_at(term % (report.terminated_at + 1)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8),
    st.one_of(st.none(), st.integers(0, 1000)),
    st.lists(st.integers(0, 1 << 20), max_size=4),
)
def test_normal_closure_matches_reference_loop(n, term, picks):
    B = _ambient(n, term)
    pool = sorted(B.masks)
    A = saturate([RigidCommutator(pool[k % len(pool)], n) for k in picks], n)
    assert A.issubset(B)
    want = _normal_closure_loop(A, B)
    assert normal_closure(A, B).masks == want
    # the whole group takes the closed form, so its rounds are checked on their own
    assert _close_within(A, B) == want


def test_normal_closure_blocks_split_rows_and_columns(monkeypatch):
    # blocks of 7 products split each frontier row over many column blocks
    rng = random.Random(5)
    n = 6
    cases = []
    for term in (None, 3, 9):
        B = _ambient(n, term)
        pool = sorted(B.masks)
        A = saturate([RigidCommutator(rng.choice(pool), n) for _ in range(2)], n)
        cases.append((A, B))
    cases.append((full_rigid_set(n), full_rigid_set(n)))
    expected = [_normal_closure_loop(A, B) for A, B in cases]
    for block in (1, 7, 64):
        monkeypatch.setattr(_kernel, "_PAIR_BLOCK", block)
        got = [_close_within(A, B) for A, B in cases]
        assert got == expected


def _saturated_sets(n):
    """Every saturated set at rank n, as frozensets of masks."""
    masks = np.arange(1, 1 << n)
    subsets = np.arange(1 << masks.size, dtype=np.int64)  # bit k - 1 holds mask k
    has = [None, *((subsets >> k) & 1 == 1 for k in range(masks.size))]
    closed = np.ones(subsets.size, dtype=bool)
    for x in masks.tolist():
        for y in masks.tolist():
            p = commutator_mask(x, y)
            if p:
                closed &= ~(has[x] & has[y]) | has[p]
    return [frozenset(m for m in range(1, 1 << n) if s >> (m - 1) & 1)
            for s in np.flatnonzero(closed).tolist()]


def test_whole_group_closure_matches_scalar_loop_exhaustively():
    counts = []
    for n in range(1, 5):
        B = full_rigid_set(n)
        sets = _saturated_sets(n)
        counts.append(len(sets))
        for masks in sets:
            A = _trusted(n, masks)
            assert normal_closure(A, B).masks == _normal_closure_loop(A, B), sorted(masks)
    assert counts == [2, 7, 63, 2876]  # the empty set included


def _normal_in_whole_group(masks, n):
    """Whether [x, m] lies in the set or is 0 for every rigid commutator x and member m.

    Computed with numpy from the bit formula of the product, not through
    the engine's kernel.
    """
    members = np.fromiter(masks, dtype=np.int64, count=len(masks))
    inside = np.zeros(1 << n, dtype=bool)
    inside[0] = True
    inside[members] = True
    bits = np.array([v.bit_length() for v in range(1 << n)], dtype=np.int64)
    x = np.arange(1, 1 << n, dtype=np.int64)[:, None]
    y = members[None, :]
    a, b = bits[x], bits[y]
    high = np.where(a > b, x, y)
    low_bit = np.left_shift(1, np.minimum(a, b) - 1)
    prod = low_bit | (x & y) | (high & ~((low_bit << 1) - 1))
    prod = np.where((a == b) | ((high & low_bit) != 0), 0, prod)
    return bool(inside[prod].all())


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 12), st.data())
def test_whole_group_closure_matches_rounds(n, data):
    seed = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
    A = saturate([RigidCommutator(m, n) for m in seed], n)
    B = full_rigid_set(n)
    got = normal_closure(A, B)
    assert got.masks == _close_within(A, B)
    if n <= 10:
        assert A.masks <= got.masks and _normal_in_whole_group(got.masks, n)


def test_whole_group_closure_makes_no_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the whole group needs no product")

    n = 10
    B = full_rigid_set(n)
    empty, seed = SaturatedSet(n, []), SaturatedSet(n, [C([3, 1], n)])
    proper = saturate([C([3, 1], n), C([n], n)], n)  # built before the kernel is refused
    monkeypatch.setattr(_kernel, "_pair_products", refuse)
    assert normal_closure(empty, B).masks == frozenset()
    assert normal_closure(B, B) == B
    # [3,1] keeps 3 masks at base 3 and every mask >= {b, 3} at each base b above
    assert normal_closure(seed, B).log2_order == 3 + sum((1 << (b - 1)) - 4 for b in range(4, n + 1))
    with pytest.raises(AssertionError, match="no product"):  # a proper ambient takes the rounds
        normal_closure(seed, proper)


def _check_stored_form(S, want, n, others):
    """Every reading of S agrees with ``want``, its frozenset of masks, and with the other sets."""
    assert isinstance(S.masks, frozenset) and S.masks == want
    assert not S._sorted.flags.writeable
    assert len(S) == S.log2_order == len(want)
    assert S.level_dims() == tuple(sum(m.bit_length() == b for m in want) for b in range(1, n + 1))
    assert [(c.mask, c.n) for c in S.members] == [(m, n) for m in sorted(want)]
    for m in range(1 << n):
        assert (m in S) == (RigidCommutator(m, n) in S) == (m == 0 or m in want), m
    twin = SaturatedSet(n, want)
    assert S == twin and hash(S) == hash(twin)
    members = [list(RigidCommutator(m, n).elements) for m in sorted(want)]
    assert json.loads(S.to_json()) == {"n": n, "members": members}
    for T, other in others:
        assert (S == T) == (want == other)
        assert S.issubset(T) == (want <= other), (sorted(want), sorted(other))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_every_producer_stores_the_set_its_frozenset_reads(n, data):
    # each way the engine builds a set, against scalar loops over plain frozensets
    seed = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3))
    plain = lambda masks: SimpleNamespace(masks=frozenset(masks))
    full = frozenset(range(1, 1 << n))
    trans = frozenset((1 << i) - 1 for i in range(1, n + 1))
    u0 = _normalizer_in_loop(plain(full), plain(trans))
    inner = [sorted(u0)[m % len(u0)] for m in seed]  # the seed moved into the proper ambient
    with_t = _saturate_loop([*trans, *seed], n)
    closed_t = _normal_closure_loop(plain(with_t), plain(full))
    sat, sat_inner = _saturate_loop(seed, n), _saturate_loop(inner, n)
    M = saturate([RigidCommutator(m, n) for m in with_t], n)
    cases = [
        (SaturatedSet(n, [RigidCommutator(m, n) for m in sat]), sat),
        (saturate([RigidCommutator(m, n) for m in seed], n), sat),
        (normal_closure(SaturatedSet(n, sat), full_rigid_set(n)),
         _normal_closure_loop(plain(sat), plain(full))),
        (normal_closure(SaturatedSet(n, sat_inner), translation_normalizer_set(n)),
         _normal_closure_loop(plain(sat_inner), plain(u0))),
        (normalizing_step(M), _normalizer_in_loop(plain(full), plain(with_t))),
        (normalizer_in(normal_closure(M, full_rigid_set(n)), M),
         _normalizer_in_loop(plain(closed_t), plain(with_t))),
        (full_rigid_set(n), full),
        (translation_set(n), trans),
        (translation_normalizer_set(n), u0),
        (SaturatedSet(n), frozenset()),
    ]
    for S, want in cases:
        _check_stored_form(S, want, n, cases)


def _with_translations(n, B, picks):
    """A saturated subset of B: the translations and the picked members of B."""
    pool = sorted(B.masks)
    seed = [*translation_set(n).masks, *(pool[k % len(pool)] for k in picks)]
    A = saturate([RigidCommutator(m, n) for m in seed], n)
    assert A.issubset(B)
    return A


def _scanned_pool(B, A):
    """The candidates normalizer_in(B, A) hands the witness scan, in mask order, and its masks."""
    pools = []
    real = _kernel._witnesses

    def spy(masks, k, lookup, outside):
        pools.append(masks[:k].tolist())
        return real(masks, k, lookup, outside)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_witnesses", spy)
        got = normalizer_in(B, A)
    assert len(pools) == 1
    return sorted(pools[0]), got.masks


def _check_witnesses(A, B, dtype=np.int64):
    cands = np.array(sorted(B.masks), dtype=dtype)
    members = np.array(sorted(A.masks), dtype=dtype)
    present = _kernel._membership(members, A.n)
    cover = _kernel._uncovered(members, present, A.n)
    # every member in mask order, and the cover, which generates A, in reverse order
    for gens in (members, cover[::-1]):
        found = _kernel._witnesses(np.concatenate((cands, gens)), len(cands), present, False)
        for c, w in zip(cands.tolist(), found):
            assert (w == 0) == (_witness_loop(c, A.masks) == 0), c
            if w:
                assert w not in A.masks
                assert w in {commutator_mask(c, m) for m in gens.tolist()}
    pool, got = _scanned_pool(B, A)
    # [c, t_k] fills c's lowest hole k, so c fails unless c | (c + 1) is in A;
    # the scan has no ambient, so B does not narrow it
    assert pool == [c for c in range(1, 1 << A.n) if c not in A.masks and c | (c + 1) in A.masks]
    assert got == _normalizer_in_loop(B, A)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8),
    st.one_of(st.none(), st.integers(0, 1000)),
    st.lists(st.integers(0, 1 << 20), max_size=4),
)
def test_witnesses_match_reference_loop(n, term, picks):
    B = _ambient(n, term)
    _check_witnesses(_with_translations(n, B, picks), B)


def test_witnesses_blocks_split_rows_and_columns(monkeypatch):
    # _witnesses takes a quarter of _PAIR_BLOCK at int64 and half at int32; of 1
    # or 7 that is shorter than most member lists, so each candidate meets all the
    # members alone, in a row block of its own; of 64, 16 or 32 products, a row
    # block meets a short list with several candidates
    rng = random.Random(11)
    n = 6
    cases = []
    for term in (None, 2, 9, 15):
        B = _ambient(n, term)
        cases.append((_with_translations(n, B, [rng.randrange(1 << 20) for _ in range(2)]), B))
    cases.append((translation_set(n), full_rigid_set(n)))
    for block in (1, 7, 64):
        monkeypatch.setattr(_kernel, "_PAIR_BLOCK", block)
        for A, B in cases:
            for dtype in (np.int32, np.int64):
                _check_witnesses(A, B, dtype)


def test_witnesses_block_stays_near_128_kib():
    # run_chain(16, 14)'s largest block step scans 225 candidates against a cover of
    # 137; a block of half _PAIR_BLOCK int32 products, four words (16 bytes) each,
    # peaks at about 160 KiB in all when it frees its products and keep mask before
    # the next block's words are made, and at about 200 KiB when it does not
    calls, real = [], _kernel._witnesses

    def spy(masks, k, lookup, outside):
        calls.append((masks, k, lookup, outside))
        return real(masks, k, lookup, outside)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_witnesses", spy)
        run_chain(16, 14)
    masks, k, lookup, outside = max(calls, key=lambda call: call[1] * (call[0].size - call[1]))
    assert k >= 225 and masks.size - k >= 137
    real(masks, k, lookup, outside)  # numpy's first calls of some functions allocate once
    tracemalloc.start()
    try:
        real(masks, k, lookup, outside)
        assert tracemalloc.get_traced_memory()[1] <= 192 << 10
    finally:
        tracemalloc.stop()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.data())
def test_membership_table_agrees_with_binary_search(n, data):
    members = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=40,
                                 unique=True).map(sorted))
    masks = data.draw(st.lists(st.one_of(st.sampled_from(members), st.integers(0, (1 << n) - 1)),
                               max_size=60))
    masks = np.array([0, *masks], dtype=np.int64).reshape(-1, 1)  # shaped like a block
    want = [[m == 0 or m in members] for m in masks.ravel().tolist()]
    arr = np.array(members, dtype=np.int64)
    assert _kernel._membership(arr, n)(masks).tolist() == want
    with mock.patch.object(_kernel, "_DENSE_MAX_RANK", 0):  # the binary search
        assert _kernel._membership(arr, n)(masks).tolist() == want


def test_high_ranks_look_members_up_without_a_dense_table():
    # a 2^n bool table would take 1 TiB at rank 40 and 2 MiB at rank 21
    def small(make):
        make()  # numpy's first calls of some functions allocate once
        tracemalloc.start()
        try:
            out = make()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        return out

    n = 40
    assert small(lambda: SaturatedSet(n, [1 << 39])).masks == {1 << 39}
    seed = [C([40], n), C([39, 1], n), C([38, 2], n)]
    assert small(lambda: saturate(seed, n)).masks == _saturate_loop([c.mask for c in seed], n)
    n = _kernel._DENSE_MAX_RANK + 1
    A = small(lambda: translation_set(n))
    B = small(lambda: translation_normalizer_set(n))
    assert small(lambda: normalizer_in(B, A)).masks == _normalizer_in_loop(B, A) == B.masks
    # each single puncture's lowest fill-in is a translation, so all of B outside A is scanned
    assert _scanned_pool(B, A) == (sorted(B.masks - A.masks), B.masks)


def test_normal_closure_rejects_an_ambient_that_is_not_closed():
    # {[3,1],[2]} commutes into [3,2], which the ambient lacks
    n = 3
    B = _trusted(n, {C([3, 1], n).mask, C([2], n).mask})
    A = SaturatedSet(n, [C([2], n)])
    with pytest.raises(ValueError, match="not closed") as err:
        normal_closure(A, B)
    assert str(err.value) == "set is not closed under commutation: [2] with [3,1] gives [3,2]"


def test_closure_failure_names_the_same_pair_from_any_block_row(monkeypatch):
    # each ambient is the whole group without the masks listed; in blocks of 7 products the
    # first product outside it lies past row 0 of a block of two or three rows
    cases = [
        (5, [5, 1], [[5, 4, 3, 2, 1]], "[2,1] with [5,4,3,1] gives [5,4,3,2,1]"),
        (5, [5, 2], [[1], [5, 4, 3, 2]], "[3,2] with [5,4,2] gives [5,4,3,2]"),
        (5, [4, 1], [[2], [5, 4, 3, 1]], "[3,1] with [5,4,1] gives [5,4,3,1]"),
        (6, [6, 1], [[6, 5, 4, 3, 2, 1]], "[2,1] with [6,5,4,3,1] gives [6,5,4,3,2,1]"),
    ]
    for block in (7, 64):
        monkeypatch.setattr(_kernel, "_PAIR_BLOCK", block)
        for n, seed, missing, pair in cases:
            B = _trusted(n, frozenset(range(1, 1 << n)) - {C(m, n).mask for m in missing})
            with pytest.raises(ValueError) as err:
                normal_closure(saturate([C(seed, n)], n), B)
            assert str(err.value) == f"set is not closed under commutation: {pair}"


@pytest.mark.parametrize("n", [12, 14])
def test_saturate_of_the_single_bit_generators_is_the_whole_group(n):
    # merges of blocks with thousands of finds into thousands of members
    got = saturate([RigidCommutator(1 << i, n) for i in range(n)], n)
    assert got.masks == frozenset(range(1, 1 << n))


def test_closure_queries_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (numpy 2.x): 1.7 MB and 17 ms a process
    script = """
import sys
import rigidcomm as rc
print("numpy.ma" in sys.modules)  # numpy 1.x imports it with numpy itself
C = rc.RigidCommutator.from_elements
n = 8
S = rc.saturate([C([5, 2], n), C([7, 3, 1], n), C([8, 4], n)], n)
assert len(S) > 3
whole = rc.full_rigid_set(n)
ambient = rc.normal_closure(rc.saturate([C([6, 1], n)], n), whole)
assert len(ambient) < len(whole)
rc.normal_closure(rc.saturate([C([7, 6, 1], n)], n), ambient)
rc.normal_closure(S, whole)
rc.SaturatedSet(n, S.masks)
T = rc.translation_normalizer_set(n)
rc.normalizer_in(rc.normalizing_step(T), T)
g = rc.expand(C([5, 3, 2], n))
rc.factorize(g, within=S)
rc.perm_commutator(g, rc.expand(C([7, 6], n)))
print("numpy.ma" in sys.modules)
"""
    src = Path(saturated.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.startswith("True"):
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert done.stdout == "False\nFalse\n"


def test_normal_closure_scale_guard(monkeypatch):
    # the cap is checked before any product, so these return at once
    r = full_rigid_set(5)
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 4)
    with pytest.raises(ScaleGuardError):
        normal_closure(r, r)
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 5)
    assert normal_closure(r, r) == r
    monkeypatch.undo()
    above = saturated.CLOSURE_MAX_RANK + 1
    with pytest.raises(ScaleGuardError):
        saturated.check_closure_rank(above)
    saturated.check_closure_rank(above - 1)
    # the normalizer scan has no ambient and no rank cap: it runs past CLOSURE_MAX_RANK
    report = run_chain(above, 1)
    term = normalizing_step(translation_set(above))
    assert term.masks == report.member_masks_at(0)
    assert normalizing_step(term).masks == report.member_masks_at(1)


def test_normalizing_step_product_guard_refuses_before_any_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the guard comes before the scan")

    # rank 6 scans C(6, 3) = 20 candidates against a cover of 6 members, 120 pairs
    u, full = translation_normalizer_set(6), full_rigid_set(6)
    monkeypatch.setattr(_kernel, "_witnesses", refuse)
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 3)  # at most 7^2 = 49 pairs
    with pytest.raises(ScaleGuardError, match="normalizer scan"):
        normalizing_step(u)
    with pytest.raises(ScaleGuardError, match="normalizer scan"):
        normalizer_in(full, u)
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 4)  # 15^2 = 225 pairs
    with pytest.raises(AssertionError, match="before the scan"):
        normalizing_step(u)


def test_normalizer_scan_builds_no_ambient_and_checks_no_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("the normalizer scan needs no ambient")

    n = 9
    report = run_chain(n, 2)
    full = full_rigid_set(n)
    monkeypatch.setattr(saturated, "full_rigid_set", refuse)
    monkeypatch.setattr(saturated, "check_closure_rank", refuse)
    term = translation_normalizer_set(n)
    for i in (1, 2):
        assert normalizer_in(full, term).masks == report.member_masks_at(i)
        term = normalizing_step(term)
        assert term.masks == report.member_masks_at(i)


_NAMED_PAIR = re.compile(r"set is not closed under commutation: (\[.*\]) with (\[.*\]) gives (\[.*\])")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 7), st.data())
def test_closure_defect_matches_reference_loop(n, data):
    masks = frozenset(data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=24)))
    if data.draw(st.booleans()):
        masks = saturate([RigidCommutator(m, n) for m in masks], n).masks
    if _closure_defect_loop(masks) is None:
        assert SaturatedSet(n, masks).masks == masks
        return
    with pytest.raises(ValueError, match="not closed") as err:
        SaturatedSet(n, masks)
    x, y, z = (C(json.loads(e), n).mask for e in _NAMED_PAIR.fullmatch(str(err.value)).groups())
    assert x in masks and y in masks
    assert z == commutator_mask(x, y) and z not in masks | {0}


def _product_table(values):
    """The products of all pairs of nonzero masks, as ``_witnesses`` makes them."""
    arr = np.array(values, dtype=np.int64)
    tops = _kernel._top_bits(arr)
    t = np.minimum(tops[:, None], tops[None, :])
    shared, prod = _kernel._products(arr[:, None], arr[None, :], t)
    return np.where(shared >= t, 0, prod)


def _check_product_rule(x, y):
    """``_products`` is ``commutator_mask`` on every pair of nonzero masks ``x``, ``y``, in
    both orders, where ``x & y`` stays below the smaller top bit, and 0 exactly where not."""
    t = np.minimum(_kernel._top_bits(x), _kernel._top_bits(y))
    want = np.array([commutator_mask(a, b) for a, b in zip(x.tolist(), y.tolist())], dtype=np.int64)
    for shared, prod in (_kernel._products(x, y, t), _kernel._products(y, x, t)):
        zero = shared >= t
        assert (zero == (want == 0)).all()
        assert (prod[~zero] == want[~zero]).all()


@pytest.mark.parametrize("n", range(1, 9))
def test_product_rule_is_the_commutator_on_every_pair(n):
    masks = np.arange(1, 1 << n, dtype=np.int64)
    x, y = np.meshgrid(masks, masks)
    _check_product_rule(x.ravel(), y.ravel())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, (1 << 40) - 1), st.integers(1, (1 << 40) - 1)),
                min_size=1, max_size=20))
def test_product_rule_is_the_commutator_at_rank_40(pairs):
    x, y = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    _check_product_rule(x, y)


def test_level_cuts_give_top_bits():
    values = [1, 2, 3, 5, 8, 255, 256, (1 << 61) + 7, 1 << 62, (1 << 62) + 5, (1 << 63) - 1]
    arr = np.array(values, dtype=np.int64)
    tops = [1 << (v.bit_length() - 1) for v in values]
    assert _kernel._top_bits(arr).tolist() == tops
    assert _kernel._top_bits(arr[::-1]).tolist() == tops[::-1]  # in any order
    masks = np.arange(1, 1 << 12, dtype=np.int64)  # and every mask up to rank 12, in a block
    want = [1 << (v.bit_length() - 1) for v in range(1, 1 << 12)]
    assert _kernel._top_bits(masks.reshape(63, 65)).ravel().tolist() == want
    assert _kernel._level_cuts(arr, 63) == [
        sum(v < (1 << a) for v in values) for a in range(63)
    ] + [len(values)]


# ── the cover: the members that no smaller pair yields ───────────────────────

def _covering_pairs(x, masks):
    """Reference: the pairs (y_b, z_b) of members, b below x's base and in x, for a mask x."""
    pairs = []
    for b in range(1, x.bit_length()):
        if x >> (b - 1) & 1:
            z = x & ((1 << b) - 1)
            y = (x & ~((1 << b) - 1)) | ((1 << (b - 1)) - 1)
            if y in masks and z in masks:
                pairs.append((y, z))
    return pairs


def _check_cover(masks, n):
    arr = np.array(sorted(masks), dtype=np.int64)
    cover = set(_kernel._uncovered(arr, _kernel._membership(arr, n), n).tolist())
    assert saturate([RigidCommutator(m, n) for m in cover], n).masks == masks
    for x in masks:
        pairs = _covering_pairs(x, masks)
        assert (x not in cover) == bool(pairs), x
        for y, z in pairs:  # each dropped member is the product of two smaller members
            assert commutator_mask(y, z) == x and y < x and z < x


def test_cover_generates_every_saturated_set_with_the_translations_exhaustively():
    counts = []
    for n in range(1, 5):
        translations = translation_set(n).masks
        sets = [masks for masks in _saturated_sets(n) if translations <= masks]
        counts.append(len(sets))
        for masks in sets:
            _check_cover(masks, n)
    assert counts == [1, 2, 9, 111]


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 12), st.data())
def test_cover_generates_random_saturated_sets(n, data):
    picks = data.draw(st.lists(st.integers(1, (1 << n) - 1), max_size=3))
    M = saturate([RigidCommutator(m, n) for m in (*translation_set(n).masks, *picks)], n)
    _check_cover(M.masks, n)


def test_vector_kernel_matches_scalar_product_exhaustively_at_rank_6():
    values = range(1, 1 << 6)  # the identity is never a factor
    table = _product_table(values)
    assert table.tolist() == [[commutator_mask(x, y) for y in values] for x in values]


def test_vector_kernel_at_rank_63_edge_masks():
    # base 63 is bit 62, the highest bit an int64 holds without its sign
    top = 1 << (MAX_RANK - 1)
    values = sorted([
        1, 3, 6, top - 1, top >> 1, (top >> 1) | 5,
        top, top | 1, top | (top >> 1), top | 6, (1 << MAX_RANK) - 1,
    ])
    table = _product_table(values)
    expected = [[commutator_mask(x, y) for y in values] for x in values]
    assert table.tolist() == expected
    assert any(v >= top for row in expected for v in row)  # base-63 results occur
    assert (table >= 0).all()


def _pair_list(blocks):
    """The products yielded by ``_pair_products`` as sorted (lo, hi, product) triples."""
    out = []
    for lo, hi, block in blocks:
        assert block.shape == (lo.size, hi.size)
        assert 0 < block.size <= _kernel._PAIR_BLOCK
        out += [(x, y, int(block[r, c]))
                for r, x in enumerate(lo.tolist()) for c, y in enumerate(hi.tolist())]
    return sorted(out)


def _nonzero_pairs(pairs):
    """Reference: the nonzero scalar products, as (smaller mask, larger mask, product)."""
    return sorted((min(x, y), max(x, y), c) for x, y in pairs if (c := commutator_mask(x, y)))


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_products_matches_every_nonzero_product(n):
    # the lower-based factor is the smaller mask, so (lo, hi) is (min, max)
    arr = np.arange(1, 1 << n, dtype=np.int64)
    masks = arr.tolist()
    got = _pair_list(_kernel._pair_products(arr, arr, both=False))
    assert got == _nonzero_pairs((x, y) for i, x in enumerate(masks) for y in masks[i + 1:])
    rng = random.Random(n)
    half = sorted(rng.sample(masks, len(masks) // 2))
    rest = sorted(set(masks) - set(half))
    x, y = np.array(half, dtype=np.int64), np.array(rest, dtype=np.int64)
    got = _pair_list(_kernel._pair_products(x, y))
    assert got == _nonzero_pairs((a, b) for a in half for b in rest)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 9),
    st.sampled_from([1, 7, 64]),
    st.booleans(),
    st.data(),
)
def test_pair_products_matches_reference_on_random_subsets(n, block, both, data):
    masks = st.lists(st.integers(1, (1 << n) - 1), max_size=40, unique=True).map(sorted)
    xs, ys = data.draw(masks), data.draw(masks)
    if both:
        want = _nonzero_pairs((a, b) for a in xs for b in ys)
    else:  # only x's member may be the lower-based factor
        want = _nonzero_pairs((a, b) for a in xs for b in ys if a.bit_length() < b.bit_length())
    x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    with mock.patch.object(_kernel, "_PAIR_BLOCK", block):
        assert _pair_list(_kernel._pair_products(x, y, both=both)) == want


def test_saturated_set_member_cap(monkeypatch):
    # 2^CLOSURE_MAX_RANK - 1 members at most, refused before the closure check makes a product
    full_json = full_rigid_set(3).to_json()  # full_rigid_set checks the rank cap too
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 2)
    assert len(SaturatedSet(3, [0, 1, 2, 3])) == 3  # the identity is not a member
    monkeypatch.setattr(_kernel, "_pair_products", lambda *args, **kw: pytest.fail("product made"))
    with pytest.raises(ScaleGuardError, match="saturated set of size 4 exceeds the cap 3"):
        SaturatedSet(3, [1, 2, 3, 4])
    with pytest.raises(ScaleGuardError):
        SaturatedSet.from_json(full_json)
    monkeypatch.setattr(saturated, "CLOSURE_MAX_RANK", 3)
    assert len(full_rigid_set(3)) == 7  # closed by construction, never checked


def test_unclosed_set_error_names_one_offending_pair():
    with pytest.raises(ValueError) as err:
        SaturatedSet(3, [C([3, 1], 3), C([2], 3)])
    assert str(err.value) in {
        "set is not closed under commutation: [3,1] with [2] gives [3,2]",
        "set is not closed under commutation: [2] with [3,1] gives [3,2]",
    }


# ── serialization ────────────────────────────────────────────────────────────

def test_json_round_trip():
    u = translation_normalizer_set(4)
    again = SaturatedSet.from_json(u.to_json())
    assert again == u


def test_json_accepts_hex_masks():
    n, members = members_from_json('{"n": 3, "members": ["0x7", [2]]}')
    assert n == 3
    assert {c.mask for c in members} == {7, 2}
    # every mask as hex() writes it reads back
    masks = list(range(1 << 8))
    n, members = members_from_json(json.dumps({"n": 8, "members": [hex(m) for m in masks]}))
    assert [c.mask for c in members] == masks


def test_json_rejects_garbage():
    for text in (
        '{"n": 3}',
        '{"n": 3, "members": [3.5]}',
        '{"n": true, "members": []}',
        '{"n": 2.7, "members": []}',
        '{"n": null, "members": []}',
        '{"n": "3", "members": []}',
        '{"n": 0, "members": []}',
        '{"n": 64, "members": []}',
        '{"n": 3, "members": "0x3"}',
        '{"n": 3, "members": {"0x3": 1}}',
        '{"n": 3, "members": [[true]]}',
    ):
        with pytest.raises(ValueError):
            members_from_json(text)
    # int(entry, 16) reads these as 3, 16, 3 and 3; a hex member is ASCII letters and digits only
    for entry in ("\u0663", "0x1_0", " 0x3 ", "+0x3"):
        with pytest.raises(ValueError, match="bad hex member"):
            members_from_json(json.dumps({"n": 5, "members": [entry]}))
    # the index is checked before 1 << (k - 1) is built
    with pytest.raises(ValueError, match=r"1\.\.3, got 1000000$"):
        members_from_json('{"n": 3, "members": [[1000000]]}')


def test_json_member_order_is_canonical():
    u = translation_normalizer_set(3)
    d = json.loads(u.to_json())
    assert d["members"] == [[1], [2], [2, 1], [3, 1], [3, 2], [3, 2, 1]]


# ── factorization ────────────────────────────────────────────────────────────

def _to_permutation_fold(fac):
    """Reference re-expansion: the factors folded through the ``expand`` oracle."""
    out = identity(fac.n)
    for c in fac.factors:
        out = compose(out, expand(c))
    return out


def _closed_form_pattern(c):
    """The MSB-first prefixes whose 1-letters all lie in c's index set below its base."""
    b = c.base
    below = set(c.elements) - {b}
    flips = frozenset(
        q for q in range(1 << (b - 1))
        if {j for j in range(1, b) if q >> (b - 1 - j) & 1} <= below
    )
    return LevelFlipPattern(b, flips)


@pytest.mark.parametrize("n", range(1, 9))
def test_flip_pattern_closed_form_matches_expand(n):
    for mask in range(1, 1 << n):
        c = RigidCommutator(mask, n)
        g = expand(c)
        pattern = _closed_form_pattern(c)
        assert pattern == level_flip_pattern(g, c.base)
        assert flip_pattern_permutation(pattern, n) == g
        # the engine's all-levels transform of the unit exponent vector gives the same
        # pattern in c's level block and leaves every other level at 0
        top = 1 << (c.base - 1)
        unit = np.zeros(1 << n, dtype=np.int64)
        unit[mask] = 1
        out = saturated._superset_xor_levels(unit)
        flips = saturated._reverse_bits(out[top:2 * top])
        assert frozenset(np.flatnonzero(flips).tolist()) == pattern.flips
        assert not out[:top].any() and not out[2 * top:].any()
        assert Factorization(n, (c,), True).to_permutation() == g


def test_to_permutation_matches_fold_on_canonical_words_with_repeats():
    # a public Factorization may repeat a factor; as in the fold, a pair cancels
    rng = random.Random(6)
    for n in range(1, 8):
        for _ in range(10):
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 12))]
            masks += masks[:rng.randint(0, len(masks))]
            masks.sort(key=lambda m: (m.bit_length(), m))
            fac = Factorization(n, tuple(RigidCommutator(m, n) for m in masks), True)
            assert fac.to_permutation() == _to_permutation_fold(fac)


def _superset_xor_passes(exps):
    """Reference transform: one strided numpy pass per bit j, over the levels with bit j below the top."""
    exps = exps.copy()
    for j in range(len(exps).bit_length() - 2):  # from 2^(j+1) up, the levels have bit j below the top
        pairs = exps[2 << j:].reshape(-1, 2, 1 << j)  # axis 1 is bit j of the index
        pairs[:, 0] ^= pairs[:, 1]
    return exps


@pytest.mark.parametrize("width", range(saturated.FACTORIZE_MAX_RANK + 1))
def test_superset_xor_is_a_superset_sum_and_an_involution(width):
    # the all-levels transform of a 2^width vector, level l in entries 2^(l-1)..2^l - 1;
    # widths 0..2 are shorter than one packed byte
    rng = np.random.default_rng(width)
    size = 1 << width
    for _ in range(20):
        v = rng.integers(0, 2, size)
        kept = v.copy()
        out = saturated._superset_xor_levels(v)
        if width <= 6:
            want = [int(v[0])]  # entry 0 belongs to no level
            for level in range(1, width + 1):
                top = 1 << (level - 1)
                want += [int(np.bitwise_xor.reduce(v[[top | t for t in range(top) if t & s == s]]))
                         for s in range(top)]
            assert _superset_xor_passes(v).tolist() == want  # the reference the wider checks use
        else:
            want = _superset_xor_passes(v).tolist()
        assert out.tolist() == want
        assert out[0] == v[0]
        assert saturated._superset_xor_levels(v.astype(bool)).tolist() == want
        assert saturated._superset_xor_levels(out).tolist() == v.tolist()
        assert np.array_equal(v, kept)


@pytest.mark.parametrize("width", range(7))
def test_reverse_bits_reverses_the_index(width):
    size = 1 << width
    rev = saturated._reverse_bits(np.arange(size))
    assert rev.tolist() == [int(format(s, f"0{width}b")[::-1] or "0", 2) for s in range(size)]
    assert saturated._reverse_bits(rev).tolist() == list(range(size))


def test_factorize_identity():
    fac = factorize(identity(4))
    assert fac.factors == ()
    assert fac.member
    assert fac.to_permutation().is_identity


def test_factorize_single_commutators():
    n = 5
    for mask in (1, 0b11111, 0b10100, 0b01011):
        c = RigidCommutator(mask, n)
        fac = factorize(expand(c))
        assert fac.factors == (c,)


def test_factorize_level_product():
    n = 3
    t3 = C([3, 2, 1], n)
    u31 = C([3, 2], n)
    g = compose(expand(t3), expand(u31))
    fac = factorize(g)
    assert set(fac.factors) == {t3, u31}


def test_factorize_respects_product_order():
    # the factor list, multiplied in canonical order, reproduces the input
    rng = random.Random(99)
    n = 6
    for _ in range(25):
        g = identity(n)
        for _ in range(rng.randint(1, 12)):
            g = compose(g, expand(RigidCommutator(rng.randrange(1, 1 << n), n)))
        fac = factorize(g)
        assert fac.to_permutation() == g
        assert [c.mask for c in fac.factors] == sorted(
            (c.mask for c in fac.factors),
            key=lambda m: (m.bit_length(), m),
        )


def test_factorize_membership_verdicts():
    n = 6
    u6 = translation_normalizer_set(n)
    eta = C([6, 5, 4, 3], n)
    fac = factorize(expand(eta), u6)
    assert fac.factors == (eta,)
    assert not fac.member
    inside = compose(expand(C([2, 1], n)), expand(C([6, 5, 4, 3, 2], n)))
    assert factorize(inside, u6).member


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.data())
def test_factorize_member_verdict_on_every_kind_of_within(n, data):
    seed = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3))
    A = saturate([RigidCommutator(m, n) for m in seed], n)
    full = full_rigid_set(n)
    withins = [SaturatedSet(n), SaturatedSet(n, seed[:1]), A, normal_closure(A, full), full]
    for within in withins:
        # factors from within's members, and some from anywhere; 1 keeps the empty set's pool nonempty
        inside = data.draw(st.sets(st.sampled_from(sorted(within.masks | {1})), max_size=6))
        anywhere = data.draw(st.sets(st.integers(1, (1 << n) - 1), max_size=2))
        factors = tuple(RigidCommutator(m, n) for m in sorted(inside | anywhere))
        fac = factorize(Factorization(n, factors, True).to_permutation(), within)
        assert fac.factors == factors
        assert fac.member == frozenset(within.masks).issuperset(c.mask for c in factors)


def test_factorize_exponent_lookup():
    n = 4
    c = C([4, 2], n)
    fac = factorize(expand(c))
    assert fac.exponent(c) == 1
    assert fac.exponent(C([4, 3], n)) == 0
    for bad in (5, "x", [4, 2]):
        with pytest.raises(TypeError, match="RigidCommutator"):
            fac.exponent(bad)
    with pytest.raises(ValueError, match="rank mismatch"):
        factorize(expand(C([3, 2], 3))).exponent(C([4, 2], n))


def test_factorize_exponent_matches_factor_list():
    # the lookup set is built once per factorization; it must answer as the tuple does
    rng = random.Random(25)
    for n in range(1, 7):
        every = [RigidCommutator(m, n) for m in range(1 << n)]
        for _ in range(4):
            picked = rng.choices(every, k=rng.randrange(2 * len(every)))  # repeats included
            for fac in (Factorization(n, tuple(picked), True),
                        factorize(functools.reduce(compose, map(expand, picked), identity(n)))):
                for c in every:
                    assert fac.exponent(c) == (c in fac.factors), (n, fac, c)


def test_factorize_rejects_foreign_permutations():
    # a 3-cycle has odd order and cannot live in a 2-group
    from rigidcomm import TreePermutation

    rogue = TreePermutation((2, 3, 1, 4), 2)
    with pytest.raises(ValueError):
        factorize(rogue)


def test_factorize_scale_guard():
    # identity(13) is refused by its own guard, so build the rank-13 input directly
    with pytest.raises(ScaleGuardError):
        factorize(TreePermutation(range(1, 2**13 + 1), 13))


def test_factorize_scale_guard_comes_before_the_commutator_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"commutator table built at rank {n}")

    monkeypatch.setattr(saturated, "_commutators", refuse)
    with pytest.raises(ScaleGuardError):
        factorize(TreePermutation(range(1, 2**13 + 1), 13))
    with pytest.raises(AssertionError):  # the patch is the builder factorize calls
        factorize(identity(3))


def test_commutator_table_is_every_commutator_by_mask():
    for n in range(1, 7):
        table = saturated._commutators(n)
        assert table.tolist() == [RigidCommutator(m, n) for m in range(1 << n)]
        assert saturated._commutators(n) is table and not table.flags.writeable
    # factors are the shared table entries
    fac = factorize(expand(C([4, 2], 4)))
    assert fac.factors[0] is saturated._commutators(4)[0b1010]


def test_factorize_rejects_a_non_permutation():
    with pytest.raises(TypeError, match="TreePermutation"):
        factorize("21")
    with pytest.raises(TypeError, match="TreePermutation"):
        factorize((2, 1))


def test_factorize_rejects_a_non_set_within():
    with pytest.raises(TypeError, match="SaturatedSet"):
        factorize(identity(3), frozenset({1, 3}))
    # before any work: a rank-13 input would otherwise trip the scale guard
    with pytest.raises(TypeError, match="SaturatedSet"):
        factorize(TreePermutation(range(1, 2**13 + 1), 13), [C([3], 13)])


def test_to_permutation_rejects_a_non_commutator_factor(monkeypatch):
    def refuse(exps):
        raise AssertionError("transform ran")

    monkeypatch.setattr(saturated, "_superset_xor_levels", refuse)
    with pytest.raises(TypeError, match="RigidCommutator"):
        Factorization(3, (C([3], 3), 1), True).to_permutation()
    with pytest.raises(TypeError, match="RigidCommutator"):
        Factorization(3, ("[3]",), True).to_permutation()


@pytest.mark.parametrize("n", [True, 2.0, -1, 0, MAX_RANK + 1])
def test_factorization_checks_its_rank(n):
    with pytest.raises(ValueError, match="rank must be an integer"):
        Factorization(n, (), True)


def test_factorize_accepts_exactly_the_tree_group():
    # all of Sym(4) and all of Sym(8)
    for n in (2, 3):
        images = itertools.permutations(range(1, (1 << n) + 1))
        group = generate_group(generator(i, n) for i in range(1, n + 1))
        seen = set()
        for img in images:
            p = TreePermutation(img, n)
            if p in group:
                fac = factorize(p)
                assert fac.to_permutation() == p
                seen.add(p)
            else:
                with pytest.raises(ValueError, match="not an element"):
                    factorize(p)
        assert seen == group


def _flip_level(pts, flips, shift):
    """Flip bit ``shift`` of the points whose MSB-first prefix above it is in ``flips``."""
    return pts ^ (flips[pts >> (shift + 1)] << shift)


def _factorize_peel(g):
    """Reference factorization: divide the levels off one at a time, top level first.

    Level l's flips are read at the prefixes p 0...0 of the residual, which
    is then composed with the level's flips; the input is in the tree group
    exactly when the final residual is the identity.  Returns the factor
    masks in canonical order.
    """
    n = g.n
    pts = np.arange(1 << n)
    res = g._img
    exps = np.zeros(1 << n, dtype=np.int64)
    for level in range(1, n + 1):
        shift = n - level
        flips = (res[np.arange(1 << (level - 1)) << (shift + 1)] >> shift) & 1
        exps[1 << (level - 1):1 << level] = saturated._reverse_bits(flips)
        res = res[_flip_level(pts, flips, shift)]
    if not np.array_equal(res, pts):
        raise ValueError("not an element: the residual after peeling all levels is not the identity")
    return tuple(np.flatnonzero(_superset_xor_passes(exps)).tolist())


@pytest.mark.parametrize("n", range(1, 13))
def test_factorize_matches_the_level_peel(n):
    # seeded tree elements built from random portraits, then each with two images swapped
    rng = np.random.default_rng(n)
    within = translation_normalizer_set(n)
    for _ in range(12):
        img = np.arange(1 << n)
        for level in range(1, n + 1):
            img = _flip_level(img, rng.integers(0, 2, 1 << (level - 1)), n - level)
        swapped = img.copy()
        a, b = rng.choice(1 << n, 2, replace=False)
        swapped[[a, b]] = swapped[[b, a]]
        for arr in (img, swapped):
            g = TreePermutation((arr + 1).tolist(), n)
            try:
                want = _factorize_peel(g)
            except ValueError:
                with pytest.raises(ValueError, match="not an element"):
                    factorize(g, within)
                continue
            fac = factorize(g, within)
            assert tuple(c.mask for c in fac.factors) == want
            assert fac.member == within.masks.issuperset(want)
            assert fac.to_permutation() == g


@pytest.mark.parametrize("n", range(1, 4))
def test_factorize_inverts_the_fold_on_every_exponent_set(n):
    masks = range(1, 1 << n)
    for bits in range(1 << len(masks)):
        S = tuple(RigidCommutator(m, n) for k, m in enumerate(masks) if bits >> k & 1)
        assert factorize(_to_permutation_fold(Factorization(n, S, True))).factors == S


def test_factorize_rank_mismatch():
    with pytest.raises(ValueError):
        factorize(identity(3), translation_normalizer_set(4))


@given(st.integers(2, 6), st.data())
@settings(max_examples=40)
def test_factorize_round_trip_random(n, data):
    word = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=0, max_size=10))
    g = identity(n)
    for m in word:
        g = compose(g, expand(RigidCommutator(m, n)))
    fac = factorize(g)
    assert fac.to_permutation() == g
    assert _to_permutation_fold(fac) == g
