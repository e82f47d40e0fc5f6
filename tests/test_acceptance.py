"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -q -s`` to see the lines.
Each criterion carries a wall-clock budget that is asserted along with
the values.  The frozen rows below were produced by this engine and
confirmed against the exhaustive permutation oracle wherever that is
feasible; a regression in any layer moves at least one cell.
"""

import random
import time

import pytest

from rigidcomm import (
    RigidCommutator,
    brute_normalizer_in_sym,
    commutator,
    compose,
    euler_table,
    expand,
    factorize,
    flip_pattern_permutation,
    full_rigid_set,
    generate_group,
    identity,
    normalizer_in,
    normalizing_step,
    perm_commutator,
    predicted_chain_set,
    run_chain,
    translation_checks,
    translation_normalizer_set,
)
from rigidcomm.permutations import LevelFlipPattern
from rigidcomm.rigid import commutator_mask
from rigidcomm.saturated import SaturatedSet

# ── frozen reference rows ────────────────────────────────────────────────────

B_ROW = (0, 0, 0, 1, 1, 2, 3, 4, 5, 7, 9, 11, 14, 17, 21)
A_ROW = (0, 0, 0, 1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95)

# rank-6 chain: (dims for levels 6..1, log2 order, log2 index), steps 0..21
N6_ROWS = [
    ((6, 5, 4, 3, 2, 1), 21, 15),
    ((7, 5, 4, 3, 2, 1), 22, 1),
    ((8, 6, 4, 3, 2, 1), 24, 2),
    ((10, 7, 5, 3, 2, 1), 28, 4),
    ((13, 9, 6, 4, 2, 1), 35, 7),
    ((14, 10, 6, 4, 2, 1), 37, 2),
    ((16, 11, 7, 4, 2, 1), 41, 4),
    ((18, 12, 8, 4, 2, 1), 45, 4),
    ((19, 12, 8, 4, 2, 1), 46, 1),
    ((20, 12, 8, 4, 2, 1), 47, 1),
    ((21, 13, 8, 4, 2, 1), 49, 2),
    ((22, 14, 8, 4, 2, 1), 51, 2),
    ((23, 15, 8, 4, 2, 1), 53, 2),
    ((24, 16, 8, 4, 2, 1), 55, 2),
    ((25, 16, 8, 4, 2, 1), 56, 1),
    ((26, 16, 8, 4, 2, 1), 57, 1),
    ((27, 16, 8, 4, 2, 1), 58, 1),
    ((28, 16, 8, 4, 2, 1), 59, 1),
    ((29, 16, 8, 4, 2, 1), 60, 1),
    ((30, 16, 8, 4, 2, 1), 61, 1),
    ((31, 16, 8, 4, 2, 1), 62, 1),
    ((32, 16, 8, 4, 2, 1), 63, 1),
]

# log2 index per step 1..14, ranks 3..15
INDEX_MATRIX = {
    3: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    4: (1, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    5: (1, 2, 4, 1, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0),
    6: (1, 2, 4, 7, 2, 4, 4, 1, 1, 2, 2, 2, 2, 1),
    7: (1, 2, 4, 7, 11, 4, 7, 3, 4, 2, 2, 4, 4, 4),
    8: (1, 2, 4, 7, 11, 16, 7, 5, 6, 2, 6, 6, 3, 3),
    9: (1, 2, 4, 7, 11, 16, 23, 4, 9, 4, 11, 4, 12, 9),
    10: (1, 2, 4, 7, 11, 16, 23, 32, 4, 14, 5, 20, 7, 19),
    11: (1, 2, 4, 7, 11, 16, 23, 32, 43, 5, 22, 7, 32, 4),
    12: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 7, 32, 12, 43),
    13: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 12, 42, 18),
    14: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95, 8, 24),
    15: (1, 2, 4, 7, 11, 16, 23, 32, 43, 57, 74, 95, 121, 8),
}

_REPORT_CACHE: dict[int, object] = {}


def _report_for(n):
    if n not in _REPORT_CACHE:
        _REPORT_CACHE[n] = run_chain(n, 14)
    return _REPORT_CACHE[n]


def _line(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} ({name}): {status} in {elapsed:.2f}s{suffix}")


def test_criterion_01_partition_table():
    t0 = time.perf_counter()
    table = euler_table(14)
    ok = table.b == B_ROW and table.a == A_ROW
    elapsed = time.perf_counter() - t0
    _line(1, "partition counts", ok and elapsed < 1.0, elapsed)
    assert table.b == B_ROW
    assert table.a == A_ROW
    assert elapsed < 1.0


def test_criterion_02_rank6_chain():
    t0 = time.perf_counter()
    report = run_chain(6)
    rows = [
        (tuple(reversed(s.level_dims)), s.log2_order, s.index_log2)
        for s in report.steps
    ]
    elapsed = time.perf_counter() - t0
    bad = [i for i, (got, want) in enumerate(zip(rows, N6_ROWS)) if got != want]
    ok = not bad and len(rows) == 22 and elapsed < 5.0
    _line(2, "rank-6 chain, all 22 rows", ok, elapsed)
    assert len(rows) == 22
    assert not bad, f"rows differ at steps {bad}"
    assert elapsed < 5.0


def test_criterion_03_index_matrix():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 13):
        got = _report_for(n).index_sequence(14)
        if got != INDEX_MATRIX[n]:
            bad.append((n, got))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    _line(3, "index matrix ranks 3..12", ok, elapsed)
    assert not bad, f"rows differ: {bad}"
    assert elapsed < 300.0

    # optional larger ranks, separate budget
    t1 = time.perf_counter()
    bad_hi = []
    for n in (13, 14, 15):
        got = _report_for(n).index_sequence(14)
        if got != INDEX_MATRIX[n]:
            bad_hi.append((n, got))
    elapsed_hi = time.perf_counter() - t1
    ok_hi = not bad_hi and elapsed_hi < 1800.0
    _line(3, "index matrix ranks 13..15 (optional)", ok_hi, elapsed_hi)
    assert not bad_hi, f"rows differ: {bad_hi}"
    assert elapsed_hi < 1800.0


def test_criterion_04_index_stability():
    t0 = time.perf_counter()
    table = euler_table(16)
    bad = []
    for n in range(3, 13):
        report = _report_for(n)
        for i in range(1, n - 1):
            if report.steps[i].index_log2 != table.a[i + 2]:
                bad.append((n, i))
    elapsed = time.perf_counter() - t0
    _line(4, "stable index prefix = partial sums", not bad, elapsed)
    assert not bad, f"prefix property broken at {bad}"


def test_criterion_05_closed_form_terms():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 13):
        report = _report_for(n)
        for i in range(0, n - 1):
            predicted = predicted_chain_set(n, i)
            if predicted.masks != report.member_masks_at(i):
                bad.append((n, i))
    elapsed = time.perf_counter() - t0
    _line(5, "computed terms = closed-form sets, n<=12", not bad, elapsed)
    assert not bad, f"terms differ at {bad}"


def test_criterion_06_oracle_equivalence():
    t0 = time.perf_counter()
    mism = 0

    n = 6
    perms = [expand(RigidCommutator(x, n)) for x in range(1 << n)]
    for x in range(1 << n):
        px = perms[x]
        for y in range(1 << n):
            if perm_commutator(px, perms[y]) != perms[commutator_mask(x, y)]:
                mism += 1
    exhaustive_pairs = (1 << n) ** 2

    m = 8
    rng = random.Random(20260817)
    perms8 = [expand(RigidCommutator(x, m)) for x in range(1 << m)]
    sampled = 100_000
    for _ in range(sampled):
        x = rng.randrange(1 << m)
        y = rng.randrange(1 << m)
        if perm_commutator(perms8[x], perms8[y]) != perms8[commutator_mask(x, y)]:
            mism += 1

    elapsed = time.perf_counter() - t0
    ok = mism == 0 and elapsed < 60.0
    _line(
        6, "mask product = permutation commutator", ok, elapsed,
        f"{exhaustive_pairs} exhaustive + {sampled} sampled pairs",
    )
    assert mism == 0
    assert elapsed < 60.0


def test_criterion_07_structural_constants():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 13):
        if translation_normalizer_set(n).log2_order != n * (n + 1) // 2:
            bad.append(("baseline size", n))
    for n in range(3, 11):
        if _report_for(n).steps[1].index_log2 != 1:
            bad.append(("first step index", n))
    for n in range(1, 9):
        checks = translation_checks(n)
        if not all(checks.values()):
            bad.append(("translation regularity", n, checks))
    elapsed = time.perf_counter() - t0
    _line(7, "structural constants", not bad, elapsed)
    assert not bad, str(bad)


def test_criterion_08_brute_force_ground_truth():
    t0 = time.perf_counter()
    n = 3
    report = run_chain(n)
    full = full_rigid_set(n)
    bad = []
    for i in range(report.terminated_at + 1):
        masks = report.member_masks_at(i)
        term = SaturatedSet(n, masks)
        elements = generate_group([expand(RigidCommutator(x, n)) for x in masks])
        brute = brute_normalizer_in_sym(elements, n)
        stepped = normalizing_step(term)
        spanned = generate_group(
            [expand(RigidCommutator(x, n)) for x in stepped.masks]
        )
        if spanned != brute:
            bad.append(("step-vs-sym", i))
        internal = normalizer_in(full, term)
        internal_span = generate_group(
            [expand(RigidCommutator(x, n)) for x in internal.masks]
        )
        if internal_span != brute:
            bad.append(("internal-vs-sym", i))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _line(8, "rank-3 exhaustive normalizers", ok, elapsed)
    assert not bad, str(bad)
    assert elapsed < 30.0


def _random_tree_element(n, rng):
    g = identity(n)
    for level in range(1, n + 1):
        flips = frozenset(
            p for p in range(1 << (level - 1)) if rng.getrandbits(1)
        )
        if flips:
            g = compose(g, flip_pattern_permutation(LevelFlipPattern(level, flips), n))
    return g


def test_criterion_09_factorization_round_trips():
    t0 = time.perf_counter()
    n = 8
    rng = random.Random(1507)
    failures = 0
    for _ in range(1000):
        g = _random_tree_element(n, rng)
        fac = factorize(g)
        again = factorize(g)
        if fac.to_permutation() != g or fac.factors != again.factors:
            failures += 1
    elapsed = time.perf_counter() - t0
    _line(9, "rank-8 factorization round trips", failures == 0, elapsed)
    assert failures == 0


def test_criterion_10_algebra_laws():
    t0 = time.perf_counter()
    n = 6
    zero = RigidCommutator(0, n)
    cs = [RigidCommutator(m, n) for m in range(1 << n)]
    bad = 0
    for x in cs:
        if commutator(x, x) != zero:
            bad += 1
        for y in cs:
            if commutator(x, y) != commutator(y, x):
                bad += 1
            # both sides of the degree-4 identity collapse to zero
            lhs = commutator(commutator(commutator(x, x), y), x)
            rhs = commutator(commutator(x, x), commutator(y, x))
            if lhs != zero or rhs != zero:
                bad += 1
    elapsed = time.perf_counter() - t0
    _line(10, "algebra laws, exhaustive rank 6", bad == 0, elapsed)
    assert bad == 0
