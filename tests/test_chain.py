"""Normalizer chain runs against frozen small-rank data.

The rank-6 run is checked row by row: every size, every index, every
dimension vector. Those numbers were produced by this engine, confirmed
against the permutation oracle at the terms where that is feasible, and
then frozen here; any regression in the step logic moves at least one
of them.
"""

import hashlib
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidcomm import (
    ChainReport,
    RigidCommutator,
    SaturatedSet,
    ScaleGuardError,
    full_rigid_set,
    normalizing_step,
    run_chain,
    saturate,
    translation_normalizer_set,
    translation_set,
    verify_theoretical,
)
from rigidcomm import _kernel, chain, partitions
from rigidcomm._kernel import _NEVER
from rigidcomm.chain import CHAIN_MAX_RANK, _run
from rigidcomm.rigid import commutator_mask
from test_saturated import _ambient, _normalizer_in_loop, _trusted, _with_translations

# rank 6: 21 growth steps then the fixpoint, log2 sizes and index jumps
N6_LOG2_SIZES = [
    21, 22, 24, 28, 35, 37, 41, 45, 46, 47, 49,
    51, 53, 55, 56, 57, 58, 59, 60, 61, 62, 63,
]
N6_INDICES = [15, 1, 2, 4, 7, 2, 4, 4, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1]

# steps from the translation normalizer to the full group, ranks 5..15
FULL_CHAIN_LENGTHS = {
    5: 10, 6: 21, 7: 43, 8: 88, 9: 176, 10: 350, 11: 699, 12: 1395, 13: 2842, 14: 5601,
    15: 11271,
}

# index_log2 of every step of run_chain(n), step 0 first, recorded from the
# engine that looked members up by binary search
FULL_CHAIN_INDEX_ROWS = {
    7: [
        21, 1, 2, 4, 7, 11, 4, 7, 3, 4, 2, 2, 4, 4, 4, 4, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2,
        2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
    ],
    8: [
        28, 1, 2, 4, 7, 11, 16, 7, 5, 6, 2, 6, 6, 3, 3, 7, 3, 7, 3, 4, 4, 2, 2, 2, 2, 4, 4,
        4, 4, 4, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1
    ],
    9: [
        36, 1, 2, 4, 7, 11, 16, 23, 4, 9, 4, 11, 4, 12, 9, 7, 5, 7, 6, 6, 2, 10, 4, 10, 4,
        8, 8, 5, 5, 5, 5, 3, 3, 5, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4,
        4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
    ],
    10: [
        45, 1, 2, 4, 7, 11, 16, 23, 32, 4, 14, 5, 20, 7, 19, 5, 12, 9, 4, 12, 6, 11, 4, 12,
        12, 9, 9, 7, 5, 7, 3, 8, 7, 6, 6, 6, 6, 3, 2, 10, 4, 10, 4, 10, 10, 4, 4, 8, 8, 8,
        8, 5, 5, 5, 5, 5, 5, 5, 5, 3, 3, 3, 3, 5, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3,
        3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
        4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2,
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
    ],
}

# sha256 of run_chain(n).to_json(), confirmed against the engine that
# rescanned every candidate at every step (ranks 9..12) and recorded from the
# engine that scanned against every member of the term (ranks 13 and 14)
FULL_CHAIN_SHA256 = {
    9: "1d9417667355048f5e844e2def9e87f75135b0aa23e796b44578538bc2c7d5f1",
    10: "74cd23cf415500a340045345e5b4cfd4e536d1d7ce04858bd35ba075f46910cd",
    11: "f6529620f94b12784e8798c1dde70b59f8ec75559e502c9510e3c20dd06fcc26",
    12: "90bea889364190d21c9ec15d8a2a025b03e3e8d05b6c79a2355f62b79da4d24d",
    13: "5667d9c8f1920aaef8f4ce3e57d666ac3a347cc74ae6ec3d5ad6b30277a6ab67",
    14: "44f76a7907e54538b6af8b4f9dc2506fb1d87e8cef58947bc56531ced1b88d74",
}

# (sha256 of run_chain(n).joined.tobytes(), terminated_at), recorded from the
# engine that scanned every candidate at the first step
FULL_CHAIN_JOINED_SHA256 = {
    15: ("bb787631e819a3434105183a6d21ee8faca6733604d5fea08fa99e9adfd09738", 11271),
    16: ("9ebbbe63f8f6ce2bf98bdd420bb5b6d7e6f3937a24731dfb2ce0fb9194c2698a", 22387),
}


def test_translation_sets():
    t = translation_set(4)
    assert {c.elements for c in t} == {(1,), (2, 1), (3, 2, 1), (4, 3, 2, 1)}
    assert t.log2_order == 4
    u = translation_normalizer_set(4)
    assert t.issubset(u)
    assert u.log2_order == 4 * 5 // 2
    for n in (1, 2, 3, 6, 9):
        assert translation_normalizer_set(n).log2_order == n * (n + 1) // 2


def test_translation_sets_closed_by_construction():
    # both sets skip the closure check; the checked constructor accepts the same masks
    for n in (*range(1, 21), 40):
        for make in (translation_set, translation_normalizer_set):
            built = make(n)
            assert built == SaturatedSet(n, built.masks), (make.__name__, n)
    # the second set is the normalizer of the first
    for n in range(3, 15):
        assert translation_normalizer_set(n) == normalizing_step(translation_set(n)), n


@pytest.mark.parametrize("n", [0, True, -1, 64, 2.0])
def test_translation_sets_check_their_rank(n):
    for make in (translation_set, translation_normalizer_set):
        with pytest.raises(ValueError, match="rank must be an integer"):
            make(n)


def test_rank6_chain_full_table():
    report = run_chain(6)
    assert report.n == 6
    assert report.reached_full
    assert report.terminated_at == 21
    assert len(report.steps) == 22
    assert [s.log2_order for s in report.steps] == N6_LOG2_SIZES
    assert [s.index_log2 for s in report.steps] == N6_INDICES
    # dimension vectors: start and end are pinned, the rest must be
    # consistent partial sums
    assert report.steps[0].level_dims == (1, 2, 3, 4, 5, 6)
    assert report.steps[-1].level_dims == (1, 2, 4, 8, 16, 32)
    for s in report.steps:
        assert sum(s.level_dims) == s.log2_order
        assert len(s.new_members) == s.index_log2 if s.i > 0 else True


def test_rank6_first_new_members():
    report = run_chain(6)
    step1 = report.steps[1]
    assert [c.elements for c in step1.new_members] == [(6, 5, 4, 3)]
    step2 = report.steps[2]
    assert sorted(c.elements for c in step2.new_members) == [
        (5, 4, 3), (6, 5, 4, 2),
    ]


def test_step_zero_baseline_index():
    for n in (3, 4, 5, 6, 7):
        report = run_chain(n, 0)
        base = report.steps[0]
        assert base.i == 0
        assert base.log2_order == n * (n + 1) // 2
        assert base.index_log2 == n * (n - 1) // 2
        assert len(base.new_members) == base.index_log2


def test_trivial_ranks_terminate_immediately():
    for n in (1, 2):
        report = run_chain(n)
        assert report.reached_full
        assert report.terminated_at == 0
        assert report.steps[0].log2_order == (1 << n) - 1


def test_rank3_chain():
    report = run_chain(3)
    assert [s.log2_order for s in report.steps] == [6, 7]
    assert [s.index_log2 for s in report.steps] == [3, 1]
    assert report.terminated_at == 1
    assert report.member_masks_at(1) == full_rigid_set(3).masks


def test_member_masks_reconstruction():
    report = run_chain(5)
    for i in range(report.terminated_at + 1):
        masks = report.member_masks_at(i)
        assert len(masks) == report.steps[i].log2_order
    assert report.member_masks_at(report.terminated_at) == full_rigid_set(5).masks
    with pytest.raises(ValueError):
        report.member_masks_at(report.terminated_at + 1)


def test_budget_stops_early():
    report = run_chain(6, 3)
    assert not report.reached_full
    assert report.terminated_at == 3
    assert len(report.steps) == 4
    assert [s.log2_order for s in report.steps] == N6_LOG2_SIZES[:4]


def test_index_sequence_padding():
    report = run_chain(4)
    assert report.index_sequence(3) == (1, 2, 1)
    assert report.index_sequence(6) == (1, 2, 1, 1, 0, 0)
    truncated = run_chain(6, 2)
    with pytest.raises(ValueError):
        truncated.index_sequence(5)
    assert truncated.index_sequence(2) == (1, 2)


def test_index_sequence_refuses_a_count_past_every_chain():
    # a 10^12-entry tuple of zeros would exhaust memory; the guard trips first
    report = run_chain(3)
    with pytest.raises(ScaleGuardError, match="step count"):
        report.index_sequence(10**12)
    assert report.index_sequence(1 << CHAIN_MAX_RANK)[:2] == (1, 0)


def test_report_accessors_refuse_a_bad_step():
    report = run_chain(4)
    # a bool, a non-int or a negative step is refused, not read as a step or a slice
    for bad in (-1, True, False, 2.0, "2", None):
        with pytest.raises(ValueError):
            report.index_sequence(bad)
        with pytest.raises(ValueError):
            report.member_masks_at(bad)
    assert report.index_sequence(0) == ()
    assert report.member_masks_at(0) == translation_normalizer_set(4).masks


def test_chain_indices_match_partial_sum_predictions():
    # interior indices grow by the partial sums of the partition counts
    from rigidcomm import euler_table

    table = euler_table(16)
    for n in (4, 5, 6, 7, 8):
        report = run_chain(n)
        for i in range(1, n - 1):
            assert report.steps[i].index_log2 == table.a[i + 2], (n, i)


def test_verify_theoretical_all_hold():
    for n in (3, 4, 5, 6, 7):
        report = run_chain(n)
        verdicts = verify_theoretical(report)
        assert len(verdicts) == n - 1
        assert all(ok for _, ok in verdicts)



def test_verify_theoretical_takes_only_a_report():
    for bad in (True, 5, run_chain(4).to_json()):
        with pytest.raises(TypeError, match="ChainReport"):
            verify_theoretical(bad)


def test_verify_theoretical_does_no_closure_work(monkeypatch):
    report = run_chain(8, 6)  # the chain's start is closure-checked
    monkeypatch.setattr(_kernel, "_close", lambda *args: pytest.fail("closure checked"))
    assert verify_theoretical(report) == [(i, True) for i in range(7)]

@pytest.mark.parametrize("n", [4, 6, 8])
def test_verify_theoretical_flags_a_missing_member_from_its_step_on(n):
    # the terms are accumulated, so a member lost at step k is missing from
    # every later term too
    report = run_chain(n, n - 2)
    for k in range(report.terminated_at + 1):
        joined = report.joined.copy()
        step_k = np.flatnonzero(joined == k)
        joined[step_k[len(step_k) // 2]] = _NEVER
        broken = ChainReport(n, joined, report.terminated_at, report.reached_full,
                             report.diagnostics)
        verdicts = verify_theoretical(broken)
        assert verdicts == [(i, i < k) for i in range(n - 1)], k


@pytest.mark.parametrize("n", [4, 6, 8])
def test_verify_theoretical_flags_an_early_joiner_until_its_step(n):
    # a step-k member moved to step k-2 is extra in terms k-2 and k-1 only
    report = run_chain(n, n - 2)
    for k in range(2, report.terminated_at + 1):
        joined = report.joined.copy()
        step_k = np.flatnonzero(joined == k)
        joined[step_k[len(step_k) // 2]] = k - 2
        broken = ChainReport(n, joined, report.terminated_at, report.reached_full,
                             report.diagnostics)
        verdicts = verify_theoretical(broken)
        assert verdicts == [(i, i not in (k - 2, k - 1)) for i in range(n - 1)], k


@pytest.mark.parametrize("n", [4, 6, 8])
def test_verify_theoretical_flags_a_swap_that_keeps_every_count(n):
    # every term keeps its size, so only the members themselves can tell
    report = run_chain(n, n - 2)
    outside = int(np.flatnonzero(report.joined == _NEVER)[0])
    for k in range(report.terminated_at + 1):
        step_k = np.flatnonzero(report.joined == k)
        m = step_k[len(step_k) // 2]
        joined = report.joined.copy()
        joined[[m, outside]] = joined[[outside, m]]  # a stranger takes m's place
        broken = ChainReport(n, joined, report.terminated_at, report.reached_full,
                             report.diagnostics)
        assert verify_theoretical(broken) == [(i, i < k) for i in range(n - 1)], k
        if k + 2 <= report.terminated_at:  # m joins two steps late, a later member early
            joined = report.joined.copy()
            later = np.flatnonzero(joined == k + 2)[0]
            joined[[m, later]] = joined[[later, m]]
            broken = ChainReport(n, joined, report.terminated_at, report.reached_full,
                                 report.diagnostics)
            assert verify_theoretical(broken) == [(i, i not in (k, k + 1)) for i in range(n - 1)], k


def test_report_json_shape():
    report = run_chain(3)
    d = json.loads(report.to_json())
    assert d["n"] == 3
    assert d["reached_full"] is True
    assert d["terminated_at"] == 1
    assert [s["i"] for s in d["steps"]] == [0, 1]
    assert "seconds" not in d["steps"][0]
    assert d["steps"][1]["new_members"] == [[3]]
    # byte-for-byte deterministic
    assert report.to_json() == run_chain(3).to_json()


def _json_object_from_steps(report):
    """The report as one object built from its step records, the layout to_json writes."""
    return {
        "n": report.n,
        "terminated_at": report.terminated_at,
        "reached_full": report.reached_full,
        "steps": [
            {
                "i": s.i,
                "log2_order": s.log2_order,
                "index_log2": s.index_log2,
                "level_dims": list(s.level_dims),
                "new_members": [list(c.elements) for c in s.new_members],
            }
            for s in report.steps
        ],
    }


# full chains at ranks 1..12, the 14-step prefix at rank 16 and a chain cut by its budget
@pytest.mark.parametrize("n, max_steps", [*((n, None) for n in range(1, 13)), (16, 14), (8, 3)])
def test_streamed_json_is_json_dumps_of_the_step_records(n, max_steps):
    report = run_chain(n, max_steps)
    indents = (None, 0, 2, 4)
    streamed = [report.to_json(indent=indent) for indent in indents]
    assert "steps" not in report.__dict__  # the text is written from the row walk, not the records
    whole = _json_object_from_steps(report)
    assert streamed == [json.dumps(whole, indent=indent) for indent in indents]


def test_full_chain_lengths_frozen():
    for n, length in FULL_CHAIN_LENGTHS.items():
        report = run_chain(n)
        assert report.reached_full, n
        assert report.terminated_at == length, n
        assert report.steps[-1].log2_order == (1 << n) - 1


@pytest.mark.parametrize("n", sorted(FULL_CHAIN_INDEX_ROWS))
def test_full_chain_index_rows_frozen(n):
    report = run_chain(n)
    # the index row and the closed-form check read the join steps, not the step records
    row = report.index_sequence(report.terminated_at + 1)
    assert row == tuple(FULL_CHAIN_INDEX_ROWS[n][1:]) + (0,)
    assert all(ok for _, ok in verify_theoretical(report))
    assert "steps" not in report.__dict__
    assert [s.index_log2 for s in report.steps] == FULL_CHAIN_INDEX_ROWS[n]
    assert len(report.steps) == FULL_CHAIN_LENGTHS[n] + 1


@pytest.mark.parametrize("n", sorted(FULL_CHAIN_SHA256))
def test_full_chain_json_digest_frozen(n):
    digest = hashlib.sha256(run_chain(n).to_json().encode()).hexdigest()
    assert digest == FULL_CHAIN_SHA256[n]


@pytest.mark.parametrize("n", sorted(FULL_CHAIN_JOINED_SHA256))
def test_full_chain_join_steps_frozen(n):
    report = run_chain(n)
    digest = hashlib.sha256(report.joined.tobytes()).hexdigest()
    assert (digest, report.terminated_at) == FULL_CHAIN_JOINED_SHA256[n]
    assert report.reached_full


def _naive_chain(n: int) -> ChainReport:
    """The chain as a plain fold of the scalar normalizer scan over all commutators."""
    current = translation_normalizer_set(n)
    full = full_rigid_set(n)
    joined = np.full(1 << n, _NEVER, dtype=np.int32)
    joined[sorted(current.masks)] = 0
    joined[[0, *translation_set(n).masks]] = -1
    step = 0
    while current.log2_order < (1 << n) - 1:
        nxt = _trusted(n, _normalizer_in_loop(full, current))
        step += 1
        joined[sorted(nxt.masks - current.masks)] = step
        current = nxt
    return ChainReport(n, joined, step, True, ((0.0, 0, 0, 0),) * (step + 1))


@pytest.mark.parametrize("n", range(3, 9))
def test_full_chain_matches_naive_fold(n):
    assert run_chain(n).to_json() == _naive_chain(n).to_json()


def _term(joined: np.ndarray) -> set[int]:
    """The members of the term that a chain's live join table holds, the identity left out."""
    return set(np.flatnonzero(joined != _NEVER)[1:].tolist())


def _fresh_cover(joined: np.ndarray, n: int) -> list[int]:
    """The cover rule's output on every member of the term that ``joined`` holds, sorted."""
    members = np.array(sorted(_term(joined)), dtype=np.int64)
    return _kernel._uncovered(members, _kernel._membership(members, n), n).tolist()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 10), data=st.data())
def test_incremental_step_matches_normalizing_step(n, data):
    # the witness cache needs a saturated start containing the translations
    extra = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3))
    start = saturate([RigidCommutator(m, n) for m in (*translation_set(n).masks, *extra)], n)
    scans, pruned = [], {}  # the candidates each scan met; the last prune's cover and term
    cover_rule, witnesses = _kernel._chain_cover, _kernel._chain_witnesses

    def prune(masks, n, joined):
        kept = cover_rule(masks, n, joined)
        assert sorted(kept) == _fresh_cover(joined, n)  # a prune, the start's too, leaves the fresh cover
        pruned.update(kept=list(kept), term=_term(joined))
        return kept

    def scan(kernel, cands, cover, joined):
        # the cover carried to a scan holds the fresh cover, so it generates the term,
        # with no repeats: the last prune's cover, then the members joined since
        term = _term(joined)
        assert set(_fresh_cover(joined, n)) <= set(cover) <= term
        assert len(set(cover)) == len(cover)
        kept = pruned["kept"]
        assert cover[:len(kept)] == kept and set(cover[len(kept):]) == term - pruned["term"]
        scans.append(list(cands))
        return witnesses(kernel, cands, cover, joined)

    budget = data.draw(st.integers(1, 6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_chain_cover", prune)
        patch.setattr(_kernel, "_chain_witnesses", scan)
        report = _run(start, budget)
    assert report.terminated_at == budget or report.reached_full
    current = start
    for s in report.steps[1:]:
        nxt = normalizing_step(current)
        assert s.log2_order == len(nxt.masks)
        assert report.member_masks_at(s.i) == nxt.masks
        assert {m.mask for m in s.new_members} == nxt.masks - current.masks
        current = nxt
    if report.terminated_at:
        # the first scan meets the candidates whose lowest fill-in is a member, whatever the start
        first = sorted(c for c in range(1 << n) if c not in start.masks | {0} and c | (c + 1) in start.masks)
        step = report.steps[1]
        assert step.rescanned == len(first)
        if _kernel._step_kernel(step.rescanned, step.cover) == "lone":
            assert [m.mask for m in step.new_members] == first
        else:
            assert sorted(scans[0]) == first


# extra masks that, with the translations and saturated, start the chains below;
# a lone-candidate shortcut widened to two candidates gets every one of them wrong
# but (5,) and (2, 6) at rank 3, where no saturated start but (2,) exposes it
FIXED_STARTS = {
    3: [(2,), (5,), (2, 6)],
    4: [(4,), (5,), (6, 11)],
    5: [(13,), (25,), (9, 12, 24)],
    6: [(18,), (13, 52), (21, 24, 50)],
    7: [(12,), (9, 54), (5, 12, 28)],
    8: [(95,), (33, 50), (12, 22, 36)],
}


@pytest.mark.parametrize("n, extra", [
    pytest.param(n, extra, id=f"{n}-{'-'.join(map(str, extra))}")
    for n, starts in FIXED_STARTS.items() for extra in starts
])
def test_incremental_chain_from_fixed_starts_matches_iterated_normalizing_step(n, extra):
    start = saturate([RigidCommutator(m, n) for m in (*translation_set(n).masks, *extra)], n)
    report = _run(start, None)
    term = start
    for s in report.steps[1:]:
        nxt = normalizing_step(term)
        assert sorted(m.mask for m in s.new_members) == sorted(nxt.masks - term.masks), s.i
        assert s.log2_order == len(nxt), s.i
        term = nxt
    assert report.reached_full and len(term) == (1 << n) - 1
    assert (report.joined[1:] <= report.terminated_at).all()


def test_a_step_that_joins_nothing_to_a_proper_term_raises(monkeypatch):
    # a wake rule that loses each joined mask's last trailing one wakes no candidate
    # from the translation normalizer at rank 14; the chain stops at that step
    # instead of taking 2^14 empty ones, or, with no budget, spinning
    calls = iter(range(64))

    def lossy(masks):
        if next(calls, None) is None:
            pytest.fail("the chain kept stepping on a proper term")
        return [a ^ (1 << k) for a in masks for k in range((a & ~(a + 1)).bit_length() - 1)]

    monkeypatch.setattr(_kernel, "_parked", lossy)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="^step 1 at rank 14 joined nothing to a proper term$"):
        run_chain(14)
    assert time.perf_counter() - t0 < 1
    monkeypatch.undo()
    # the full group is its own normalizer, and the loop takes no step there
    full = _run(full_rigid_set(5), None)
    assert (full.terminated_at, full.reached_full, len(full.diagnostics)) == (0, True, 1)


@pytest.mark.parametrize("n", range(3, 11))
def test_lazy_cover_stays_within_twice_a_fresh_cover(n):
    # the cover is pruned afresh only once it has doubled, and it can shrink as
    # the term grows, so the bound is the largest fresh cover so far, not the last
    report = run_chain(n)
    largest = 0
    for s, (_, _, cover, _) in enumerate(report.diagnostics[1:], 1):
        members = np.array(sorted(report.member_masks_at(s - 1)), dtype=np.int64)
        fresh = len(_kernel._uncovered(members, _kernel._membership(members, n), n))
        largest = max(largest, fresh)
        assert fresh <= cover < 2 * largest, (s, fresh, cover, largest)


# normalizing_step(translation_normalizer_set(40)): its member count and the sha256
# of its sorted masks as int64 bytes, recorded from the ambient-free scan
RANK40_STEP = (821, "f6e1b1ca693a456aacdf6dd7369316b2e7db8d507be8b67ad161b4f24c3a26b1")


def test_iterated_normalizing_step_is_the_chain_past_its_cap():
    # the one-shot scan and the incremental chain share only the block scan
    for n in range(3, 21):
        report = run_chain(n, n + 1)
        term = translation_normalizer_set(n)
        for i in range(1, n + 2):
            term = normalizing_step(term)
            # a chain that reached the full group early stays there
            assert term.masks == report.member_masks_at(min(i, report.terminated_at)), (n, i)
    # no chain runs at these ranks, but the closed form holds for terms 0..n-2
    for n in (24, 27):
        term = translation_normalizer_set(n)
        for i in range(n - 1):
            if i:
                term = normalizing_step(term)
            assert term.masks == set(partitions._predicted_joins(n, i)[0].tolist()), (n, i)
    step = normalizing_step(translation_normalizer_set(40))
    digest = hashlib.sha256(np.array(sorted(step.masks), dtype=np.int64).tobytes()).hexdigest()
    assert (len(step), digest) == RANK40_STEP


def test_rescanned_counts_candidates_reexamined():
    report = run_chain(6)
    assert report.steps[0].rescanned == 0
    # the first step examines only the candidates whose lowest fill-in is a
    # member: from the translation normalizer, the masks with two holes
    assert report.steps[1].rescanned == math.comb(6, 3)
    # later steps only those a new member woke, never more than remain outside
    for prev, s in zip(report.steps[1:], report.steps[2:]):
        assert 0 < s.rescanned <= (1 << 6) - 1 - prev.log2_order
        # each candidate meets each member of the cover of the term before at most once
        assert 0 < s.cover < prev.log2_order
        # a scan meets all of the cover in one row block, and a lone candidate joins unscanned
        assert s.products == (0 if s.rescanned == 1 else s.rescanned * s.cover)
        assert (s.products == 0) == (s.rescanned == 1)
    assert report.steps[0].cover == 0
    assert report == run_chain(6)  # a diagnostic, not part of equality
    # every rescanned candidate meets all of the cover in one row block, also
    # where rescanned * cover passes 2^14
    for _, rescanned, cover, products in run_chain(16, 14).diagnostics:
        assert cover < 1 << 14
        assert products == rescanned * cover


def test_a_lone_woken_candidate_joins_without_products():
    # a proper term's normalizer is larger and only woken candidates can join it,
    # so a step that wakes one joins it without a scan
    lone = 0
    for n in range(3, 13):
        for s in run_chain(n).steps[1:]:
            if s.rescanned == 1:
                lone += 1
                assert (s.index_log2, s.products) == (1, 0), (n, s.i)
    assert lone > 0


@pytest.mark.parametrize("n, max_steps", [*((n, None) for n in range(3, 13)), (16, 14)])
def test_each_row_names_the_kernel_that_ran(monkeypatch, n, max_steps):
    # products are derived from a row's counts by _step_kernel, so only the calls
    # themselves show that a step ran the kernel its row names: a scan per step
    # that is not lone, none for a lone step and none for the start
    ran = []
    for name, kernel in (("_scan", "scalar"), ("_witnesses", "block")):
        def spy(*args, _inner=getattr(_kernel, name), _kernel_name=kernel):
            ran.append(_kernel_name)
            return _inner(*args)
        monkeypatch.setattr(_kernel, name, spy)
    report = run_chain(n, max_steps)
    named = [_kernel._step_kernel(rescanned, cover) for _, rescanned, cover, _ in report.diagnostics[1:]]
    assert ran == [kernel for kernel in named if kernel != "lone"]
    assert ran or n == 3  # rank 3's one step is lone


def test_first_step_rescans_the_two_hole_masks():
    for n in range(3, 21):
        assert run_chain(n, 1).steps[1].rescanned == math.comb(n, 3), n


def test_fill_in_is_a_product_with_a_translation():
    # [c, t_k] = [t_k, c] = c with hole k filled, for every hole k below c's base,
    # and c | (c + 1) fills c's lowest hole unless c is a translation
    for n in range(1, 9):
        for c in range(1, 1 << n):
            base = c.bit_length()
            holes = [k for k in range(1, base) if not c >> (k - 1) & 1]
            for k in holes:
                t = (1 << k) - 1
                assert commutator_mask(c, t) == commutator_mask(t, c) == c | 1 << (k - 1), (c, k)
            if c != (1 << base) - 1:
                assert c | (c + 1) == c | 1 << (holes[0] - 1), c


def test_report_compares_and_hashes_by_value():
    report = run_chain(6)
    # the diagnostics take no part
    again = ChainReport(6, run_chain(6).joined, report.terminated_at, True,
                        ((0.0, 0, 0, 0),) * len(report.diagnostics))
    assert report == again and hash(report) == hash(again)
    assert hash(report) == hash(run_chain(6))
    assert len({report, again, run_chain(6, 3)}) == 2
    assert report != run_chain(5) and report != report.to_json()
    with pytest.raises(ValueError):
        report.joined[1] = 0


def test_diagnostics_read_back_as_step_tuples():
    report = run_chain(7)
    diagnostics = report.diagnostics
    assert len(diagnostics) == report.terminated_at + 1
    assert list(diagnostics) == [(s.seconds, s.rescanned, s.cover, s.products) for s in report.steps]
    assert diagnostics[-1] == diagnostics[len(diagnostics) - 1]
    assert all(type(count) is int for row in diagnostics for count in row[1:])
    with pytest.raises(IndexError):
        diagnostics[len(diagnostics)]


def test_diagnostics_slice_as_tuples():
    diagnostics = run_chain(6).diagnostics
    rows = tuple(diagnostics)
    for cut in (slice(1, 3), slice(None, None, -1), slice(-2, None)):
        assert diagnostics[cut] == rows[cut], cut
    assert len(diagnostics[1:3]) == 2


def test_run_chain_builds_no_per_step_records():
    report = run_chain(7)
    # the loop keeps only the join steps; the records are built when first read
    assert "steps" not in report.__dict__
    assert len(report.steps) == report.terminated_at + 1
    assert report.steps is report.steps


def test_rank13_chain_meets_only_the_cover():
    # scanned against every member of each term, this chain took 40.3 M products
    assert sum(s.products for s in run_chain(13).steps) < 1_000_000


def test_rank16_prefix_rescans_only_woken_candidates():
    # scanning every candidate at the first step, these 14 steps rescanned 66036
    assert sum(s.rescanned for s in run_chain(16, 14).steps) < 2000


# the sums of ChainStep.products, .rescanned and .cover over run_chain(n) at
# ranks 9..14, and over run_chain(16, 14): each candidate waits on its largest
# product outside the term, the members that join wake the next scan, and a
# lone woken candidate joins with no products
COUNTER_SUMS = {
    (9, None): (15808, 872, 2719),
    (10, None): (38197, 1771, 6115),
    (11, None): (84715, 3502, 13353),
    (12, None): (189190, 6894, 29062),
    (13, None): (436426, 13880, 63563),
    (14, None): (1049995, 27567, 135455),
    (16, 14): (92160, 1399, 798),
}


@pytest.mark.parametrize("n, max_steps", COUNTER_SUMS)
def test_chain_counters_are_frozen(n, max_steps):
    steps = run_chain(n, max_steps).steps
    sums = tuple(sum(getattr(s, name) for s in steps) for name in ("products", "rescanned", "cover"))
    assert sums == COUNTER_SUMS[n, max_steps]


@pytest.mark.parametrize("cutoff", [None, 0, 1 << 62], ids=["mixed-scan", "block-scan", "scalar-scan"])
@pytest.mark.parametrize("n, max_steps", [*((n, None) for n in range(3, 13)), (16, 14)])
def test_no_rule_reads_the_order_of_the_wake_list(monkeypatch, n, max_steps, cutoff):
    # the witness is the largest outside product, the cover tests each member
    # alone and the wake runs per join, so a chain that shuffles the candidates
    # it is about to scan before every step makes the same terms, covers and
    # counters; the joins, and so the cover, follow the scan's order, which the
    # scalar scan reads pair by pair
    if cutoff is not None:
        monkeypatch.setattr(_kernel, "_SCALAR_PAIRS", cutoff)
    rng, moved, witnesses = random.Random(n), [], _kernel._chain_witnesses

    def shuffled(kernel, cands, cover, joined):
        before = list(cands)
        rng.shuffle(cands)  # in place: the step pairs this list with the witnesses
        moved.append(cands != before)
        return witnesses(kernel, cands, cover, joined)

    want = run_chain(n, max_steps)
    monkeypatch.setattr(_kernel, "_chain_witnesses", shuffled)
    got = run_chain(n, max_steps)
    assert any(moved) or n == 3  # rank 3 never wakes two candidates at once
    # each step's new members and (rescanned, cover, products)
    steps = [[(new, row[1:]) for *_, new, row in report._rows()] for report in (want, got)]
    first = next((i for i, (a, b) in enumerate(zip(*steps)) if a != b), min(map(len, steps)))
    assert steps[0] == steps[1], f"rank {n} differs from step {first}"
    assert np.array_equal(got.joined, want.joined)
    assert got.to_json() == want.to_json()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 12),
    st.one_of(st.none(), st.integers(0, 1000)),
    st.lists(st.integers(0, 1 << 20), max_size=4),
    st.data(),
)
def test_scalar_scan_matches_block_scan(n, term, picks, data):
    # the chain scans a small block in _kernel._scan and a large one in _witnesses,
    # and prunes a small cover in _uncovered_ints and a large one in
    # _uncovered; each pair reads the same term, as a join-step table and as a
    # membership lookup.  _witnesses gives the same witnesses at int32, as the
    # chain hands it, and at int64, as normalizing_step does
    A = _with_translations(n, _ambient(n, term), picks)
    members = np.array(sorted(A.masks), dtype=np.int64)
    present = _kernel._membership(members, n)
    joined = np.full(1 << n, _NEVER, dtype=np.int32)
    joined[members] = 0
    joined[0] = -1
    # t_n, every bit set, shares the top bit of each member: a row of no products
    cands = [(1 << n) - 1, *data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=40))]
    cover = _kernel._uncovered(members, present, n)
    for gens in (cover, members[::-1]):
        want = _kernel._scan(cands, gens.tolist(), memoryview(joined))
        for dtype in (np.int32, np.int64):
            for lookup in (present, _kernel._in_term(joined)):
                got = _kernel._witnesses(np.array(cands, dtype=dtype), gens.astype(dtype), lookup)
                assert got.dtype == dtype and got.tolist() == want, (dtype, lookup)
    assert want[0] == 0
    for masks in (members, members[::-1]):  # each keeps the order it is given
        want = _kernel._uncovered(masks, present, n).tolist()
        assert _kernel._uncovered_ints(masks.tolist(), memoryview(joined)) == want


def _counter_sums(report: ChainReport) -> tuple[int, int, int]:
    return tuple(sum(getattr(s, name) for s in report.steps) for name in ("products", "rescanned", "cover"))


@pytest.fixture(scope="module")
def mixed_scan_runs():
    """(to_json, joined bytes, counter sums) of each chain the kernel test reruns, as run_chain makes them."""
    runs = {}
    for key in [*((n, None) for n in range(3, 15)), (16, 14)]:
        report = run_chain(*key)
        runs[key] = (report.to_json(), report.joined.tobytes(), _counter_sums(report))
    return runs


@pytest.mark.parametrize("prune", [0, 1 << 62], ids=["block-prune", "scalar-prune"])
@pytest.mark.parametrize("cutoff", [0, 1 << 62], ids=["block-scan", "scalar-scan"])
def test_each_scan_kernel_alone_gives_the_frozen_chains(monkeypatch, mixed_scan_runs, cutoff, prune):
    # every scan goes to _witnesses (0) or to the Python loop (2^62), and every
    # cover prune to _uncovered (0) or to _uncovered_ints (2^62): the same
    # witnesses and covers, so the same join steps, JSON and counters as together
    monkeypatch.setattr(_kernel, "_SCALAR_PAIRS", cutoff)
    monkeypatch.setattr(_kernel, "_SCALAR_PRUNE", prune)
    for (n, max_steps), (text, joined, sums) in mixed_scan_runs.items():
        report = run_chain(n, max_steps)
        assert (report.to_json(), report.joined.tobytes(), _counter_sums(report)) == (text, joined, sums), n
        assert sums == COUNTER_SUMS.get((n, max_steps), sums)
        if n in FULL_CHAIN_SHA256:
            assert hashlib.sha256(text.encode()).hexdigest() == FULL_CHAIN_SHA256[n]
        if max_steps is None:
            assert report.terminated_at == FULL_CHAIN_LENGTHS.get(n, report.terminated_at)
    report = run_chain(15)
    digest = hashlib.sha256(report.joined.tobytes()).hexdigest()
    assert (digest, report.terminated_at) == FULL_CHAIN_JOINED_SHA256[15]


def test_rank20_chain_holds_no_table_besides_its_join_steps():
    # joined takes 4 MiB at rank 20; finding the first scan by reading all 2^n
    # masks would make int64 arrays of 8 MiB each, and a table of bases 1 MiB more
    run_chain(4, 1)  # numpy's first calls of some functions allocate once
    tracemalloc.start()
    try:
        report = run_chain(20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.joined.nbytes == 4 << 20
    assert peak < 6 << 20, peak


def test_report_walk_holds_its_sort_and_one_cut_array_at_rank18():
    # the walk's stable argsort takes 2 MiB at rank 18, its 88879 step cuts 0.68 MiB as
    # int64, and the int32 steps they are searched with 0.34 MiB while the cuts are made;
    # a list of the cuts, 8-byte pointers to 32-byte ints, would take 3.4 MiB more
    for _ in run_chain(4)._rows():  # numpy's first calls of some functions allocate once
        pass
    report = run_chain(18)
    tracemalloc.start()
    try:
        for _ in report._rows():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * (1 << 20), peak


def test_chain_masks_fit_int32():
    assert (1 << CHAIN_MAX_RANK) - 1 <= np.iinfo(np.int32).max, (
        "the block scan holds a chain's masks in int32: a higher CHAIN_MAX_RANK needs int64 there"
    )


def test_block_scan_width(monkeypatch):
    # a chain's block steps scan int32 masks, normalizing_step's int64 ones
    widths = []

    def spy(cands, members, present, _inner=_kernel._witnesses):
        widths.append((cands.dtype, members.dtype))
        return _inner(cands, members, present)

    monkeypatch.setattr(_kernel, "_witnesses", spy)
    report = run_chain(12)
    kernels = [_kernel._step_kernel(rescanned, cover) for _, rescanned, cover, _ in report.diagnostics[1:]]
    blocks = kernels.count("block")
    assert blocks and widths == [(np.int32, np.int32)] * blocks
    widths.clear()
    normalizing_step(translation_normalizer_set(12))
    assert widths == [(np.int64, np.int64)]


def test_chain_scale_guard_refuses_before_work(monkeypatch):
    assert CHAIN_MAX_RANK == 20
    with pytest.raises(ScaleGuardError):
        run_chain(30)
    with pytest.raises(ScaleGuardError):
        run_chain(40, 1)
    monkeypatch.setattr(chain, "CHAIN_MAX_RANK", 4)
    with pytest.raises(ScaleGuardError):
        run_chain(5)
    assert run_chain(4).reached_full


def test_report_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_chain(0)
    with pytest.raises(ValueError):
        run_chain(4, -1)
    # a bool or a non-int is refused, not run as a rank or a budget
    for args in ((True,), (1.0,), ("3",), (3, True), (3, 2.5)):
        with pytest.raises(ValueError):
            run_chain(*args)
