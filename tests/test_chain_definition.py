"""Each step of the chain checked from the definition of a normalizer.

The check, in ``chain_definition.py``, reads only a report's join table
and its own copy of the product rule, so it shares no rule with the
driver: not the witness, the cover or the wake rule.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rigidcomm import RigidCommutator, run_chain, saturate, translation_set
from rigidcomm._kernel import _NEVER
from rigidcomm.chain import _run
import chain_definition
from chain_definition import blocked_steps_faults


@pytest.mark.parametrize("n", range(2, 13))
def test_full_chains_meet_the_definition(n):
    report = run_chain(n)
    assert report.reached_full and (report.joined[1:] <= report.terminated_at).all()
    assert blocked_steps_faults(report.joined, report.terminated_at) == []


@pytest.mark.parametrize("n", range(6, 17))
def test_budget_prefixes_meet_the_definition(n):
    # the last term's normalizer was not computed, so its masks outside are unchecked there
    report = run_chain(n, 14)
    assert not report.reached_full and report.terminated_at == 14
    assert blocked_steps_faults(report.joined, report.terminated_at) == []


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 9), data=st.data())
def test_chains_from_saturated_starts_meet_the_definition_from_step_0(n, data):
    # term 0 is the start, not the normalizer of the translations, so step -1 is left out
    extra = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3))
    start = saturate([RigidCommutator(m, n) for m in (*translation_set(n).masks, *extra)], n)
    report = _run(start, data.draw(st.one_of(st.none(), st.integers(1, 12))))
    assert blocked_steps_faults(report.joined, report.terminated_at, first=0) == []


@pytest.mark.parametrize("n", range(4, 11))
def test_the_definition_rejects_a_moved_or_dropped_join(n):
    # a join moved a step later leaves a step it should block unblocked, one moved a step
    # earlier is blocked after it joined, and a dropped mask stays blocked in the full group
    report = run_chain(n)
    joined, last, rng = report.joined, report.terminated_at, random.Random(n)
    for shift in (1, -1):
        c = rng.choice([m for m in range(1, 1 << n) if 0 <= joined[m] and 0 <= joined[m] + shift <= last])
        moved = joined.copy()
        moved[c] += shift
        assert c in blocked_steps_faults(moved, last), (shift, c)
    dropped = joined.copy()
    dropped[rng.choice(np.flatnonzero(joined > 0).tolist())] = _NEVER
    assert blocked_steps_faults(dropped, last) != []


@pytest.mark.parametrize("block", [1, 7, 64])
def test_the_definition_reads_the_same_in_any_block(monkeypatch, block):
    # a row of more than _BLOCK members is read in column chunks that carry the
    # running maximum, which only ranks past 12 need at the full block; small
    # blocks send ranks 4..7 that way, and no verdict moves
    tables = []
    for n in range(4, 8):
        report, rng = run_chain(n), random.Random(n)
        joined, last = report.joined, report.terminated_at
        tables.append((joined, last))
        for shift in (1, -1):
            moved = joined.copy()
            c = rng.choice([m for m in range(1, 1 << n) if 0 <= joined[m] and 0 <= joined[m] + shift <= last])
            moved[c] += shift
            tables.append((moved, last))
        prefix = run_chain(n, 3)
        tables.append((prefix.joined, prefix.terminated_at))
    want = [blocked_steps_faults(joined, last) for joined, last in tables]
    assert [] in want and sum(map(bool, want)) == 8
    monkeypatch.setattr(chain_definition, "_BLOCK", block)
    assert [blocked_steps_faults(joined, last) for joined, last in tables] == want
