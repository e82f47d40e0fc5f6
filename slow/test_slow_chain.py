"""Checks too slow for tier-1: full chains at ranks 13..20 and the oracle at bases 17..20.

Run with ``python -m pytest -q slow``; this file's checks take about 125 s on a 2-vCPU host,
76 s of it the definition check at rank 16.
"""

import hashlib
import random

import pytest

from rigidcomm import permutations, run_chain
from chain_definition import blocked_steps_faults
from reference_chain import reference_chain
from test_permutations import check_oracle_at_base

# (sha256 of run_chain(n).joined.tobytes(), terminated_at), recorded from the
# engine that joins a lone woken candidate without a scan, and matched by the
# reference chain at every rank
FULL_CHAIN_JOINED_SHA256 = {
    17: ("27955cf8f66b559ebbb030b50fc94d71da4fbe91b8fd5b1ee6d4337ab05ba9d5", 44800),
    18: ("d02e552cf6fa91b59c1218ba49e4332ecd138f778c66a81bb2ebff3da22c0c43", 88877),
    19: ("bdbad26649988b2492f8dbda4b1720df87e98c18319fe4d5b337d590dfa7a528", 179747),
    20: ("12363436b299ea3e040c93c47383d86fe411e7070965bbfce5cdd92bff25d1c7", 359105),
}


@pytest.mark.parametrize("n", range(15, 19))
def test_full_chain_matches_the_reference_chain(n):
    report = run_chain(n)
    joined, steps = reference_chain(n)
    assert (report.joined.tolist(), report.terminated_at) == (joined, steps)


@pytest.mark.parametrize("n", range(13, 17))
def test_full_chain_meets_the_definition(n):
    report = run_chain(n)
    assert blocked_steps_faults(report.joined, report.terminated_at) == []


@pytest.mark.parametrize("n", sorted(FULL_CHAIN_JOINED_SHA256))
def test_full_chain_join_steps_frozen(n):
    report = run_chain(n)
    digest = hashlib.sha256(report.joined.tobytes()).hexdigest()
    assert (digest, report.terminated_at) == FULL_CHAIN_JOINED_SHA256[n]
    assert report.reached_full


def test_oracle_equivalence_sampled_at_bases_17_to_20(monkeypatch):
    # an image array at rank 20 takes 4 MiB, and each pair keeps a handful alive
    monkeypatch.setattr(permutations, "EXPAND_MAX_RANK", 20)
    rng = random.Random(17)
    for b in range(17, 21):
        check_oracle_at_base(b, 6, rng)
