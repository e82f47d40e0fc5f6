"""The engine's chain against a scalar reference that shares none of its code."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rigidcomm import run_chain
from rigidcomm.rigid import commutator_mask
from reference_chain import product, reference_chain

# the identity, each single bit 2^(b-1) and each full interval 2^b - 1 below 2^63,
# 2^62 and 2^63 - 1 among them
EDGES = sorted({0, *(1 << b for b in range(63)), *((1 << b) - 1 for b in range(1, 64))})


def test_reference_imports_nothing():
    # neither the chain nor saturated nor rigid can be on both sides of a comparison
    tree = ast.parse(Path(__file__).with_name("reference_chain.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_reference_product_rule_matches_commutator_mask():
    # every pair of masks below 2^8 is every pair at ranks 1..8
    masks = range(1 << 8)
    assert [product(x, y) for x in masks for y in masks] == [
        commutator_mask(x, y) for x in masks for y in masks
    ]


def test_reference_product_rule_matches_commutator_mask_on_edge_masks():
    assert [product(x, y) for x in EDGES for y in EDGES] == [
        commutator_mask(x, y) for x in EDGES for y in EDGES
    ]


@given(st.integers(9, 63), st.data())
def test_reference_product_rule_matches_commutator_mask_above_rank_8(n, data):
    mask = st.one_of(st.integers(0, (1 << n) - 1), st.sampled_from([m for m in EDGES if m < 1 << n]))
    x, y = data.draw(mask), data.draw(mask)
    assert commutator_mask(x, y) == commutator_mask(y, x) == product(x, y)


@pytest.mark.parametrize("n", range(3, 15))
def test_full_chain_matches_the_reference_chain(n):
    report = run_chain(n)
    joined, steps = reference_chain(n)
    assert (report.joined.tolist(), report.terminated_at) == (joined, steps)
