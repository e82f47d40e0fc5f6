"""The engine's chain against a scalar reference that shares none of its code."""

import ast
from pathlib import Path

import pytest

from rigidcomm import run_chain
from rigidcomm.rigid import commutator_mask
from reference_chain import product, reference_chain


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


@pytest.mark.parametrize("n", range(3, 15))
def test_full_chain_matches_the_reference_chain(n):
    report = run_chain(n)
    joined, steps = reference_chain(n)
    assert (report.joined.tolist(), report.terminated_at) == (joined, steps)
