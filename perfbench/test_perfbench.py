"""Tests of the benchmark itself: span arithmetic, the tracer, the gate.

Run with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from tracer import Span

ROOT = Path(__file__).resolve().parent.parent


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 3.0, 6.0),   # overlaps a: [1, 6] is covered once
        Span("c", 0, 8.0, 12.0),  # runs past its parent: clipped to [8, 10]
        Span("a.child", 1, 2.0, 3.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    stats = tracer.span_stats(spans)
    assert stats["root"]["calls"] == 1
    assert stats["a"]["self_s"] == pytest.approx(2.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracer.percentile(values, 0.5) == 50
    assert tracer.percentile(values, 0.9) == 90
    assert tracer.percentile([], 0.9) == 0.0


def test_missing_or_uncalled_names_report_zero():
    stats = tracer.span_stats([Span("chain.run_chain", -1, 0.0, 1.0)])
    assert tracer.layer_metric(stats, {}, "saturated.no_such_function.calls") == 0
    assert tracer.layer_metric(stats, {}, "saturated.no_such_function.p90_ms") == 0
    assert tracer.layer_metric(stats, {}, "rigid.commutator_mask.calls") == 0


def _bindings(rc):
    out = {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == "rigidcomm" or name.startswith("rigidcomm.")
        for attr, val in vars(mod).items()
    }
    out[("SaturatedSet", "__init__")] = vars(rc.SaturatedSet)["__init__"]
    return out


@pytest.fixture(scope="module")
def traced_small_run():
    rc = workloads.import_engine()
    before = _bindings(rc)
    prefix = workloads.ChainPrefix(ranks=range(3, 8))
    queries = workloads.Queries(rank=5, per_kind=4)
    queries.setup(rc)
    q_inputs = queries.inputs(rc, seed=3)
    with tracer.Tracer({"saturated.normalizing_step": run._step_yield}) as tr:
        inside = _bindings(rc)
        prefix_out, _ = prefix.batch(rc, prefix.inputs(rc, seed=3))
        queries.batch(rc, q_inputs)
    return rc, before, inside, _bindings(rc), tr, prefix_out


def test_tracer_patches_imported_names_and_restores_every_attribute(traced_small_run):
    rc, before, inside, after, tr, _ = traced_small_run
    for key in [("rigidcomm.chain", "normalizing_step"),
                ("rigidcomm.saturated", "commutator_mask"),
                ("SaturatedSet", "__init__")]:
        assert inside[key] is not before[key], key
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_traced_run_sees_calls_through_every_binding(traced_small_run):
    _, _, _, _, tr, _ = traced_small_run
    stats = tracer.span_stats(tr.spans)
    assert stats["saturated.normalizing_step"]["calls"] > 0  # bound in rigidcomm.chain
    assert stats["saturated.SaturatedSet"]["calls"] > 0  # built in rigidcomm.partitions
    assert stats["saturated.factorize"]["calls"] == 4
    assert tr.counts["rigid.commutator_mask"] > 0  # bound in rigidcomm.saturated
    assert "rigid.commutator_mask" not in stats


def test_every_declared_per_layer_metric_resolves(traced_small_run):
    _, _, _, _, tr, prefix_out = traced_small_run
    names = [m["name"] for m in run.declared_metrics()["per_layer"]]
    computed = run.per_layer_metrics(tr, names, 1.0, 0.5, workloads.ChainPrefix.step_seconds(prefix_out))
    assert list(computed) == names
    assert 0 < computed["saturated.normalizing_step.yield_ratio"] < 1
    assert computed["rigid.commutator_mask.calls"] == tr.counts["rigid.commutator_mask"] > 0


def _checkout_copy(tmp_path, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def test_corrupted_reference_row_fails_the_command(tmp_path):
    root = _checkout_copy(tmp_path)
    ref = root / "perfbench" / "reference.py"
    good = "5: (1, 2, 4, 1, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0),"
    assert good in ref.read_text()
    ref.write_text(ref.read_text().replace(good, "5: (1, 2, 4, 1, 2, 2, 1, 1, 1, 2, 0, 0, 0, 0),"))
    done = _run(root, "--workload", "chain-prefix", "--seed", "1", "--seconds", "0")
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "rank 5 index row" in done.stdout


def test_without_engine_source_the_command_fails_without_a_result(tmp_path):
    root = _checkout_copy(tmp_path, with_src=False)
    done = _run(root, "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
