"""Benchmark of the rigidcomm engine: whole workloads and per-module layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-full --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``workloads.py``): ``chain-full``, ``chain-prefix`` and
``queries``; ``all`` runs each in a fresh child process, one after the
other.  A run

1. times import plus the workload's set-up in fresh processes
   (``setup_s``, the median of several);
2. imports the engine from ``src/``, sets up and makes the inputs from
   ``--seed``;
3. repeats the timed batch until ``--seconds`` have passed (at least
   once) and reports the median over batches of the batch time
   (``wall_s``) and of the per-operation latency percentiles
   (``query_p50_ms``, ``query_p90_ms``; an operation is one query, or
   for the chain workloads the whole batch), and the process's
   peak resident memory after one batch (``peak_rss_mb``);
4. checks every output outside the timed region; any failed check makes
   the exit code 1;
5. with ``--trace 1``, runs one untraced batch (for the gate and the
   baseline), then the batch once more under the tracer, and reports
   the per-layer metrics instead, including the tracing overhead
   (traced minus untraced batch time, both raw wall-clock).  A traced
   run skips the set-up probes and the time budget.

Batch and operation times are in reference seconds: wall-clock time
scaled by the host speed sampled next to it (see ``speed.py``), because
the speed of a shared host drifts by up to 2x within a minute.  The raw
wall-clock figures are kept in the record.  ``setup_s`` and per-layer
span times are raw: the speed kernel does not track process start and
import, and scaling the set-up probes made them spread more, not less.

The metric names and units printed are those declared in
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record (environment, samples, spans) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3

import speed  # noqa: E402  (the script's directory is on sys.path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="time budget for the repeated batch (at least one batch runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path,
                   help="record file (default perfbench/out/<workload>-seed<seed>-trace<trace>.json)")
    return p.parse_args(argv)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def environment(load: tuple) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load),
    }


def probe_setup(name: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _step_yield(args, kwargs, result) -> dict:
    """New members and candidates of one ``normalizing_step`` call."""
    before = args[0] if args else kwargs.get("M")
    try:
        after = getattr(result, "masks", result)
        return {"new": len(set(after) - set(before.masks)), "candidates": (1 << before.n) - 1}
    except (AttributeError, TypeError):
        return {}


def per_layer_metrics(tr: tracing.Tracer, names: list[str], traced_s: float,
                      untraced_s: float, step_seconds: list[float]) -> dict[str, float]:
    """The per-layer metrics ``names`` from a traced batch."""
    stats = tracing.span_stats(tr.spans)
    step = stats.get("saturated.normalizing_step", {"ms": [], "meta": []})
    new = sum(m.get("new", 0) for m in step["meta"])
    candidates = sum(m.get("candidates", 0) for m in step["meta"])
    special = {
        "saturated.normalizing_step.yield_ratio": new / candidates if candidates else 0.0,
        "saturated.normalizing_step.share": sum(step["ms"]) / 1e3 / traced_s,
        "chain.step_p50_ms": tracing.percentile(step_seconds, 0.5) * 1e3,
        "chain.step_p90_ms": tracing.percentile(step_seconds, 0.9) * 1e3,
        "traced_wall_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
    }
    return {
        name: special[name] if name in special else tracing.layer_metric(stats, tr.counts, name)
        for name in names
    }


def run_workload(args) -> int:
    load = os.getloadavg()
    declared = declared_metrics()
    env = environment(load)
    # set-up time is an end-to-end metric, not reported by a traced run
    setup_samples = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    rc = workloads.import_engine()
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(rc)
    inputs = workload.inputs(rc, args.seed)
    gate = workloads.Gate()

    batch_s, raw_batch_s, latencies, raw_latencies = [], [], [], []
    first = None
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        # a traced run needs one untraced batch, for the gate and the overhead
        while first is None or not args.trace and time.perf_counter() - start < args.seconds:
            outputs, intervals = workload.batch(rc, inputs)
            op_s = [sampler.reference_seconds(t0, t1) for t0, t1 in intervals]
            batch_s.append(sum(op_s))
            raw_batch_s.append(intervals[-1][1] - intervals[0][0])
            latencies.append(op_s)
            raw_latencies.append([t1 - t0 for t0, t1 in intervals])
            if first is None:
                first = outputs
                # high-water mark of set-up plus one batch, whatever the batch count
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            else:
                gate.same(f"batch {len(batch_s)}", first, outputs)
            del outputs
    workload.check(rc, inputs, first, gate)

    wall_s = statistics.median(batch_s)
    computed = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_samples) if setup_samples else None,
        "peak_rss_mb": peak_rss_mb,
        # per batch, then the median over batches, like wall_s
        "query_p50_ms": statistics.median(tracing.percentile(b, 0.5) for b in latencies) * 1e3,
        "query_p90_ms": statistics.median(tracing.percentile(b, 0.9) for b in latencies) * 1e3,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setup_samples,
        "batch_samples_s": batch_s, "raw_batch_samples_s": raw_batch_s,
        "op_samples_s": latencies, "raw_op_samples_s": raw_latencies,
        "speed_samples_s": sampler.durations,
    }
    kind = "end_to_end"
    if args.trace:
        kind = "per_layer"
        with tracing.Tracer({"saturated.normalizing_step": _step_yield}) as tr:
            t0 = time.perf_counter()
            traced, _ = workload.batch(rc, inputs)
            traced_s = time.perf_counter() - t0
        gate.same("traced batch", first, traced)
        names = [m["name"] for m in declared["per_layer"]]
        computed.update(per_layer_metrics(tr, names, traced_s, raw_batch_s[0],
                                          workload.step_seconds(first)))
        record["trace_data"] = tr.to_json()

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    record.update(
        attempted=gate.attempted, failed=gate.failed, failures=gate.failures,
        failed_ops_ratio=gate.failed / gate.attempted, metrics=metrics,
        end_to_end={k: computed[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "query_p50_ms", "query_p90_ms")},
    )
    out = args.out or HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} env={json.dumps(env)}")
    print(f"# batches={len(batch_s)} queries_per_batch={len(latencies[0])} setup_probes={len(setup_samples)}")
    for label in gate.failures[:20]:
        print(f"# FAILED: {label}")
    print(f"# failed_ops_ratio = {gate.failed}/{gate.attempted} checks")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh child process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rigidcomm" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {ROOT / 'src' / 'rigidcomm'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
