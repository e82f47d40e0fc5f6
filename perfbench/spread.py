"""Median and quartile spread of each metric over a set of run records.

Usage: python3 perfbench/spread.py RECORD.json... [--write SUMMARY.json]

Records are the files ``run.py`` writes with ``--out``.  For every
workload and metric this prints the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    grouped = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    envs = {}
    for r in records:
        key = f"{r['workload']}/trace{r['trace']}"
        seeds[key].append(r["seed"])
        envs[key] = r["env"]
        for name, m in r["metrics"].items():
            grouped[key][name].append(m["value"])
    out = {}
    for key, metrics in grouped.items():
        rows = {}
        for name, values in metrics.items():
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else None
            else:
                spread = None
            rows[name] = {"median": median, "iqr_share": spread, "values": values}
        out[key] = {"seeds": seeds[key], "env": envs[key], "metrics": rows}
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="+", type=Path)
    p.add_argument("--write", type=Path, help="also write the summary here as JSON")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = summarize([json.loads(path.read_text()) for path in args.records])
    for key, block in sorted(summary.items()):
        print(f"{key}  ({len(block['seeds'])} runs)")
        for name, row in block["metrics"].items():
            spread = "n/a" if row["iqr_share"] is None else f"{row['iqr_share']:.4f}"
            bound = bounds.get(name)
            flag = ""
            if bound is not None and row["iqr_share"] is not None and name != "setup_s":
                flag = "  ok" if row["iqr_share"] < bound / 3 else "  WIDE"
            print(f"  {name:42s} median {row['median']:<12.6g} spread {spread:8s}"
                  f" bound {bound if bound is not None else '-'}{flag}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
