"""Append one A/B record to a ``BENCH_<workload>.json`` trajectory file.

Run perfbench alternately on the parent commit and on the change, keep
each run's result file (``.perfbench_out/<workload>-seed<S>-trace0.json``
is overwritten by the next run, so copy it aside), then::

    python3 tools/bench_record.py --workload trace \\
        --parent-commit a90cc21 --change "flat trace storage" \\
        --parent runs/parent-*.json --change-runs runs/change-*.json

The record holds the host metadata of the runs and, for every
end-to-end metric in ``BENCHMARK.json``, the median and quartiles of
each side, the ratio of the medians and, when the two sides have the
same number of runs, how many index-matched pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summary(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def load_runs(paths: List[str], workload: str) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if run["workload"] != workload or run["trace"] != 0:
            raise SystemExit(f"{path}: not a --trace 0 {workload} run")
        if not run["correct"] or run["failed"]:
            raise SystemExit(f"{path}: incorrect or failed operations")
        runs.append(run)
    return runs


def record(workload: str, parent_commit: str, change: str,
           parent: List[dict], changed: List[dict]) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    hosts = {json.dumps(run["host"], sort_keys=True)
             for run in parent + changed}
    if len(hosts) != 1:
        raise SystemExit(f"runs come from different hosts: {hosts}")
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in changed]
        entry = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": summary(before),
            "change": summary(after),
        }
        base = entry["parent"]["median"]
        entry["ratio"] = entry["change"]["median"] / base if base else None
        if len(before) == len(after):
            sign = 1 if spec["better"] == "higher" else -1
            entry["pairs_won"] = sum(
                1 for a, b in zip(before, after) if sign * (b - a) > 0)
        metrics[name] = entry
    first = changed[0]
    return {
        "parent_commit": parent_commit,
        "change": change,
        "host": first["host"],
        "seed": first["seed"],
        "seconds": first["seconds"],
        "runs": {"parent": len(parent), "change": len(changed)},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change", required=True,
                        help="one line naming the change")
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result files of the parent's runs")
    parser.add_argument("--change-runs", nargs="+", required=True,
                        help="result files of the change's runs")
    parser.add_argument("--out", help="default: BENCH_<workload>.json "
                        "at the repository root")
    args = parser.parse_args(argv)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    entry = record(args.workload, args.parent_commit, args.change,
                   load_runs(args.parent, args.workload),
                   load_runs(args.change_runs, args.workload))
    trajectory = {"workload": args.workload, "records": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            trajectory = json.load(handle)
    trajectory["records"].append(entry)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    print(f"{out}: {len(trajectory['records'])} record(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
