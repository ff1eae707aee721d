#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first failed check.
It checks that:

- a minimum-length run of each workload prints every end-to-end metric
  of BENCHMARK.json with its unit, correct and with no failures;
- a traced run prints every per-layer metric with its unit;
- a corrupted digest entry and an invalid ``serve`` request each show up
  as failed operations;
- without ``src/repro`` the benchmark exits non-zero and prints no
  result.
"""

import json
import os
import shutil
import subprocess
import sys

import common
import run as bench

SEED = 3


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_cli(workload: str, trace: int, cwd: str = common.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_report(label: str, completed, kind: str) -> dict:
    check(completed.returncode == 0,
          f"{label} exits 0 ({completed.stderr[-300:]!r})")
    report = last_json(completed.stdout)
    check(set(report) == {"correct", "attempted", "failed", "metrics"},
          f"{label} prints the four result keys")
    units = common.units(kind)
    check({name: entry["unit"] for name, entry in report["metrics"].items()}
          == units, f"{label} prints every {kind} metric with its unit")
    check(report["correct"] and report["failed"] == 0
          and report["attempted"] >= 1,
          f"{label} is correct with no failed operations")
    return report


def context(digest=None):
    return bench.Context(seed=SEED, seconds=1.0,
                         digest=digest or common.load_digest(),
                         scratch=common.Scratch())


def main() -> int:
    for workload in bench.WORKLOADS:
        check_report(f"{workload} --trace 0", run_cli(workload, 0),
                     "end_to_end")
    report = check_report("zoo --trace 1", run_cli("zoo", 1), "per_layer")
    check(report["metrics"]["obs.unaccounted"]["value"] == 0,
          "obs.unaccounted is 0")

    digest = common.load_digest()
    ctx = context(digest)
    state = bench.wl_zoo.setup(ctx)
    key = next(k for k in digest["zoo"] if k.split("|")[1] ==
               state.programs[0].name)
    digest["zoo"][key] = "0" * 64
    outcome, _, _ = bench.wl_zoo.run(state, 1.0)
    # A repeated interval checks the point again, so it may fail twice.
    check(outcome.failed >= 1 and not outcome.correct,
          "a corrupted digest entry is a failed, incorrect operation")

    ctx = context()
    state = bench.wl_serve.setup(ctx)
    try:
        bogus = next(r for segment in state.segments for r in segment
                     if r.kind == "program")
        bogus.payload = {"program": "NOT_AN_OPCODE A1"}
        outcome, _, _ = bench.wl_serve.run(state, 1.0)
    finally:
        bench.wl_serve.teardown(state)
        ctx.scratch.cleanup()
    check(outcome.failed == 1 and outcome.correct,
          "an invalid serve request is one failed operation")

    scratch = common.Scratch()
    try:
        bare = scratch.new_dir("bare")
        shutil.copytree(common.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.SPEC_PATH, bare)
        completed = run_cli("zoo", 0, cwd=bare)
    finally:
        scratch.cleanup()
    check(completed.returncode != 0 and not completed.stdout.strip(),
          "without src/repro it exits non-zero and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
