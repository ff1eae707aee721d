"""Interleaved in-process A/B timing of the engines against a parent rev.

Separate processes time a 1% engine change poorly: their spread on a
shared 2-core host is about 5%.  This tool loads both trees into one
process instead and runs every point of the ``zoo`` grid on each, in
alternating order, so host drift hits both sides alike::

    python3 tools/ab_engines.py --parent HEAD~1 --rounds 4
    python3 tools/ab_engines.py --parent HEAD --engines ruu-bypass,simple

``--parent REV`` extracts ``src/repro`` at ``REV`` with ``git archive``
into a temporary directory as the package ``repro_parent``; the change
is the working tree's ``src/repro``.  The grid is the ``zoo``
workload's: the quick Livermore loops plus its two generated programs
(seed 1), at windows 12 and 50, and each tree builds its own
workloads.  Every point must give the same ``canonical_result_bytes``
on both trees.  A point's time is its engine's build plus ``run()``,
as in ``zoo``'s ``sim_inst_per_s``.  Each round prints the parent's
time over the change's (above 1: the change is faster), then the
per-engine ratios cumulated over the rounds so far.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WINDOWS = (12, 50)


class Tree:
    """One importable copy of the package and the ``zoo`` grid it
    builds for itself."""

    def __init__(self, package: str, seed: int) -> None:
        sweeps = importlib.import_module(f"{package}.analysis.sweeps")
        config = importlib.import_module(f"{package}.machine.config")
        generator = importlib.import_module(f"{package}.workloads.generator")
        suites = importlib.import_module(f"{package}.workloads.suites")
        protocol = importlib.import_module(f"{package}.serve.protocol")
        self.factories = sweeps.ENGINE_FACTORIES
        self.canonical = protocol.canonical_result_bytes
        self.configs = {
            window: config.CRAY1_LIKE.with_(window_size=window)
            for window in WINDOWS
        }
        spec = generator.GeneratorSpec
        generated = [
            generator.generate_workload(spec(
                streams=2, memory_fraction=0.5, working_set=4,
                branch_every=0, iterations=8, body_ops=16, seed=seed,
            )),
            generator.generate_workload(spec(
                streams=3, memory_fraction=0.25, working_set=64,
                branch_every=3, iterations=8, body_ops=16, seed=seed + 1,
            )),
        ]
        programs = suites.livermore_suite("quick")
        self.programs = {
            workload.name: workload for workload in programs
        }
        self.programs["gen-alias"], self.programs["gen-branchy"] = generated

    def run(self, engine: str, program: str, window: int):
        """Build and run one point; returns (seconds, result bytes,
        instructions)."""
        workload = self.programs[program]
        memory = workload.make_memory()
        started = time.perf_counter()
        built = self.factories[engine](
            workload.program, self.configs[window], memory)
        result = built.run()
        seconds = time.perf_counter() - started
        return seconds, self.canonical(result), result.instructions


def extract_parent(rev: str, into: str) -> str:
    """Extract ``src/repro`` at ``rev`` as ``<into>/repro_parent`` and
    make it importable; returns the package name."""
    archive = subprocess.run(
        ["git", "archive", rev, "src/repro"], cwd=ROOT, check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    os.rename(os.path.join(into, "src", "repro"),
              os.path.join(into, "repro_parent"))
    sys.path.insert(0, into)
    return "repro_parent"


def compare(parent: Tree, change: Tree, rounds: int,
            engines: Sequence[str], programs: Sequence[str],
            out=sys.stdout) -> Dict[str, Tuple[float, float]]:
    """Run the grid ``rounds`` times on both trees, interleaved; returns
    engine -> (parent seconds, change seconds) over all rounds."""
    totals = {engine: [0.0, 0.0] for engine in engines}
    points = [(engine, program, window) for engine in engines
              for program in programs for window in WINDOWS]
    for engine in engines:  # untimed: a fresh process starts slow
        parent.run(engine, programs[0], WINDOWS[0])
        change.run(engine, programs[0], WINDOWS[0])
    flip = False
    for index in range(rounds):
        round_totals = [0.0, 0.0]
        instructions = 0
        for point in points:
            gc.collect()
            sides = ((0, parent), (1, change))
            if flip:
                sides = sides[::-1]
            flip = not flip
            timings = [None, None]
            for side, tree in sides:
                timings[side] = tree.run(*point)
            old, new = timings
            if old[1] != new[1]:
                raise SystemExit(f"{point}: results differ between trees")
            totals[point[0]][0] += old[0]
            totals[point[0]][1] += new[0]
            round_totals[0] += old[0]
            round_totals[1] += new[0]
            instructions += new[2]
        print(f"round {index + 1}: parent {round_totals[0]:.3f} s, "
              f"change {round_totals[1]:.3f} s, "
              f"{round_totals[0] / round_totals[1]:.3f}x "
              f"({instructions} inst per tree)", file=out)
    for engine in engines:
        old, new = totals[engine]
        print(f"  {engine:16s} {old / new:.3f}x", file=out)
    old = sum(pair[0] for pair in totals.values())
    new = sum(pair[1] for pair in totals.values())
    print(f"  {'all':16s} {old / new:.3f}x", file=out)
    return {engine: (pair[0], pair[1]) for engine, pair in totals.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree to")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--engines", default="",
                        help="comma-separated engine names (default: all)")
    parser.add_argument("--programs", default="",
                        help="comma-separated Livermore names or "
                             "gen-alias/gen-branchy (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as scratch:
        parent = Tree(extract_parent(args.parent, scratch), seed=1)
        change = Tree("repro", seed=1)
        engines = args.engines.split(",") if args.engines \
            else sorted(change.factories)
        programs = args.programs.split(",") if args.programs \
            else list(change.programs)
        compare(parent, change, args.rounds, engines, programs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
