#!/usr/bin/env python3
"""Regenerate every table of the paper's evaluation in one run.

Prints Tables 1-6 side by side with the paper's published columns, plus
the shape-fidelity summary recorded in EXPERIMENTS.md.  This is the
same machinery the benchmark suite uses (`pytest benchmarks/
--benchmark-only`), packaged as a single script.

Run:  python examples/reproduce_paper.py            (~2-3 minutes)
      python examples/reproduce_paper.py --jobs 4   (parallel sweeps;
      identical tables, limited by your core count)
"""

import argparse
import time

from repro import aggregate
from repro.analysis import (
    ParallelRunner,
    format_sweep_table,
    format_table1,
    paper_data,
    per_loop_baseline,
    shape_report,
    sweep_sizes,
)
from repro.workloads import all_loops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweeps "
                             "(default 1: in this process; 0: one per "
                             "core)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk result cache shared by every run "
                             "that names it")
    args = parser.parse_args()

    runner = ParallelRunner(jobs=args.jobs, cache_dir=args.cache_dir)

    start = time.time()
    loops = all_loops()

    print("Table 1: statistics for the benchmark programs (simple issue)")
    results = per_loop_baseline(loops, runner=runner)
    print(format_table1(results, paper_data.TABLE1_BASELINE))
    print()

    baseline = aggregate(results)

    tables = [
        ("Table 2: RSTU, one dispatch path", "rstu",
         paper_data.RSTU_SIZES, paper_data.TABLE2_RSTU, {}),
        ("Table 3: RSTU, two dispatch paths", "rstu",
         paper_data.RSTU_SIZES, paper_data.TABLE3_RSTU_2PATH,
         {"dispatch_paths": 2}),
        ("Table 4: RUU with bypass logic", "ruu-bypass",
         paper_data.RUU_SIZES, paper_data.TABLE4_RUU_BYPASS, {}),
        ("Table 5: RUU without bypass logic", "ruu-nobypass",
         paper_data.RUU_SIZES, paper_data.TABLE5_RUU_NOBYPASS, {}),
        ("Table 6: RUU with limited bypass (A future file)", "ruu-limited",
         paper_data.RUU_SIZES, paper_data.TABLE6_RUU_LIMITED, {}),
    ]

    for title, engine, sizes, paper_table, overrides in tables:
        sweep = sweep_sizes(engine, sizes, workloads=loops,
                            baseline=baseline, runner=runner, **overrides)
        print(format_sweep_table(sweep, paper_table, title))
        paper_curve = {s: v[0] for s, v in paper_table.items()}
        report = shape_report(sweep.speedups(), paper_curve, title)
        print(
            f"  shape: spearman={report['spearman']:.3f}  "
            f"monotone={report['monotonic_fraction']:.2f}  "
            f"saturation(meas/paper)="
            f"{report['saturation_measured']}/"
            f"{report['saturation_paper']}  "
            f"final(meas/paper)={report['final_measured']:.3f}/"
            f"{report['final_paper']:.3f}"
        )
        print()

    print(f"total wall time: {time.time() - start:.1f}s")
    if runner.points_run:
        print(
            f"sweep runner: {runner.points_run} points over "
            f"{runner.jobs} jobs, {runner.host_seconds:.1f}s simulator "
            f"time in {runner.wall_seconds:.1f}s wall, "
            f"cache {runner.hits} hits / {runner.misses} misses"
        )


if __name__ == "__main__":
    main()
