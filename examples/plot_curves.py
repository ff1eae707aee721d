#!/usr/bin/env python3
"""Plot the paper's speedup curves as terminal ASCII charts.

Runs reduced-grid versions of Tables 2 and 4-6 and renders the four
mechanisms on one chart -- the saturating shapes and the
full > limited > none bypass ordering are visible at a glance.

Run:  python examples/plot_curves.py
"""

from repro import run_suite, sweep_sizes
from repro.analysis import ascii_chart
from repro.workloads import all_loops

SIZES = [3, 5, 8, 12, 20, 30, 50]


def main() -> None:
    loops = all_loops()
    baseline = run_suite("simple", loops)
    curves = {}
    for engine in ("rstu", "ruu-bypass", "ruu-limited", "ruu-nobypass"):
        sweep = sweep_sizes(engine, SIZES, workloads=loops,
                            baseline=baseline)
        curves[engine] = sweep.speedups()
        print(f"measured {engine}")
    print()
    print(ascii_chart(
        curves,
        width=64,
        height=18,
        title="Speedup over simple issue vs. window entries "
              "(Tables 2, 4, 5, 6)",
        y_label="window entries",
    ))


if __name__ == "__main__":
    main()
