#!/usr/bin/env python3
"""Compare every issue mechanism in the repository on real workloads.

Runs the paper's design ladder -- simple issue, Tomasulo, Tag Unit,
RS pool, RSTU, the three RUU bypass variants, the speculative RUU, and
the four Smith & Pleszkun precise machines -- on a selection of
Livermore loops, and prints a speedup/issue-rate comparison.

Run:  python examples/compare_issue_mechanisms.py [loop numbers...]
"""

import sys

from repro import MachineConfig, run_suite
from repro.workloads import LIVERMORE_FACTORIES

ORDER = [
    "simple",
    "dispatch-stack",
    "tomasulo",
    "tagunit",
    "rspool",
    "rstu",
    "ruu-bypass",
    "ruu-limited",
    "ruu-nobypass",
    "spec-ruu",
    "reorder-buffer",
    "rob-bypass",
    "history-buffer",
    "future-file",
]

PRECISE = {
    "ruu-bypass", "ruu-limited", "ruu-nobypass", "spec-ruu",
    "reorder-buffer", "rob-bypass", "history-buffer", "future-file",
}

OOO = {
    "dispatch-stack", "tomasulo", "tagunit", "rspool", "rstu",
    "ruu-bypass", "ruu-limited", "ruu-nobypass", "spec-ruu",
}


def main(argv) -> None:
    numbers = [int(arg) for arg in argv[1:]] or [1, 3, 5, 7, 12]
    workloads = [LIVERMORE_FACTORIES[n]() for n in numbers]
    names = "+".join(w.name for w in workloads)
    config = MachineConfig(window_size=12)

    print(f"workloads: {names}   (window/buffer size 12)\n")
    header = (
        f"{'mechanism':>16s} {'cycles':>9s} {'speedup':>8s} "
        f"{'issue rate':>11s} {'OoO?':>5s} {'precise?':>9s}"
    )
    print(header)
    print("-" * len(header))

    baseline = None
    for name in ORDER:
        result = run_suite(name, workloads, config)
        if baseline is None:
            baseline = result
        print(
            f"{name:>16s} {result.cycles:9d} "
            f"{baseline.cycles / result.cycles:8.3f} "
            f"{result.issue_rate:11.3f} "
            f"{'yes' if name in OOO else 'no':>5s} "
            f"{'yes' if name in PRECISE else 'no':>9s}"
        )

    print(
        "\nNote the two families: reordering added to an in-order machine "
        "(reorder-buffer rows) costs performance, while the RUU gets "
        "precision and out-of-order speedup from the same structure."
    )


if __name__ == "__main__":
    main(sys.argv)
