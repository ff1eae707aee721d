"""Ablation A5 (paper §4, after Smith & Pleszkun [5]): what does each
precise-interrupt scheme cost an *in-order* machine -- and what does the
RUU deliver instead?

Asserted orderings (S&P's findings, which §4 of the paper summarizes):
the plain reorder buffer degrades issue; bypass / history buffer /
future file recover nearly all of it; and the RUU turns the tables by
making the reordering hardware *resolve* dependencies rather than
aggravate them.
"""

from repro.analysis import run_suite
from repro.machine import MachineConfig

from conftest import emit

SCHEMES = [
    "simple",           # no precise interrupts at all
    "reorder-buffer",
    "rob-bypass",
    "history-buffer",
    "future-file",
    "ruu-bypass",       # the paper's answer
]


def test_interrupt_scheme_costs(benchmark, loops, baseline, results_dir):
    config = MachineConfig(window_size=12)

    def run_schemes():
        rows = []
        for name in SCHEMES:
            result = run_suite(name, loops, config)
            rows.append((name, result.cycles, result.issue_rate))
        return rows

    rows = benchmark.pedantic(run_schemes, rounds=1, iterations=1)
    lines = [
        "Ablation A5: precise-interrupt schemes (12-entry buffers)",
        f"{'Scheme':>16s} {'Speedup':>9s} {'Issue Rate':>11s} "
        f"{'Precise?':>9s} {'OoO issue?':>11s}",
    ]
    flags = {
        "simple": ("no", "no"),
        "reorder-buffer": ("yes", "no"),
        "rob-bypass": ("yes", "no"),
        "history-buffer": ("yes", "no"),
        "future-file": ("yes", "no"),
        "ruu-bypass": ("yes", "yes"),
    }
    cycles = {}
    for name, cyc, rate in rows:
        cycles[name] = cyc
        precise, ooo = flags[name]
        lines.append(
            f"{name:>16s} {baseline.cycles / cyc:9.3f} {rate:11.3f} "
            f"{precise:>9s} {ooo:>11s}"
        )
    emit(results_dir, "ablation_interrupt_schemes", "\n".join(lines))

    # S&P ordering on the in-order machine:
    assert cycles["reorder-buffer"] > cycles["rob-bypass"]
    assert cycles["rob-bypass"] >= cycles["history-buffer"] * 0.98
    assert abs(cycles["history-buffer"] - cycles["future-file"]) \
        <= 0.02 * cycles["future-file"]
    # the in-order precise schemes all cost something vs plain simple:
    assert cycles["history-buffer"] >= cycles["simple"] * 0.99
    # the RUU gives precision AND a large speedup:
    assert cycles["ruu-bypass"] < cycles["simple"]
    assert cycles["ruu-bypass"] < cycles["reorder-buffer"]
