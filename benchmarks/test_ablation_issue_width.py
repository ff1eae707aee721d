"""Ablation A7 (extension): revisiting the reservoir argument.

The paper explains Table 3's tiny gain from a second RSTU->FU data path
with a flow argument: decode fills the reservoir at one instruction per
cycle, so a wider drain is rarely usable.  The corollary -- untestable
on the paper's machine -- is that widening the *fill* should make the
second drain path pay.  This ablation widens decode to two instructions
per cycle and crosses it with the dispatch-path count.
"""

from repro.analysis import run_suite
from repro.machine import MachineConfig

from conftest import emit

POINTS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_issue_width_vs_dispatch_paths(benchmark, loops, baseline,
                                       results_dir):
    def sweep():
        rows = {}
        for width, paths in POINTS:
            config = MachineConfig(
                window_size=25, issue_width=width, dispatch_paths=paths
            )
            for engine in ("rstu", "ruu-bypass"):
                result = run_suite(engine, loops, config)
                rows[(engine, width, paths)] = result
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation A7: issue width x dispatch paths (25 entries)",
        f"{'Engine':>12s} {'Width':>6s} {'Paths':>6s} {'Speedup':>9s} "
        f"{'Issue Rate':>11s}",
    ]
    for (engine, width, paths), result in sorted(rows.items()):
        lines.append(
            f"{engine:>12s} {width:6d} {paths:6d} "
            f"{baseline.cycles / result.cycles:9.3f} "
            f"{result.issue_rate:11.3f}"
        )
    emit(results_dir, "ablation_issue_width", "\n".join(lines))

    for engine in ("rstu", "ruu-bypass"):
        narrow = rows[(engine, 1, 1)].cycles
        wide_drain = rows[(engine, 1, 2)].cycles
        wide_fill = rows[(engine, 2, 1)].cycles
        wide_both = rows[(engine, 2, 2)].cycles
        # Table 3's result: second drain barely helps at 1-wide fill...
        gain_at_1 = narrow / wide_drain
        assert gain_at_1 < 1.10, engine
        # ...but the reservoir argument's corollary holds: at 2-wide
        # fill, the second drain path is worth strictly more.
        gain_at_2 = wide_fill / wide_both
        assert gain_at_2 > gain_at_1, engine
        # and widening helps overall
        assert wide_both <= narrow, engine
