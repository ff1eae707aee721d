"""Ablation A3: the paper's design progression as a ladder.

simple -> Tomasulo -> Tag Unit -> RS pool -> RSTU -> RUU, at comparable
resource levels.  Window sizing note: Tomasulo and the Tag Unit use
distributed stations (window_size is per functional unit, 2 each = 24
total across the 12 unit classes); the pooled designs get a 12-entry
pool -- i.e. the pooled machines have *half* the stations of the
distributed ones, which is exactly the sharing argument of §3.2.2.
"""

from repro.analysis import run_suite
from repro.machine import MachineConfig

from conftest import emit

LADDER = [
    ("simple", MachineConfig()),
    ("dispatch-stack", MachineConfig(window_size=12)),  # OoO, no renaming
    ("tomasulo", MachineConfig(window_size=2)),       # 2 stations per FU
    ("tagunit", MachineConfig(window_size=2, n_tags=12)),
    ("rspool", MachineConfig(window_size=12, n_tags=12)),
    ("rstu", MachineConfig(window_size=12)),
    ("ruu-bypass", MachineConfig(window_size=12)),
]


def test_mechanism_ladder(benchmark, loops, baseline, results_dir):
    def run_ladder():
        rows = []
        for name, config in LADDER:
            result = run_suite(name, loops, config)
            rows.append((name, result.cycles,
                         baseline.cycles / result.cycles,
                         result.issue_rate))
        return rows

    rows = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    lines = [
        "Ablation A3: issue-mechanism ladder (comparable resources)",
        f"{'Mechanism':>12s} {'Speedup':>9s} {'Issue Rate':>11s} "
        f"{'Precise?':>9s}",
    ]
    precise = {"ruu-bypass"}
    for name, cycles, spd, rate in rows:
        flag = "yes" if name in precise else "no"
        lines.append(f"{name:>12s} {spd:9.3f} {rate:11.3f} {flag:>9s}")
    emit(results_dir, "ablation_mechanism_ladder", "\n".join(lines))

    by_name = {row[0]: row[1] for row in rows}
    # every dependency-resolving mechanism beats simple issue
    for name in ("dispatch-stack", "tomasulo", "tagunit", "rspool",
                 "rstu", "ruu-bypass"):
        assert by_name[name] < by_name["simple"], name
    # renaming beats the no-renaming dispatch stack [18]
    assert by_name["rstu"] < by_name["dispatch-stack"]
    # the Tag Unit with enough tags matches Tomasulo (same timing, less
    # hardware -- the whole point of §3.2.1)
    assert abs(by_name["tagunit"] - by_name["tomasulo"]) \
        <= 0.02 * by_name["tomasulo"]
    # the RUU pays only a modest price over the (imprecise) RSTU
    assert by_name["ruu-bypass"] <= 1.5 * by_name["rstu"]
