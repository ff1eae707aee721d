"""Ablations A8 and A9: commit bandwidth and interrupt response time.

A8 -- the RUU-to-register-file path is the no-bypass machine's only way
to obtain values whose producers completed before the consumer issued,
so commit bandwidth matters there and nowhere else.

A9 -- precise-interrupt response time: a trap is taken when the
faulting instruction reaches the RUU head, so the response time is the
commit-drain of everything older.  It grows with occupancy -- the
latency cost of a big window, a trade-off the paper does not quantify.
"""

from repro.analysis import run_suite
from repro.core import RUUEngine
from repro.machine import MachineConfig
from repro.obs import TraceRecorder
from repro.workloads import fault_probe

from conftest import emit


def test_commit_bandwidth(benchmark, loops, baseline, results_dir):
    def sweep():
        rows = []
        for engine in ("ruu-bypass", "ruu-nobypass"):
            for paths in (1, 2):
                config = MachineConfig(window_size=20, commit_paths=paths)
                result = run_suite(engine, loops, config)
                rows.append((engine, paths, result.cycles,
                             result.issue_rate))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation A8: RUU commit (RUU->register file) bandwidth",
        f"{'Engine':>14s} {'Paths':>6s} {'Speedup':>9s} {'Rate':>7s}",
    ]
    cycles = {}
    for engine, paths, cyc, rate in rows:
        cycles[(engine, paths)] = cyc
        lines.append(
            f"{engine:>14s} {paths:6d} {baseline.cycles / cyc:9.3f} "
            f"{rate:7.3f}"
        )
    emit(results_dir, "ablation_commit_bandwidth", "\n".join(lines))

    # bypassed RUU: commit bandwidth is nearly irrelevant
    assert abs(cycles[("ruu-bypass", 2)] - cycles[("ruu-bypass", 1)]) \
        <= 0.01 * cycles[("ruu-bypass", 1)]
    # no-bypass RUU: dependents drain via the commit bus -> real gain
    gain = cycles[("ruu-nobypass", 1)] / cycles[("ruu-nobypass", 2)]
    assert gain > 1.03


def test_interrupt_response_and_squash_cost(benchmark, results_dir):
    """A9: what a precise trap costs, versus RUU size.

    Two metrics per window size, fault injected early in a loop:

    * response time (detection -> trap): stays ~constant and tiny --
      the single result bus limits completions to one per cycle, so the
      in-order commit stage never builds a backlog and the head reaches
      the faulting instruction almost immediately;
    * squashed younger instructions: grows with the window -- the
      wasted-work cost of taking a trap on a larger machine.
    """

    def sweep():
        rows = []
        for size in (4, 10, 20, 50):
            workload = fault_probe(n=40, fault_index=5)
            memory = workload.make_memory()
            memory.inject_fault(workload.fault_address)
            engine = RUUEngine(
                workload.program, MachineConfig(window_size=size),
                memory=memory,
            )
            engine.recorder = TraceRecorder()
            engine.run()
            record = engine.interrupt_record
            assert record is not None and record.claims_precise
            detected = engine.recorder.stages[record.seq]["complete"]
            rows.append(
                (size, record.cycle - detected, engine.squashed)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation A9: precise-trap cost vs RUU size",
        f"{'Entries':>8s} {'Detect->trap':>13s} {'Squashed work':>14s}",
    ]
    for size, latency, squashed in rows:
        lines.append(f"{size:8d} {latency:13d} {squashed:14d}")
    emit(results_dir, "ablation_interrupt_latency", "\n".join(lines))

    by_size = {row[0]: row for row in rows}
    # responses are near-immediate at every size (continuous drain)
    assert all(row[1] <= 5 for row in rows)
    # but squashed younger work grows with the window
    assert by_size[50][2] > by_size[4][2]
    assert by_size[20][2] >= by_size[10][2] >= by_size[4][2]
