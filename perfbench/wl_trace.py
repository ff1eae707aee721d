"""trace: the ``repro trace`` path -- engines run with a detail-mode
``TraceRecorder`` attached, then ``attribute_cycles``, ``chrome_trace``
and ``validate_chrome_trace`` on each run.

The same engine hooks as ``zoo`` with the recorder on instead of off,
so a change that speeds one side and slows the other shows on one of
the two workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

import wl_zoo
from common import HostSpeed, Outcome, Tracer, clock, iss_mismatch, median, \
    percentile, point_key, ratio
from repro.analysis.sweeps import ENGINE_FACTORIES
from repro.machine.config import CRAY1_LIKE
from repro.obs import TraceRecorder, attribute_cycles, chrome_trace, \
    validate_chrome_trace

WINDOW = 12
#: Loops of the timed rounds, plus the seeded branchy program.
LOOPS = ("LLL1", "LLL5", "LLL7", "LLL13")
TRACED_PROGRAMS = ("LLL5", "gen-branchy")


@dataclass
class TraceState:
    zoo: "wl_zoo.ZooState"
    programs: list
    digest: Dict[str, Dict[str, int]]


def setup(ctx) -> TraceState:
    zoo = wl_zoo.setup(ctx)
    programs = [zoo.find(label) for label in LOOPS + ("gen-branchy",)]
    return TraceState(zoo=zoo, programs=programs, digest=ctx.digest["trace"])


def teardown(state: TraceState) -> None:
    pass


def trace_point(name: str, workload, config, tracer: Tracer = None,
                op: int = None):
    """One ``repro trace`` run: engine + recorder, attribution, export,
    schema check.  Spans go to ``tracer`` when one is given."""

    def span(label):
        return tracer.open(label, op) if tracer is not None else None

    def close(index):
        if index is not None:
            tracer.close(index)

    index = span("engine.build")
    engine = ENGINE_FACTORIES[name](
        workload.program, config, workload.make_memory()
    )
    recorder = TraceRecorder(detail=True)
    engine.recorder = recorder
    close(index)
    index = span("obs.run")
    result = engine.run()
    close(index)
    index = span("obs.attribute")
    attribution = attribute_cycles(result, recorder)
    close(index)
    index = span("obs.chrome")
    document = chrome_trace(recorder)
    close(index)
    index = span("obs.validate")
    problems = validate_chrome_trace(document, cycles=result.cycles)
    close(index)
    return engine, result, attribution, document, problems


def check(state: TraceState, outcome: Outcome, name: str, workload, config,
          engine, result, attribution, problems) -> None:
    label = f"{name} on {workload.name}"
    if attribution.unaccounted:
        outcome.fail(f"{label}: {attribution.unaccounted} unaccounted "
                     f"cycle(s)", mismatch=True)
    elif problems:
        outcome.fail(f"{label}: invalid Chrome trace: {problems[0]}",
                     mismatch=True)
    elif workload.name in state.zoo.golden:
        why = iss_mismatch(engine, result, state.zoo.golden[workload.name])
        if why:
            outcome.fail(f"{label}: ISS mismatch: {why}", mismatch=True)
    else:
        buckets = json.loads(json.dumps(attribution.buckets))
        key = point_key(name, workload.name, config)
        if state.digest.get(key) != buckets:
            outcome.fail(f"{key}: attribution buckets differ from the "
                         f"golden digest", mismatch=True)


def attempt(state: TraceState, outcome: Outcome, name: str, workload,
            config, tracer: Tracer = None):
    """Time and check one traced point; returns (seconds, result,
    attribution, document), or None when the point failed."""
    outcome.attempted += 1
    op = tracer.open("trace.point") if tracer is not None else None
    started = clock()
    try:
        engine, result, attribution, document, problems = trace_point(
            name, workload, config, tracer, op)
    except Exception as exc:  # noqa: BLE001 - a failed point, not a crash
        if op is not None:
            tracer.close(op)
        outcome.fail(f"{name} on {workload.name}: {type(exc).__name__}: "
                     f"{exc}".splitlines()[0])
        return None
    elapsed = clock() - started
    if op is not None:
        tracer.close(op)
    check(state, outcome, name, workload, config, engine, result,
          attribution, problems)
    return elapsed, result, attribution, document


def interval(state: TraceState, outcome: Outcome, workload, config,
             names):
    """The named engines on one program; returns (durations, simulated
    instructions)."""
    durations: List[float] = []
    instructions = 0
    for name in names:
        done = attempt(state, outcome, name, workload, config)
        if done is not None:
            durations.append(done[0])
            instructions += done[1].instructions
    return durations, instructions


def run(state: TraceState, seconds: float):
    """Whole rounds (every program on every engine) while the next round
    still fits in ``seconds``; at least one."""
    outcome = Outcome()
    config = CRAY1_LIKE.with_(window_size=WINDOW)
    speed = HostSpeed()
    instructions = 0
    half = len(wl_zoo.ENGINES) // 2
    halves = (wl_zoo.ENGINES[:half], wl_zoo.ENGINES[half:])
    wl_zoo.warm_up(state.programs[0], config)
    started = clock()
    rounds = 0
    speed.sample()
    while True:
        for workload in state.programs:
            for names in halves:
                instructions += speed.measure(partial(
                    interval, state, outcome, workload, config, names))[1]
        rounds += 1
        if (clock() - started) * (rounds + 1) / rounds > seconds:
            break
    latencies = speed.reference()
    busy = sum(latencies)
    rate = ratio(len(latencies), busy)
    return outcome, {
        "sim_inst_per_s": ratio(instructions, busy),
        # Traced points bypass every cache: one rate for all three.
        "cold_points_per_s": rate,
        "warm_points_per_s": rate,
        "goodput_rps": rate,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 99.0) * 1e3,
    }, {"points": len(latencies), "rounds": rounds,
        "repeated_intervals": speed.discarded,
        "calibration_rates": speed.rates}


def traced(ctx, tracer: Tracer) -> Tuple[Outcome, Dict[str, float]]:
    """obs layer: recorder-off runs as the base, the trace path without
    spans as the untraced wall, then the trace path with spans."""
    state = setup(ctx)
    config = CRAY1_LIKE.with_(window_size=WINDOW)
    points = [(name, state.zoo.find(label))
              for label in TRACED_PROGRAMS for name in wl_zoo.ENGINES]
    untraced_run = 0.0
    for name, workload in points:
        _, _, _, run_s = wl_zoo.run_point(Outcome(), name, workload, config)
        untraced_run += run_s
    untraced_wall = 0.0
    for name, workload in points:
        done = attempt(state, Outcome(), name, workload, config)
        untraced_wall += done[0] if done is not None else 0.0
    outcome = Outcome()
    trace_bytes = unaccounted = 0
    for name, workload in points:
        done = attempt(state, outcome, name, workload, config, tracer)
        if done is not None:
            _, _, attribution, document = done
            trace_bytes += len(json.dumps(document, separators=(",", ":")))
            unaccounted += attribution.unaccounted
    run_s = tracer.total("obs.run")
    metrics = {
        "obs.run_s": run_s,
        "obs.untraced_run_s": untraced_run,
        "obs.recorder_overhead": ratio(run_s, untraced_run),
        "obs.attribute_s": tracer.total("obs.attribute"),
        "obs.chrome_s": tracer.total("obs.chrome"),
        "obs.validate_s": tracer.total("obs.validate"),
        "obs.trace_bytes": trace_bytes,
        "obs.unaccounted": unaccounted,
        "account.trace.remainder_share":
            tracer.remainder_share("trace.point"),
        "account.trace.overhead":
            ratio(tracer.total("trace.point"), untraced_wall) - 1.0,
    }
    teardown(state)
    return outcome, metrics
