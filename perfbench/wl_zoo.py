"""zoo: every engine on every Livermore loop plus seeded generated
programs, at windows 12 and 50, each point a fresh engine run serially
in-process with no recorder, cache or pool.

This is the engine hot path (``machine``, ``issue``, ``core``,
``interrupts``, ``memdep``) and almost nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from common import HostSpeed, Outcome, Tracer, clock, iss_mismatch, median, \
    percentile, point_key, ratio, result_sha
from repro.analysis.sweeps import ENGINE_FACTORIES
from repro.machine.config import CRAY1_LIKE
from repro.trace.iss import reference_state
from repro.workloads.generator import GeneratorSpec, generate_workload
from repro.workloads.suites import livermore_suite

WINDOWS = (12, 50)
ENGINES = sorted(name for name in ENGINE_FACTORIES
                 if not name.startswith("chaos-"))
PHASES = ("complete", "commit", "dispatch", "issue")
#: Programs of the traced section: one loop, one generated program.
TRACED_PROGRAMS = ("LLL1", "gen-alias")


def generated_programs(seed: int) -> list:
    """Two seeded programs: heavy load/store aliasing through a 4-word
    working set (load registers), and a forward branch every third body
    operation (spec-ruu squash and recovery)."""
    alias = generate_workload(GeneratorSpec(
        streams=2, memory_fraction=0.5, working_set=4, branch_every=0,
        iterations=8, body_ops=16, seed=seed,
    ))
    branchy = generate_workload(GeneratorSpec(
        streams=3, memory_fraction=0.25, working_set=64, branch_every=3,
        iterations=8, body_ops=16, seed=seed + 1,
    ))
    return [alias, branchy]


@dataclass
class ZooState:
    programs: list
    #: generated program name -> finished golden executor
    golden: Dict[str, object]
    digest: Dict[str, str]
    #: generated program name -> role ("gen-alias" / "gen-branchy")
    roles: Dict[str, str] = field(default_factory=dict)

    def find(self, label: str):
        """A program by Livermore name or generated role."""
        for workload in self.programs:
            if workload.name == label or self.roles.get(workload.name) == label:
                return workload
        raise KeyError(label)


def setup(ctx) -> ZooState:
    loops = livermore_suite("quick")
    alias, branchy = generated_programs(ctx.seed)
    # Generated programs sit early so that short runs check them too.
    programs = loops[:1] + [alias] + loops[1:7] + [branchy] + loops[7:]
    golden = {
        workload.name: reference_state(workload.program,
                                       workload.initial_memory)
        for workload in (alias, branchy)
    }
    return ZooState(
        programs=programs, golden=golden, digest=ctx.digest["zoo"],
        roles={alias.name: "gen-alias", branchy.name: "gen-branchy"},
    )


def teardown(state: ZooState) -> None:
    pass


def check(state: ZooState, outcome: Outcome, name: str, workload, config,
          engine, result) -> None:
    """Digest check for Livermore points, golden-ISS check otherwise."""
    golden = state.golden.get(workload.name)
    if golden is not None:
        why = iss_mismatch(engine, result, golden)
        if why:
            outcome.fail(f"{name} on {workload.name}: ISS mismatch: {why}",
                         mismatch=True)
        return
    key = point_key(name, workload.name, config)
    if state.digest.get(key) != result_sha(result):
        outcome.fail(f"{key}: result differs from the golden digest",
                     mismatch=True)


def run_point(outcome: Outcome, name: str, workload, config):
    """Build and run one point; returns (engine, result, build_s, run_s)."""
    started = clock()
    try:
        engine = ENGINE_FACTORIES[name](
            workload.program, config, workload.make_memory()
        )
        built = clock()
        result = engine.run()
    except Exception as exc:  # noqa: BLE001 - a failed point, not a crash
        outcome.fail(f"{name} on {workload.name}: {type(exc).__name__}: "
                     f"{exc}".splitlines()[0])
        return None, None, 0.0, clock() - started
    finished = clock()
    return engine, result, built - started, finished - built


def warm_up(workload, config) -> None:
    """Every engine once, untimed: the first timed interval of a fresh
    process otherwise runs slow."""
    for name in ENGINES:
        run_point(Outcome(), name, workload, config)


def interval(state: ZooState, outcome: Outcome, workload, config):
    """Every engine on one program at one window; returns (durations,
    simulated instructions)."""
    durations: List[float] = []
    instructions = 0
    for name in ENGINES:
        outcome.attempted += 1
        engine, result, build_s, run_s = run_point(
            outcome, name, workload, config)
        if result is None:
            continue
        durations.append(build_s + run_s)
        instructions += result.instructions
        check(state, outcome, name, workload, config, engine, result)
    return durations, instructions


def run(state: ZooState, seconds: float):
    """Whole rounds of the grid (every program, window and engine, in a
    fixed order) while the next round still fits in ``seconds``; at
    least one."""
    outcome = Outcome()
    speed = HostSpeed()
    instructions = 0
    configs = [CRAY1_LIKE.with_(window_size=w) for w in WINDOWS]
    warm_up(state.programs[0], configs[0])
    started = clock()
    rounds = 0
    speed.sample()
    while True:
        for workload in state.programs:
            for config in configs:
                instructions += speed.measure(partial(
                    interval, state, outcome, workload, config))[1]
        rounds += 1
        if (clock() - started) * (rounds + 1) / rounds > seconds:
            break
    latencies = speed.reference()
    busy = sum(latencies)
    rate = ratio(len(latencies), busy)
    return outcome, {
        "sim_inst_per_s": ratio(instructions, busy),
        # Every zoo point is a fresh simulation and no cache exists
        # here, so the cold, warm and good point rates are one rate.
        "cold_points_per_s": rate,
        "warm_points_per_s": rate,
        "goodput_rps": rate,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 99.0) * 1e3,
    }, {"points": len(latencies), "rounds": rounds,
        "repeated_intervals": speed.discarded,
        "calibration_rates": speed.rates}


def install_phase_timers(engine) -> Dict[str, float]:
    """Wrap the four tick phases of this one engine instance; returns
    the dict the wrappers accumulate seconds into."""
    totals = {phase: 0.0 for phase in PHASES}
    for phase in PHASES:
        bound = getattr(engine, f"_phase_{phase}")

        def timed(bound=bound, phase=phase):
            start = clock()
            bound()
            totals[phase] += clock() - start

        setattr(engine, f"_phase_{phase}", timed)
    return totals


def traced(ctx, tracer: Tracer) -> Tuple[Outcome, Dict[str, float]]:
    """Engine layer: an untraced round for rates, then a traced round
    with build/run spans and per-phase timers on the same points."""
    state = setup(ctx)
    programs = [state.find(label) for label in TRACED_PROGRAMS]
    points = [(name, workload, CRAY1_LIKE.with_(window_size=w))
              for workload in programs for w in WINDOWS for name in ENGINES]
    outcome = Outcome()
    inst: Dict[str, int] = {}
    run_time: Dict[str, float] = {}
    sim_inst = sim_cycles = 0
    untraced_wall = 0.0
    for name, workload, config in points:
        engine, result, build_s, run_s = run_point(
            Outcome(), name, workload, config)
        untraced_wall += build_s + run_s
        if result is None:
            continue
        sim_inst += result.instructions
        sim_cycles += result.cycles
        for group in (name, f"w{config.window_size}"):
            inst[group] = inst.get(group, 0) + result.instructions
            run_time[group] = run_time.get(group, 0.0) + run_s

    phase_totals = {phase: 0.0 for phase in PHASES}
    for name, workload, config in points:
        outcome.attempted += 1
        op = tracer.open("zoo.point")
        span = tracer.open("engine.build", op)
        engine = ENGINE_FACTORIES[name](
            workload.program, config, workload.make_memory()
        )
        tracer.close(span)
        totals = install_phase_timers(engine)
        span = tracer.open("engine.run", op)
        try:
            result = engine.run()
        except Exception as exc:  # noqa: BLE001 - a failed point
            tracer.close(span)
            tracer.close(op)
            outcome.fail(f"{name} on {workload.name}: {exc}".splitlines()[0])
            continue
        run_start = tracer.spans[span][1]
        tracer.close(span)
        tracer.close(op)
        # One aggregate child span per phase: its length is the summed
        # time of that phase over the whole run.
        for phase, seconds in totals.items():
            tracer.add(f"engine.phase.{phase}", run_start,
                       run_start + seconds, parent=span)
            phase_totals[phase] += seconds
        check(state, outcome, name, workload, config, engine, result)

    traced_wall = tracer.total("zoo.point")
    self_times = tracer.self_times()
    metrics = {
        f"engine.{group}.inst_per_s": ratio(inst[group], run_time[group])
        for group in list(ENGINES) + [f"w{w}" for w in WINDOWS]
    }
    metrics.update({
        f"engine.phase.{phase}_s": phase_totals[phase] for phase in PHASES
    })
    metrics.update({
        "engine.run_self_s": self_times.get("engine.run", 0.0),
        "engine.build_s": tracer.total("engine.build"),
        "engine.sim_inst": sim_inst,
        "engine.sim_cycles": sim_cycles,
        "account.zoo.remainder_share": tracer.remainder_share("zoo.point"),
        "account.zoo.overhead": ratio(traced_wall, untraced_wall) - 1.0,
    })
    teardown(state)
    return outcome, metrics


def workloads_build(seed: int) -> None:
    """Everything the zoo set-up builds (timed by the traced run)."""
    livermore_suite("quick")
    generated_programs(seed)

