"""Idle spans: a run that jumps over them equals one that steps.

Where issue stalls until an event, the in-order engines and the
dispatch stack declare the cycles before it idle, and ``Engine.run``
jumps over them.  An attached :class:`InvariantChecker` turns the spans
off, so a checked run ticks every cycle; its ``tick`` is also replaced
by one that runs all four phases, where a plain tick runs the complete
phase only on a cycle with a result due.  That run is the reference
each plain run must reproduce -- in its results, its retire log and,
with a detail :class:`TraceRecorder`, in its bucket tape, samples,
attribution and Chrome document.
"""

import pytest

from repro.analysis.sweeps import ENGINE_FACTORIES
from repro.machine import CRAY1_LIKE, DeadlockError
from repro.machine.fetch import InstructionBuffers
from repro.machine.invariants import InvariantChecker
from repro.machine.result_bus import ResultBus
from repro.obs.attribution import attribute_cycles
from repro.obs.chrome import chrome_trace
from repro.obs.events import TraceRecorder
from repro.serve.protocol import canonical_result_bytes
from repro.workloads import lll3, livermore_suite
from repro.workloads.synthetic import fault_probe

from tests.support import generated_programs

ENGINES = sorted(ENGINE_FACTORIES)
#: The engines that declare idle spans; every other engine steps.
DECLARING = {
    "simple", "reorder-buffer", "rob-bypass", "history-buffer",
    "future-file", "dispatch-stack",
}
WINDOWS = (4, 12, 50)


@pytest.fixture(scope="module")
def programs():
    return livermore_suite("quick") + generated_programs(1)


class RecordingBus(ResultBus):
    """A result bus that logs the cycles it was released at."""

    def __init__(self):
        super().__init__()
        self.released = []

    def release_past(self, now):
        self.released.append(now)
        super().release_past(now)


def four_phase_tick(engine):
    """A ``tick`` for ``engine`` that runs every phase on every cycle,
    spec-ruu's branch resolution included."""
    resolve = getattr(engine, "_resolve_pending_branches", None)

    def tick():
        engine._phase_complete()
        if resolve is not None:
            resolve()
        engine._phase_commit()
        engine._phase_dispatch()
        engine._phase_issue()

    return tick


class Run:
    """One simulated point: the engine, its result and its ticks."""

    def __init__(self, name, workload, config, checked=False,
                 recorder=False, fetch=False, fault=False,
                 max_cycles=None):
        memory = workload.make_memory()
        if fault:
            memory.inject_fault(workload.fault_address)
        engine = ENGINE_FACTORIES[name](workload.program, config, memory)
        engine.result_bus = RecordingBus()
        if recorder:
            engine.recorder = TraceRecorder()
        if fetch:
            # One small buffer: a fill, and its dead cycles, every few
            # instructions.
            engine.fetch_unit = InstructionBuffers(
                workload.program, n_buffers=1, parcels_per_buffer=8)
        checker = None
        if checked:
            engine.tick = four_phase_tick(engine)
            checker = InvariantChecker.attach(engine)
        #: Cycles on which ``tick()`` ran.
        self.ticked = []
        tick = engine.tick

        def counted_tick():
            self.ticked.append(engine.cycle)
            tick()

        engine.tick = counted_tick
        self.engine = engine
        self.error = None
        try:
            self.result = engine.run(max_cycles)
            if fault and engine.interrupt_record is not None \
                    and engine.claims_precise_interrupts:
                memory.service_fault(workload.fault_address)
                self.result = engine.continue_run(max_cycles)
        except DeadlockError as error:
            self.result = None
            self.error = str(error)
        if checker is not None and self.result is not None:
            assert checker.cycles_checked == self.result.cycles

    def facts(self):
        """Everything a jump must leave as stepping would."""
        engine = self.engine
        facts = {
            "cycle": engine.cycle,
            "error": self.error,
            "retire_log": list(engine.retire_log),
            "stalls": dict(engine.stalls),
            "released": engine.result_bus.released,
        }
        if self.result is not None:
            facts["result"] = canonical_result_bytes(self.result)
        recorder = engine.recorder
        if recorder is not None:
            facts.update(
                tape=bytes(recorder.bucket_tape),
                bucket_names=list(recorder.bucket_names),
                sample_runs=recorder.sample_runs,
                stall_counts=dict(recorder.stall_counts),
                chrome=chrome_trace(recorder),
            )
            if self.result is not None:
                facts["attribution"] = attribute_cycles(
                    self.result, recorder)
        return facts


def assert_jumps_exactly(name, workload, config, recorder=True, **options):
    """Plain runs, with and without a recorder, equal a checked one;
    returns the plain runs' (cycles, ticks)."""
    label = f"{name} on {workload.name}"
    stepped = Run(name, workload, config, checked=True, recorder=recorder,
                  **options)
    plain = Run(name, workload, config, **options)
    want = stepped.facts()
    got = plain.facts()
    for key in got:
        assert got[key] == want[key], f"{label}: {key} differs"
    if recorder:
        traced = Run(name, workload, config, recorder=True, **options)
        got = traced.facts()
        for key in want:
            assert got[key] == want[key], f"{label} traced: {key} differs"
    return plain.engine.cycle, len(plain.ticked)


@pytest.mark.parametrize("name", ENGINES)
def test_jumps_equal_steps(name, programs):
    cycles = ticks = 0
    for window in WINDOWS:
        config = CRAY1_LIKE.with_(window_size=window)
        for workload in programs:
            ran, ticked = assert_jumps_exactly(name, workload, config)
            cycles += ran
            ticks += ticked
    if name in DECLARING:
        assert ticks < 0.8 * cycles
    else:
        assert ticks == cycles


@pytest.mark.parametrize("name", sorted(DECLARING))
@pytest.mark.parametrize("options", [
    {"issue_width": 2},
    {"commit_paths": 2},
], ids=["issue_width=2", "commit_paths=2"])
def test_jumps_equal_steps_on_wider_machines(name, options, programs):
    config = CRAY1_LIKE.with_(window_size=12, **options)
    for workload in programs:
        assert_jumps_exactly(name, workload, config, recorder=False)


@pytest.mark.parametrize("name", ENGINES)
def test_jumps_equal_steps_with_instruction_buffers(name, programs):
    config = CRAY1_LIKE.with_(window_size=12)
    for workload in programs[::4]:
        assert_jumps_exactly(name, workload, config, fetch=True)


@pytest.mark.parametrize("name", ENGINES)
def test_jumps_equal_steps_across_a_page_fault(name):
    probe = fault_probe()
    for window in (4, 12):
        config = CRAY1_LIKE.with_(window_size=window)
        assert_jumps_exactly(name, probe, config, fault=True)


# ----------------------------------------------------------------------
# limits and result-bus releases inside a span
# ----------------------------------------------------------------------


def skipped_cycles(run):
    """Cycles the run jumped over."""
    ticked = set(run.ticked)
    return [cycle for cycle in range(run.engine.cycle)
            if cycle not in ticked]


@pytest.mark.parametrize("name", sorted(DECLARING))
def test_budget_inside_a_span_trips_as_stepping(name):
    workload = lll3(n=30)
    config = CRAY1_LIKE.with_(window_size=12)
    skipped = skipped_cycles(Run(name, workload, config))
    assert skipped
    for budget in skipped[len(skipped) // 2:][:6]:
        stepped = Run(name, workload, config, checked=True,
                      max_cycles=budget)
        plain = Run(name, workload, config, max_cycles=budget)
        assert plain.error is not None
        assert f"exceeded the {budget}-cycle budget" in plain.error
        assert plain.facts() == stepped.facts()
        assert plain.engine.cycle == budget


@pytest.mark.parametrize("name", sorted(DECLARING))
def test_watchdog_inside_a_span_trips_as_stepping(name):
    workload = lll3(n=30)
    inside = 0
    for limit in range(2, 10):
        config = CRAY1_LIKE.with_(window_size=12, watchdog_cycles=limit)
        stepped = Run(name, workload, config, checked=True)
        plain = Run(name, workload, config)
        assert plain.facts() == stepped.facts()
        if plain.error is not None:
            assert "watchdog" in plain.error
            # Tripped on a cycle the plain run reached by a jump.
            inside += plain.ticked[-1] + 1 < plain.engine.cycle
    assert inside


def test_long_runs_release_the_bus_at_every_boundary():
    workload = lll3(n=1200)
    config = CRAY1_LIKE.with_(window_size=12)
    jumped_to_boundary = 0
    for name in sorted(DECLARING):
        stepped = Run(name, workload, config, checked=True)
        plain = Run(name, workload, config)
        assert plain.facts() == stepped.facts()
        released = plain.engine.result_bus.released
        cycles = plain.engine.cycle
        assert cycles > 2 * 4096
        assert released == list(range(4096, cycles + 1, 4096))
        skipped = set(skipped_cycles(plain))
        jumped_to_boundary += sum(
            boundary - 1 in skipped for boundary in released)
    # Some span held a boundary, and the jump stopped there.
    assert jumped_to_boundary
