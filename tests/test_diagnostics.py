"""Deadlock watchdog and structured engine diagnostics."""

import json

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.machine import (
    DeadlockError,
    MachineConfig,
    capture_diagnostic,
)
from repro.machine.faults import SimulationError
from repro.obs import TraceRecorder
from repro.workloads import lll3

CONFIG = MachineConfig(window_size=10)


#: Every engine of the zoo except the test-only chaos engines.
ZOO = sorted(name for name in ENGINE_FACTORIES
             if not name.startswith("chaos-"))


def warmed_engine(name="ruu-bypass", warmup=10, recorder=None):
    """An engine ticked by hand for ``warmup`` cycles: real in-flight
    state, caught mid-run."""
    workload = lll3(n=40)
    engine = ENGINE_FACTORIES[name](
        workload.program, CONFIG, workload.make_memory()
    )
    engine.recorder = recorder
    for _ in range(warmup):
        engine.tick()
        engine.cycle += 1
    assert not engine.done()
    return engine


def frozen_engine(name="ruu-bypass", warmup=10, recorder=None):
    """An engine with real in-flight state whose pipeline then freezes.

    Ticking by hand fills the window; replacing ``tick`` with a no-op
    models a wedged pipeline (a scheduling bug, a lost wakeup): cycles
    keep counting but nothing completes or commits ever again.
    """
    engine = warmed_engine(name, warmup, recorder)
    engine.tick = lambda: None
    return engine


class TestWatchdog:
    def test_trips_well_before_cycle_budget(self):
        engine = frozen_engine()
        engine.config = engine.config.with_(
            watchdog_cycles=50, max_cycles=100_000
        )
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert engine.cycle < 100
        assert "watchdog" in str(excinfo.value)
        assert excinfo.value.diagnostic.cycles_since_commit >= 50

    def test_budget_still_guards_when_disabled(self):
        engine = frozen_engine()
        engine.config = engine.config.with_(
            watchdog_cycles=0, max_cycles=500
        )
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert "budget" in str(excinfo.value)
        assert engine.cycle >= 500

    def test_deadlock_is_a_simulation_error(self):
        engine = frozen_engine()
        engine.config = engine.config.with_(watchdog_cycles=50)
        with pytest.raises(SimulationError):
            engine.run()

    def test_healthy_run_never_trips(self):
        workload = lll3(n=40)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program,
            CONFIG.with_(watchdog_cycles=200),
            workload.make_memory(),
        )
        result = engine.run()
        assert result.instructions > 0

    @pytest.mark.parametrize("name", ["simple", "tomasulo", "rstu",
                                      "history-buffer", "spec-ruu"])
    def test_every_engine_zoo_member_is_coverable(self, name):
        """The duck-typed capture works across the whole zoo."""
        engine = frozen_engine(name)
        engine.config = engine.config.with_(watchdog_cycles=40)
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        diagnostic = excinfo.value.diagnostic
        assert diagnostic.engine == engine.name
        assert diagnostic.cycles_since_commit >= 40


class TestDiagnostic:
    def trapped(self):
        engine = frozen_engine()
        engine.config = engine.config.with_(watchdog_cycles=50)
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        return excinfo.value.diagnostic

    def test_names_waiting_instructions(self):
        diagnostic = self.trapped()
        assert diagnostic.waiting, "expected in-flight instructions"
        states = {entry.state for entry in diagnostic.waiting}
        assert states <= {"waiting", "dispatched", "done"}
        blocked = [entry for entry in diagnostic.waiting
                   if entry.waiting_on]
        assert blocked, "expected at least one blocked instruction"
        assert diagnostic.blocked_resources()

    def test_describe_is_actionable(self):
        diagnostic = self.trapped()
        text = diagnostic.describe()
        assert "no commit for" in text
        assert "in-flight instructions" in text
        assert "blocked resources" in text
        # every waiting instruction is printed with its disassembly
        for entry in diagnostic.waiting:
            assert entry.text in text

    def test_to_json_is_serializable(self):
        diagnostic = self.trapped()
        payload = json.loads(json.dumps(diagnostic.to_json()))
        assert payload["engine"] == "ruu-bypass"
        assert payload["cycles_since_commit"] >= 50
        assert payload["waiting"]
        assert payload["blocked_resources"]

    def test_capture_on_live_engine_is_readonly(self):
        workload = lll3(n=40)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program, CONFIG, workload.make_memory()
        )
        for _ in range(10):
            engine.tick()
            engine.cycle += 1
        before = engine.regs.snapshot()
        diagnostic = capture_diagnostic(engine)
        assert engine.regs.snapshot() == before
        assert diagnostic.cycle == engine.cycle
        engine.run()  # capture must not have perturbed the machine


class TestZooCoverage:
    """Every engine reports itself through ``waiting_entries()``; none
    can drop out of the diagnostics silently."""

    @pytest.mark.parametrize("name", ZOO)
    def test_lists_exactly_the_waiting_entries(self, name):
        engine = warmed_engine(name)
        seqs = sorted(entry.seq for entry in engine.waiting_entries())
        diagnostic = capture_diagnostic(engine)
        assert [w.seq for w in diagnostic.waiting] == seqs
        assert diagnostic.occupancy == len(seqs)
        if name == "simple":
            assert not seqs
        else:
            assert seqs, f"{name} holds no instructions mid-run"

    def test_reorder_buffer_reports_in_flight_results(self):
        engine = warmed_engine("reorder-buffer", warmup=4)
        diagnostic = capture_diagnostic(engine)
        assert diagnostic.inflight > 0
        assert diagnostic.inflight == engine.inflight()
        assert "in-flight=0" not in diagnostic.describe()

    def test_deadlock_carries_recent_events_from_the_recorder(self):
        engine = frozen_engine(recorder=TraceRecorder())
        engine.config = engine.config.with_(watchdog_cycles=50)
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        recent = excinfo.value.diagnostic.recent_events
        assert recent
        stages = engine.recorder.stage_maps()
        assert sorted(recent) == sorted(stages)[-len(recent):]
        for seq, events in recent.items():
            assert events == stages[seq]
        assert "recent timeline" in excinfo.value.diagnostic.describe()

    #: The last eight stage maps a wedged ``ruu-bypass`` quotes after 30
    #: warm-up cycles (seq 19 is a branch: it retires in decode).
    RECENT_RUU = {
        15: {"decode": 17, "issue": 17, "dispatch": 19, "complete": 21},
        16: {"decode": 18, "issue": 18, "dispatch": 20, "complete": 22},
        17: {"decode": 19, "issue": 19, "dispatch": 28},
        18: {"decode": 20, "issue": 20},
        19: {"decode": 21, "issue": 22, "commit": 22},
        20: {"decode": 25, "issue": 25, "dispatch": 26},
        21: {"decode": 26, "issue": 26, "dispatch": 27},
        22: {"decode": 27},
    }

    def test_recent_events_are_the_tail_of_the_stage_map(self):
        engine = frozen_engine(warmup=30, recorder=TraceRecorder())
        engine.config = engine.config.with_(watchdog_cycles=50)
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        recent = excinfo.value.diagnostic.recent_events
        assert recent == self.RECENT_RUU
        assert list(recent) == sorted(recent)
        for seq, events in recent.items():
            assert list(events) == list(self.RECENT_RUU[seq])
