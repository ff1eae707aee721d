"""Run real workloads with per-cycle invariant checking enabled."""

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.core import (
    AlwaysTakenPredictor,
    BypassMode,
    RUUEngine,
    SpeculativeRUUEngine,
)
from repro.isa import S
from repro.machine import MachineConfig, ResultBus
from repro.machine.invariants import InvariantChecker, InvariantViolation
from repro.workloads import all_loops, branch_heavy, fault_probe, lll1

from tests.support import run_checked


class TestCheckedRuns:
    @pytest.mark.parametrize("bypass", list(BypassMode))
    def test_ruu_invariants_hold_on_loops(self, bypass):
        for workload in all_loops()[:6]:
            engine = RUUEngine(
                workload.program, MachineConfig(window_size=10),
                memory=workload.make_memory(), bypass=bypass,
            )
            result, checker = run_checked(engine)
            assert checker.cycles_checked == result.cycles

    def test_invariants_hold_under_speculation_and_recovery(self):
        workload = branch_heavy(length=100)
        engine = SpeculativeRUUEngine(
            workload.program, MachineConfig(window_size=12),
            memory=workload.make_memory(),
            predictor=AlwaysTakenPredictor(),
        )
        result, checker = run_checked(engine)
        assert result.mispredictions > 0  # recoveries really happened
        assert checker.cycles_checked > 0

    def test_invariants_hold_across_interrupt_and_resume(self):
        workload = fault_probe()
        memory = workload.make_memory()
        memory.inject_fault(workload.fault_address)
        engine = RUUEngine(workload.program, MachineConfig(window_size=10),
                           memory=memory)
        checker = InvariantChecker.attach(engine)
        engine.run()
        assert engine.interrupt_record is not None
        memory.service_fault(workload.fault_address)
        engine.continue_run()
        assert checker.cycles_checked > 0

    def test_tiny_window_and_narrow_counters(self):
        workload = all_loops()[8]  # LLL9: heavy register recycling
        engine = RUUEngine(
            workload.program,
            MachineConfig(window_size=3, counter_bits=1),
            memory=workload.make_memory(),
        )
        run_checked(engine)


class TestRUUHook:
    """The RUU family opts into its checks explicitly; they must run."""

    @pytest.mark.parametrize(
        "engine_name",
        ["ruu-bypass", "ruu-nobypass", "ruu-limited", "spec-ruu"],
    )
    def test_ruu_checks_ran(self, engine_name):
        workload = all_loops()[0]
        engine = ENGINE_FACTORIES[engine_name](
            workload.program, MachineConfig(window_size=10),
            workload.make_memory(),
        )
        result, checker = run_checked(engine)
        assert checker.ruu_cycles_checked > 0
        assert checker.ruu_cycles_checked == result.cycles

    @pytest.mark.parametrize("engine_name", ["simple", "tomasulo", "rstu"])
    def test_other_engines_skip_them(self, engine_name):
        workload = all_loops()[0]
        engine = ENGINE_FACTORIES[engine_name](
            workload.program, MachineConfig(window_size=10),
            workload.make_memory(),
        )
        _, checker = run_checked(engine)
        assert checker.cycles_checked > 0
        assert checker.ruu_cycles_checked == 0


WINDOWED_ENGINES = [
    "tomasulo", "tagunit", "rspool", "rstu",
    "ruu-bypass", "ruu-nobypass", "ruu-limited", "spec-ruu",
]


class TestWindowHook:
    """Every windowed engine gets the wake-up index and ready-list
    checks; the in-order engines have no window to check."""

    @pytest.mark.parametrize("engine_name", WINDOWED_ENGINES)
    def test_window_checks_ran(self, engine_name):
        builder = ENGINE_FACTORIES[engine_name]
        for workload in all_loops()[:3]:
            engine = builder(
                workload.program, MachineConfig(window_size=6),
                workload.make_memory(),
            )
            result, checker = run_checked(engine)
            assert checker.window_cycles_checked == result.cycles

    @pytest.mark.parametrize("engine_name", ["simple", "dispatch-stack",
                                             "reorder-buffer"])
    def test_in_order_engines_skip_them(self, engine_name):
        workload = all_loops()[0]
        engine = ENGINE_FACTORIES[engine_name](
            workload.program, MachineConfig(window_size=10),
            workload.make_memory(),
        )
        _, checker = run_checked(engine)
        assert checker.cycles_checked > 0
        assert checker.window_cycles_checked == 0


class TestGenericChecks:
    """Every engine -- not just the RUU -- gets post-cycle assertions."""

    @pytest.mark.parametrize(
        "engine_name", ["simple", "tomasulo", "rstu"]
    )
    def test_generic_invariants_hold_on_real_kernels(self, engine_name):
        builder = ENGINE_FACTORIES[engine_name]
        for workload in all_loops()[:4]:
            engine = builder(
                workload.program, MachineConfig(window_size=10),
                workload.make_memory(),
            )
            result, checker = run_checked(engine)
            # Attaching was not a silent no-op: a real assertion ran
            # after every simulated cycle.
            assert checker.cycles_checked == result.cycles

    def test_detects_retired_counter_rollback(self):
        from repro.isa import assemble
        source = "A_IMM A1, 1\nA_IMM A2, 2\nA_IMM A3, 3\nHALT"
        builder = ENGINE_FACTORIES["simple"]
        engine = builder(assemble(source), MachineConfig(), None)
        InvariantChecker.attach(engine)

        original_tick = engine.tick
        sabotaged = []

        def corrupting_tick():
            original_tick()
            if engine.retired >= 2 and not sabotaged:
                # roll the counter back without any recovery event; the
                # next cycle's check observes the decrease
                sabotaged.append(True)
                engine.retired -= 2
                del engine.retire_log[-2:]

        engine.tick = corrupting_tick
        with pytest.raises(InvariantViolation,
                           match="retired count went backwards"):
            engine.run()

    def test_detects_retire_log_mismatch(self):
        from repro.isa import assemble
        builder = ENGINE_FACTORIES["tomasulo"]
        engine = builder(
            assemble("A_IMM A1, 1\nA_IMM A2, 2\nHALT"),
            MachineConfig(), None,
        )
        InvariantChecker.attach(engine)

        original_tick = engine.tick

        def corrupting_tick():
            original_tick()
            if engine.retired == 1:
                engine.retire_log.append(engine.retire_log[-1])

        engine.tick = corrupting_tick
        with pytest.raises(InvariantViolation, match="retire log"):
            engine.run()

    def test_recovery_rollback_is_not_flagged(self):
        # Interrupt recovery legitimately discards retired counts; the
        # generic check must not fire on it.
        workload = fault_probe()
        memory = workload.make_memory()
        memory.inject_fault(workload.fault_address)
        engine = RUUEngine(
            workload.program, MachineConfig(window_size=10), memory=memory
        )
        checker = InvariantChecker.attach(engine)
        engine.run()
        assert engine.interrupt_count > 0
        assert checker.cycles_checked > 0


class TestDetection:
    def test_detects_corrupted_ni(self):
        from repro.isa import S, assemble
        source = """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S2, S2
            HALT
        """
        engine = RUUEngine(assemble(source), MachineConfig(window_size=8))
        checker = InvariantChecker.attach(engine)

        # sabotage: inflate a counter mid-run
        original_try_issue = engine._try_issue

        def corrupted(inst, seq):
            ok = original_try_issue(inst, seq)
            if seq == 2:
                engine._ni[S(2).flat_index] = 5
            return ok

        engine._try_issue = corrupted
        with pytest.raises(InvariantViolation):
            engine.run()

    def test_detects_stale_missing_count(self):
        from repro.isa import assemble
        source = """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S2, S2
            HALT
        """
        engine = RUUEngine(assemble(source), MachineConfig(window_size=8),
                           bypass=BypassMode.NONE)
        InvariantChecker.attach(engine)
        original = engine._try_issue

        def miscounting(inst, seq):
            ok = original(inst, seq)
            if seq == 2:
                engine.window[-1].missing += 1
            return ok

        engine._try_issue = miscounting
        with pytest.raises(InvariantViolation, match="missing"):
            engine.run()

    def test_detects_window_disorder(self):
        from repro.isa import assemble
        source = "A_IMM A1, 1\nA_IMM A2, 2\nA_IMM A3, 3\nHALT"
        engine = RUUEngine(assemble(source), MachineConfig(window_size=8))
        checker = InvariantChecker.attach(engine)

        original = engine._try_issue

        def scrambling(inst, seq):
            ok = original(inst, seq)
            if seq == 2 and len(engine.window) >= 2:
                engine.window.rotate(1)
            return ok

        engine._try_issue = scrambling
        with pytest.raises(InvariantViolation):
            engine.run()

    @staticmethod
    def _run_with_stale_ready_entry(engine, stale):
        """Run ``engine``; after each cycle's phases, put the first
        window entry that ``stale`` accepts on the ready list.  The
        checker wraps the corrupted tick, so it sees the same cycle."""
        original_tick = engine.tick

        def corrupting_tick():
            original_tick()
            for entry in engine.window:
                if stale(entry) and entry not in engine._waiting.ready:
                    engine._waiting.ready.append(entry)
                    return

        engine.tick = corrupting_tick
        InvariantChecker.attach(engine)
        with pytest.raises(InvariantViolation, match="ready list"):
            engine.run()

    @pytest.mark.parametrize("engine_name", ["tomasulo", "rstu"])
    def test_detects_waiting_entry_on_ready_list(self, engine_name):
        from repro.isa import assemble
        source = "S_IMM S1, 1.0\nF_MUL S2, S1, S1\nF_ADD S3, S2, S1\nHALT"
        engine = ENGINE_FACTORIES[engine_name](
            assemble(source), MachineConfig(window_size=8), None,
        )
        self._run_with_stale_ready_entry(
            engine, lambda entry: entry.missing > 0)

    def test_detects_dispatched_entry_left_ready(self):
        from repro.isa import assemble
        source = "S_IMM S1, 1.0\nF_MUL S2, S1, S1\nHALT"
        engine = ENGINE_FACTORIES["rstu"](
            assemble(source), MachineConfig(window_size=8), None,
        )
        # The RSTU keeps a dispatched entry until it completes.
        self._run_with_stale_ready_entry(
            engine, lambda entry: entry.dispatched)

    @pytest.mark.parametrize("bypass", list(BypassMode))
    def test_detects_a_dropped_completion_broadcast(self, bypass):
        """With full bypass a commit does not broadcast, so a lost
        result-bus broadcast strands its waiters; the other modes'
        commit bus still delivers the value."""
        from repro.isa import assemble

        class SilentResultBus(RUUEngine):
            """Completes without a result-bus broadcast."""

            def _phase_complete(self):
                for entry in self._completions.pop(self.cycle, ()):
                    if not entry.squashed:
                        entry.executed_cycle = self.cycle

        source = "S_IMM S1, 1.0\nF_MUL S2, S1, S1\nF_ADD S3, S2, S1\nHALT"
        engine = SilentResultBus(assemble(source),
                                 MachineConfig(window_size=8),
                                 bypass=bypass)
        if bypass is BypassMode.FULL:
            with pytest.raises(InvariantViolation, match="still has a"):
                run_checked(engine)
        else:
            result, _ = run_checked(engine)
            assert engine.regs.values[S(3).flat_index] == 2.0

    @pytest.mark.parametrize("engine_name",
                             ["tomasulo", "rstu", "ruu-bypass"])
    def test_detects_a_double_booked_result_bus(self, engine_name):
        """A bus that never refuses a slot lets two results complete
        on one cycle."""

        class AlwaysFreeBus(ResultBus):
            def reserve(self, cycle):
                super().reserve(cycle)
                return True

        workload = lll1(n=30)
        engine = ENGINE_FACTORIES[engine_name](
            workload.program, MachineConfig(window_size=10),
            workload.make_memory(),
        )
        engine.result_bus = AlwaysFreeBus()
        with pytest.raises(InvariantViolation, match="double-booked"):
            run_checked(engine)

    def test_detach_restores_tick(self):
        from repro.isa import assemble
        engine = RUUEngine(assemble("HALT"), MachineConfig())
        checker = InvariantChecker.attach(engine)
        checker.detach()
        engine.run()
        assert checker.cycles_checked == 0
