"""Tests for the Smith & Pleszkun in-order precise-interrupt engines."""

import pytest

from repro.interrupts import (
    FutureFileEngine,
    HistoryBufferEngine,
    ReorderBufferBypassEngine,
    ReorderBufferEngine,
)
from repro.issue import SimpleEngine
from repro.isa import A, S, assemble
from repro.machine import MachineConfig, StallReason
from repro.trace import reference_state

SP_ENGINES = [
    ReorderBufferEngine,
    ReorderBufferBypassEngine,
    HistoryBufferEngine,
    FutureFileEngine,
]

CONFIG = MachineConfig(window_size=8)


def run(cls, source, config=None, memory=None):
    program = assemble(source)
    engine = cls(program, config or CONFIG, memory=memory)
    result = engine.run()
    return engine, result


DEP_CHAIN = """
    S_IMM S1, 1.0
    F_ADD S2, S1, S1
    F_ADD S3, S2, S2
    F_ADD S4, S3, S3
    HALT
"""


class TestDependencyAggravation:
    def test_plain_rob_slower_than_bypass(self):
        _, rob = run(ReorderBufferEngine, DEP_CHAIN)
        _, bypass = run(ReorderBufferBypassEngine, DEP_CHAIN)
        assert rob.cycles > bypass.cycles

    def test_bypass_history_future_perform_alike(self):
        cycles = []
        for cls in (ReorderBufferBypassEngine, HistoryBufferEngine,
                    FutureFileEngine):
            _, result = run(cls, DEP_CHAIN)
            cycles.append(result.cycles)
        assert max(cycles) - min(cycles) <= 2

    def test_rob_aggravation_vs_simple(self):
        """The reorder buffer's whole cost: a value can be read only
        after the buffer updates the register (paper §4)."""
        _, simple = run(SimpleEngine, DEP_CHAIN)
        _, rob = run(ReorderBufferEngine, DEP_CHAIN)
        assert rob.cycles > simple.cycles

    def test_buffer_full_stalls(self):
        config = MachineConfig(window_size=2)
        _, result = run(ReorderBufferEngine, """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S1, S1
            F_ADD S4, S1, S1
            F_ADD S5, S1, S1
            HALT
        """, config)
        assert result.stalls[StallReason.WINDOW_FULL] >= 1


class TestCorrectness:
    @pytest.mark.parametrize("cls", SP_ENGINES)
    def test_chain_result(self, cls):
        program = assemble(DEP_CHAIN)
        golden = reference_state(program)
        engine, result = run(cls, DEP_CHAIN)
        assert engine.regs == golden.regs
        assert result.instructions == golden.executed

    @pytest.mark.parametrize("cls", SP_ENGINES)
    def test_store_load_roundtrip(self, cls):
        engine, _ = run(cls, """
            A_IMM A1, 100
            S_IMM S1, 2.5
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            HALT
        """)
        assert engine.regs.read(S(2)) == 2.5
        assert engine.memory.peek(100) == 2.5

    @pytest.mark.parametrize("cls", SP_ENGINES)
    def test_load_forwards_from_uncommitted_store(self, cls):
        """The store sits uncommitted in the buffer when the load
        issues; the load must see its datum, not stale memory."""
        engine, _ = run(cls, """
            A_IMM A1, 100
            S_IMM S1, 9.0
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            F_ADD S3, S2, S2
            HALT
        """)
        assert engine.regs.read(S(3)) == 18.0


class TestRollbackMechanisms:
    FAULT_SOURCE = """
        A_IMM A1, 100
        S_IMM S1, 2.0
        S_IMM S2, 0.0
        F_RECIP S3, S2        ; traps
        S_IMM S1, 99.0        ; younger write, must be undone/withheld
        HALT
    """

    @pytest.mark.parametrize("cls", SP_ENGINES)
    def test_younger_write_not_visible_at_trap(self, cls):
        engine, _ = run(cls, self.FAULT_SOURCE)
        record = engine.interrupt_record
        assert record is not None and record.claims_precise
        assert engine.regs.read(S(1)) == 2.0

    def test_history_buffer_rolls_back_eager_writes(self):
        # The younger S_IMM (latency 1) writes the register file long
        # before the 14-cycle reciprocal traps; rollback must undo it.
        engine, _ = run(HistoryBufferEngine, self.FAULT_SOURCE)
        assert engine.regs.read(S(1)) == 2.0

    def test_future_file_resynchronized(self):
        engine, _ = run(FutureFileEngine, self.FAULT_SOURCE)
        assert engine.future.read(S(1)) == 2.0
        assert engine.future == engine.regs

    @pytest.mark.parametrize("cls", SP_ENGINES)
    def test_trap_counts_squashed_entries(self, cls):
        """A precise trap squashes the whole buffer, the faulting head
        included, and counts it as the RUU does."""
        from repro.workloads import fault_probe
        wl = fault_probe()
        memory = wl.make_memory()
        memory.inject_fault(wl.fault_address)
        engine = cls(wl.program, MachineConfig(window_size=12),
                     memory=memory)
        held = []
        tick = engine.tick

        def counting_tick():
            held.append(len(engine.waiting_entries()))
            tick()

        engine.tick = counting_tick
        result = engine.run()
        assert engine.interrupt_record is not None
        assert result.squashed == held[-1] > 0

    @pytest.mark.parametrize("cls", SP_ENGINES)
    def test_resume_completes_correctly(self, cls):
        # Fault on a load, service, resume.
        from repro.workloads import fault_probe
        from repro.trace import reference_state as ref
        wl = fault_probe()
        memory = wl.make_memory()
        memory.inject_fault(wl.fault_address)
        engine = cls(wl.program, CONFIG, memory=memory)
        engine.run()
        assert engine.interrupt_record is not None
        memory.service_fault(wl.fault_address)
        engine.continue_run()
        golden = ref(wl.program, wl.initial_memory)
        assert engine.regs == golden.regs
        assert engine.memory == golden.memory


class TestFutureFileDetails:
    def test_issue_reads_future_not_architectural(self):
        engine, _ = run(FutureFileEngine, """
            A_IMM A1, 5
            A_ADDI A2, A1, 1
            HALT
        """)
        assert engine.regs.read(A(2)) == 6

    def test_architectural_lags_future_mid_flight(self):
        # Indirectly validated: both files agree at the end.
        engine, _ = run(FutureFileEngine, DEP_CHAIN)
        assert engine.future == engine.regs
