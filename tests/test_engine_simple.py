"""Timing-level unit tests for the simple (baseline) engine."""

import pytest

from repro.isa import assemble
from repro.issue import SimpleEngine
from repro.machine import MachineConfig, Memory, StallReason


def run(source, config=None, memory=None):
    engine = SimpleEngine(
        assemble(source), config or MachineConfig(), memory=memory
    )
    result = engine.run()
    return engine, result


class TestIssueTiming:
    def test_independent_transmits_issue_one_per_cycle(self):
        # Five A_IMMs (transmit, latency 1) with no dependencies: issue
        # is the only limit, so cycles ~ instructions + drain.
        engine, result = run("""
            A_IMM A1, 1
            A_IMM A2, 2
            A_IMM A3, 3
            A_IMM A4, 4
            A_IMM A5, 5
            HALT
        """)
        assert result.instructions == 5
        assert result.cycles <= 8

    def test_dependent_chain_pays_full_latency(self):
        # Each F_ADD must wait for its predecessor's 6-cycle latency.
        engine, result = run("""
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S2, S2
            F_ADD S4, S3, S3
            HALT
        """)
        assert result.cycles >= 3 * 6
        assert result.stalls[StallReason.SOURCE_BUSY] >= 10

    def test_dest_busy_blocks_reissue(self):
        engine, result = run("""
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S2, S1, S1
            HALT
        """)
        assert result.stalls[StallReason.DEST_BUSY] >= 1

    def test_result_bus_conflict_stalls_issue(self):
        # Two float adds back to back would complete in the same cycle
        # only if issued in the same cycle -- impossible here; instead
        # craft a conflict: transmit (1) after float add (6) cannot be
        # timed to collide with in-order 1/cycle issue unless latencies
        # align.  MOV issued 5 cycles after F_ADD completes same cycle.
        source = """
            S_IMM S1, 1.0
            A_IMM A1, 1
            F_ADD S2, S1, S1
            NOP
            NOP
            NOP
            NOP
            MOV A2, A1
            HALT
        """
        engine, result = run(source)
        # F_ADD issues at t, completes t+6.  MOV would issue at t+5 and
        # complete t+6 -> bus conflict -> one RESULT_BUS stall.
        assert result.stalls[StallReason.RESULT_BUS] >= 1

    def test_branch_dead_cycles_charged(self):
        engine, result = run("""
            A_IMM A0, 3
        loop:
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """)
        assert result.branches == 3
        assert result.branches_taken == 2
        assert result.stalls[StallReason.BRANCH_DEAD] > 0

    def test_branch_waits_for_condition(self):
        engine, result = run("""
            A_IMM A1, 0
            A_MUL A0, A1, A1
            BR_ZERO A0, done
            NOP
        done:
            HALT
        """)
        # A_MUL has latency 6; the branch must wait for A0.
        assert result.stalls[StallReason.BRANCH_WAIT] >= 4

    def test_jmp_redirects(self):
        from repro.isa import A
        engine, result = run("""
            JMP over
            A_IMM A1, 99
        over:
            A_IMM A2, 7
            HALT
        """)
        assert engine.regs.read(A(1)) == 0
        assert engine.regs.read(A(2)) == 7
        assert result.instructions == 2  # JMP + A_IMM A2


class TestMemoryBehaviour:
    def test_store_then_load_same_address(self):
        from repro.isa import S
        engine, result = run("""
            A_IMM A1, 100
            S_IMM S1, 3.5
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            HALT
        """)
        assert engine.regs.read(S(2)) == 3.5

    def test_load_latency_is_memory_time(self):
        engine, result = run("""
            A_IMM A1, 100
            LOAD_S S1, A1[0]
            F_ADD S2, S1, S1
            HALT
        """)
        # F_ADD waits ~11 cycles for the load.
        assert result.cycles >= 11 + 6

    def test_memory_fu_utilization_counted(self):
        engine, result = run("""
            A_IMM A1, 100
            LOAD_S S1, A1[0]
            STORE_S A1[1], S1
            HALT
        """)
        assert result.extra["fu_utilization"]["memory"] == 2


class TestInterruptsAreImprecise:
    def test_arithmetic_fault_freezes_machine(self):
        engine, result = run("""
            S_IMM S1, 0.0
            F_RECIP S2, S1
            A_IMM A1, 5
            HALT
        """)
        assert engine.interrupt_record is not None
        assert not engine.interrupt_record.claims_precise
        assert result.interrupts == 1

    def test_page_fault_reported(self):
        memory = Memory()
        memory.inject_fault(100)
        engine, result = run("""
            A_IMM A1, 100
            LOAD_S S1, A1[0]
            HALT
        """, memory=memory)
        assert engine.interrupt_record is not None
        assert engine.interrupt_record.cause.address == 100

    def test_cannot_resume(self):
        from repro.machine import SimulationError
        engine, _ = run("""
            S_IMM S1, 0.0
            F_RECIP S2, S1
            HALT
        """)
        with pytest.raises(SimulationError):
            engine.continue_run()

    def test_imprecision_demonstrated(self):
        """A younger, faster instruction updates state before an older,
        slower one faults: the classic imprecise scenario."""
        from repro.isa import A
        engine, result = run("""
            S_IMM S1, 0.0
            F_RECIP S2, S1       ; faults after 14 cycles
            A_IMM A1, 7          ; younger, completes first
            HALT
        """)
        record = engine.interrupt_record
        assert record is not None
        # the younger A_IMM already updated A1 -- state is NOT the
        # sequential prefix state at the fault.
        assert engine.regs.read(A(1)) == 7


class TestDrainAndCounts:
    def test_retire_count_excludes_halt(self):
        engine, result = run("NOP\nNOP\nHALT")
        assert result.instructions == 2

    def test_retire_log_matches_count(self):
        engine, result = run("""
            A_IMM A1, 1
            A_IMM A2, 2
            NOP
            HALT
        """)
        assert len(engine.retire_log) == result.instructions

    def test_timeout_raises(self):
        from repro.machine import SimulationError
        program = assemble("""
        forever:
            JMP forever
        """)
        engine = SimpleEngine(program, MachineConfig())
        with pytest.raises(SimulationError):
            engine.run(max_cycles=100)
