"""Tests for the golden-model functional executor and traces."""

import pytest

from repro.isa import A, S, assemble
from repro.machine import Memory, PageFault
from repro.trace import (
    ExecutionLimitExceeded,
    FunctionalExecutor,
    prefix_state,
    reference_state,
)

COUNTDOWN = """
    A_IMM A0, 3
loop:
    A_ADDI A0, A0, -1
    BR_NONZERO A0, loop
    HALT
"""


class TestExecution:
    def test_step_returns_entries_then_none(self):
        executor = FunctionalExecutor(assemble("NOP\nHALT"))
        entry = executor.step()
        assert entry.seq == 0 and entry.pc == 0
        assert executor.step() is None
        assert executor.halted

    def test_run_counts_dynamic_instructions(self):
        executor = FunctionalExecutor(assemble(COUNTDOWN))
        trace = executor.run()
        # A_IMM + 3 x (ADDI + BR) = 7
        assert len(trace) == 7
        assert executor.regs.read(A(0)) == 0

    def test_branch_outcomes_recorded(self):
        trace = FunctionalExecutor(assemble(COUNTDOWN)).run()
        outcomes = [e.taken for e in trace if e.taken is not None]
        assert outcomes == [True, True, False]

    def test_memory_addresses_recorded(self):
        source = """
            A_IMM A1, 100
            S_IMM S1, 1.5
            STORE_S A1[2], S1
            LOAD_S S2, A1[2]
            HALT
        """
        trace = FunctionalExecutor(assemble(source)).run()
        addresses = [e.address for e in trace if e.address is not None]
        assert addresses == [102, 102]

    def test_limit_exceeded(self):
        forever = assemble("x: JMP x")
        with pytest.raises(ExecutionLimitExceeded):
            FunctionalExecutor(forever).run(max_instructions=10)


class TestPrefixState:
    def test_prefix_zero_is_initial_state(self):
        program = assemble(COUNTDOWN)
        state = prefix_state(program, 0)
        assert state.regs.read(A(0)) == 0

    def test_prefix_mid_loop(self):
        program = assemble(COUNTDOWN)
        # after 3 instructions: A_IMM, ADDI, BR -> A0 == 2
        state = prefix_state(program, 3)
        assert state.regs.read(A(0)) == 2
        assert state.executed == 3

    def test_prefix_beyond_end_stops_at_halt(self):
        program = assemble(COUNTDOWN)
        state = prefix_state(program, 1000)
        assert state.executed == 7

    def test_input_memory_not_mutated(self):
        source = """
            A_IMM A1, 100
            S_IMM S1, 1.0
            STORE_S A1[0], S1
            HALT
        """
        memory = Memory()
        state = reference_state(assemble(source), memory)
        assert memory.peek(100) == 0
        assert state.memory.peek(100) == 1.0


class TestFaultChecks:
    def test_fault_checks_disabled_by_default(self):
        memory = Memory()
        memory.inject_fault(100)
        source = "A_IMM A1, 100\nLOAD_S S1, A1[0]\nHALT"
        executor = FunctionalExecutor(assemble(source), memory)
        executor.run()  # no exception: golden model peeks

    def test_fault_checks_enabled_raises(self):
        memory = Memory()
        memory.inject_fault(100)
        source = "A_IMM A1, 100\nLOAD_S S1, A1[0]\nHALT"
        executor = FunctionalExecutor(
            assemble(source), memory, fault_checks=True
        )
        with pytest.raises(PageFault):
            executor.run()

    def test_store_fault_checks(self):
        memory = Memory()
        memory.inject_fault(200)
        source = "A_IMM A1, 200\nS_IMM S1, 1.0\nSTORE_S A1[0], S1\nHALT"
        executor = FunctionalExecutor(
            assemble(source), memory, fault_checks=True
        )
        with pytest.raises(PageFault):
            executor.run()


class TestSemanticSpotChecks:
    def test_register_moves_between_banks(self):
        source = """
            A_IMM A1, 9
            MOV B5, A1
            MOV A2, B5
            S_IMM S1, 4.5
            MOV T9, S1
            MOV S2, T9
            HALT
        """
        executor = FunctionalExecutor(assemble(source))
        executor.run()
        assert executor.regs.read(A(2)) == 9
        assert executor.regs.read(S(2)) == 4.5

    def test_load_a_coerces_to_int_width(self):
        memory = Memory()
        memory.poke(50, 3)
        source = "A_IMM A1, 50\nLOAD_A A2, A1[0]\nHALT"
        executor = FunctionalExecutor(assemble(source), memory)
        executor.run()
        assert executor.regs.read(A(2)) == 3
