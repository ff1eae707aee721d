"""Behavioural tests for the RUU engine: queue discipline, NI/LI
counters, bypass modes, in-order commit."""

from repro.core import BypassMode, RUUEngine
from repro.isa import A, S, assemble
from repro.machine import MachineConfig, Memory, StallReason
from repro.trace import reference_state


def run_ruu(source, config=None, bypass=BypassMode.FULL, memory=None):
    program = assemble(source)
    engine = RUUEngine(
        program, config or MachineConfig(window_size=8),
        memory=memory, bypass=bypass,
    )
    result = engine.run()
    return engine, result


class TestQueueDiscipline:
    def test_commit_order_is_program_order(self):
        """Retire order must be sequential even when completion is not:
        a slow op followed by fast ones."""
        engine, result = run_ruu("""
            S_IMM S1, 2.0
            F_RECIP S2, S1
            A_IMM A1, 1
            A_IMM A2, 2
            A_IMM A3, 3
            HALT
        """)
        assert engine.retire_log == sorted(engine.retire_log)

    def test_window_full_blocks_issue(self):
        engine, result = run_ruu("""
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S1, S1
            F_ADD S4, S1, S1
            F_ADD S5, S1, S1
            HALT
        """, MachineConfig(window_size=2))
        assert result.stalls[StallReason.WINDOW_FULL] >= 1
        assert engine.regs.read(S(5)) == 2.0

    def test_one_commit_per_cycle(self):
        # Six 1-cycle transmits: commits serialize at 1/cycle behind the
        # head, so total cycles >= instructions + commit drain.
        engine, result = run_ruu("""
            A_IMM A1, 1
            A_IMM A2, 2
            A_IMM A3, 3
            A_IMM A4, 4
            A_IMM A5, 5
            A_IMM A6, 6
            HALT
        """)
        assert result.cycles >= 8  # issue + execute + commit pipeline

    def test_window_drains_before_done(self):
        engine, result = run_ruu("A_IMM A1, 1\nHALT")
        assert len(engine.window) == 0
        assert engine.regs.read(A(1)) == 1


class TestInstanceCounters:
    def test_multiple_instances_of_one_register(self):
        engine, result = run_ruu("""
            A_IMM A1, 1
            A_ADDI A1, A1, 1
            A_ADDI A1, A1, 1
            A_ADDI A1, A1, 1
            HALT
        """)
        assert engine.regs.read(A(1)) == 4
        assert result.extra["max_ni_observed"] >= 2

    def test_instance_limit_blocks_issue(self):
        # 1-bit counters: at most one live instance per register.
        config = MachineConfig(window_size=16, counter_bits=1)
        engine, result = run_ruu("""
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S2, S1, S1
            F_ADD S2, S1, S1
            HALT
        """, config)
        assert result.stalls[StallReason.INSTANCE_LIMIT] >= 1
        assert engine.regs.read(S(2)) == 2.0

    def test_counters_return_to_zero(self):
        engine, _ = run_ruu("""
            A_IMM A1, 1
            A_ADDI A1, A1, 1
            A_ADDI A2, A1, 1
            HALT
        """)
        assert not any(engine._ni)

    def test_li_wraps_modulo(self):
        config = MachineConfig(window_size=32, counter_bits=2)
        lines = ["A_IMM A1, 0"] + ["A_ADDI A1, A1, 1"] * 9 + ["HALT"]
        engine, result = run_ruu("\n".join(lines), config)
        assert engine.regs.read(A(1)) == 9


class TestBypassModes:
    CHAIN = """
        S_IMM S1, 1.0
        F_ADD S2, S1, S1
        NOP
        NOP
        NOP
        NOP
        NOP
        NOP
        F_ADD S3, S2, S2   ; issued long after S2's producer completed
        HALT
    """

    def test_nobypass_waits_for_commit_bus(self):
        _, full = run_ruu(self.CHAIN, bypass=BypassMode.FULL)
        _, none = run_ruu(self.CHAIN, bypass=BypassMode.NONE)
        assert none.cycles >= full.cycles

    def test_all_modes_correct(self):
        program = assemble(self.CHAIN)
        golden = reference_state(program)
        for mode in BypassMode:
            engine, _ = run_ruu(self.CHAIN, bypass=mode)
            assert engine.regs == golden.regs, mode

    def test_limited_bypass_helps_a_registers_only(self):
        # Branch on an A register computed by a slow op: LIMITED reads
        # the A future file; NONE must wait for the commit bus.
        source = """
            A_IMM A1, 3
            A_IMM A2, 4
            A_MUL A0, A1, A2     ; latency 6
            BR_NONZERO A0, skip
            NOP
        skip:
            HALT
        """
        _, limited = run_ruu(source, bypass=BypassMode.LIMITED)
        _, none = run_ruu(source, bypass=BypassMode.NONE)
        assert limited.cycles <= none.cycles

    def test_mode_recorded_in_result(self):
        _, result = run_ruu("HALT")
        assert result.extra["bypass_mode"] == "bypass"


class TestRUUMemory:
    def test_store_commits_in_order(self):
        """A store's memory write happens at commit: if an older
        instruction faults, memory must be untouched."""
        memory = Memory()
        engine, result = run_ruu("""
            A_IMM A1, 100
            S_IMM S1, 0.0
            F_RECIP S2, S1       ; arithmetic trap
            S_IMM S3, 5.0
            STORE_S A1[0], S3    ; younger than the trap
            HALT
        """, memory=memory)
        assert engine.interrupt_record is not None
        assert engine.interrupt_record.claims_precise
        assert memory.peek(100) == 0  # store never committed

    def test_store_to_load_forward(self):
        engine, _ = run_ruu("""
            A_IMM A1, 100
            S_IMM S1, 6.25
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            HALT
        """)
        assert engine.regs.read(S(2)) == 6.25
        assert engine.mdu.forwards >= 1

    def test_load_around_uncommitted_store_different_address(self):
        engine, _ = run_ruu("""
            A_IMM A1, 100
            A_IMM A2, 200
            S_IMM S1, 1.5
            STORE_S A1[0], S1
            LOAD_S S2, A2[0]
            HALT
        """)
        assert engine.regs.read(S(2)) == 0


class TestMonotonicity:
    def test_bigger_window_never_slower(self):
        source = """
            A_IMM A1, 100
            A_IMM A0, 12
        loop:
            LOAD_S S1, A1[0]
            F_MUL S2, S1, S1
            F_ADD S3, S3, S2
            A_ADDI A1, A1, 1
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """
        cycles = []
        for size in (3, 6, 12, 24):
            _, result = run_ruu(source, MachineConfig(window_size=size))
            cycles.append(result.cycles)
        assert cycles == sorted(cycles, reverse=True) or all(
            a >= b for a, b in zip(cycles, cycles[1:])
        )
