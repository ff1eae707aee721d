"""Behavioural tests for the windowed out-of-order engines
(Tomasulo, Tag Unit, RS Pool, RSTU)."""

import pytest

from repro.isa import A, S, assemble
from repro.issue import (
    RSPoolEngine,
    RSTUEngine,
    SimpleEngine,
    TagUnitEngine,
    TomasuloEngine,
)
from repro.machine import MachineConfig, StallReason
from repro.trace import reference_state

WINDOW_ENGINES = [TomasuloEngine, TagUnitEngine, RSPoolEngine, RSTUEngine]


def run_engine(cls, source, config=None, memory=None):
    program = assemble(source)
    engine = cls(program, config or MachineConfig(window_size=8),
                 memory=memory)
    result = engine.run()
    return engine, result


OOO_DEMO = """
    S_IMM S1, 1.0
    S_IMM S2, 2.0
    F_RECIP S3, S1       ; long latency (14)
    F_ADD  S4, S3, S3    ; depends on the reciprocal -- stalls in-order
    A_IMM  A1, 5         ; a long run of independent work that an
    A_IMM  A2, 6         ; out-of-order machine overlaps with the chain
    A_ADD  A3, A1, A2
    A_ADD  A4, A1, A2
    A_ADD  A5, A3, A4
    A_IMM  A6, 9
    A_ADD  A7, A5, A6
    S_IMM  S5, 3.0
    F_MUL  S6, S5, S5
    S_IMM  S7, 4.0
    MOV    B1, A1
    MOV    B2, A2
    MOV    T1, S5
    HALT
"""


class TestOutOfOrderIssue:
    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_independent_work_bypasses_stalled_instruction(self, cls):
        _, simple = run_engine(SimpleEngine, OOO_DEMO)
        _, ooo = run_engine(cls, OOO_DEMO)
        assert ooo.cycles < simple.cycles

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_architectural_result_correct(self, cls):
        program = assemble(OOO_DEMO)
        golden = reference_state(program)
        engine, result = run_engine(cls, OOO_DEMO)
        assert engine.regs == golden.regs
        assert result.instructions == golden.executed

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_self_dependent_update_uses_old_tag(self, cls):
        engine, _ = run_engine(cls, """
            A_IMM A1, 10
            A_ADDI A1, A1, 1
            A_ADDI A1, A1, 1
            HALT
        """)
        assert engine.regs.read(A(1)) == 12


class TestWAWandWAR:
    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_waw_latest_value_wins(self, cls):
        # S2 written by a slow op then a fast op: the fast (younger)
        # result must survive in the register file.
        engine, _ = run_engine(cls, """
            S_IMM S1, 4.0
            F_RECIP S2, S1       ; latency 14, writes S2 = 0.25
            S_IMM  S2, 9.0       ; latency 1, younger write of S2
            HALT
        """)
        assert engine.regs.read(S(2)) == 9.0

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_war_reader_gets_old_value(self, cls):
        # F_ADD reads S2 (old value) while a younger S_IMM overwrites it.
        engine, _ = run_engine(cls, """
            S_IMM S2, 1.0
            S_IMM S3, 0.0
            F_ADD S4, S2, S3     ; reads S2 == 1.0
            S_IMM S2, 50.0
            HALT
        """)
        assert engine.regs.read(S(4)) == 1.0
        assert engine.regs.read(S(2)) == 50.0


class TestStructuralStalls:
    def test_tomasulo_station_full(self):
        # window_size=1 => one station per FU; chained float adds pile up.
        config = MachineConfig(window_size=1)
        engine, result = run_engine(TomasuloEngine, """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S2, S2
            F_ADD S4, S3, S3
            HALT
        """, config)
        assert result.stalls[StallReason.WINDOW_FULL] >= 1

    def test_tagunit_exhaustion_blocks_issue(self):
        config = MachineConfig(window_size=8, n_tags=2)
        engine, result = run_engine(TagUnitEngine, """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S1, S1
            F_ADD S4, S1, S1
            F_ADD S5, S1, S1
            HALT
        """, config)
        assert result.stalls[StallReason.NO_TAG] >= 1
        assert engine.regs.read(S(5)) == 2.0

    def test_rstu_window_full(self):
        config = MachineConfig(window_size=2)
        engine, result = run_engine(RSTUEngine, """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S1, S1
            F_ADD S4, S1, S1
            HALT
        """, config)
        assert result.stalls[StallReason.WINDOW_FULL] >= 1

    def test_load_register_exhaustion(self):
        config = MachineConfig(window_size=16, n_load_registers=1)
        engine, result = run_engine(RSTUEngine, """
            A_IMM A1, 100
            LOAD_S S1, A1[0]
            LOAD_S S2, A1[1]
            LOAD_S S3, A1[2]
            HALT
        """, config)
        assert result.stalls[StallReason.NO_LOAD_REGISTER] >= 1


class TestMemoryDisambiguation:
    STORE_LOAD = """
        A_IMM A1, 100
        S_IMM S1, 7.5
        STORE_S A1[0], S1
        LOAD_S S2, A1[0]     ; must see 7.5 (forward or ordered access)
        LOAD_S S3, A1[1]     ; independent address
        HALT
    """

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_store_to_load_value(self, cls):
        engine, result = run_engine(cls, self.STORE_LOAD)
        assert engine.regs.read(S(2)) == 7.5
        assert engine.regs.read(S(3)) == 0

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_forward_counted(self, cls):
        engine, _ = run_engine(cls, self.STORE_LOAD)
        assert engine.mdu.forwards >= 1

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_store_store_load_ordering(self, cls):
        engine, _ = run_engine(cls, """
            A_IMM A1, 100
            S_IMM S1, 1.0
            S_IMM S2, 2.0
            STORE_S A1[0], S1
            STORE_S A1[0], S2
            LOAD_S S3, A1[0]
        """)
        assert engine.regs.read(S(3)) == 2.0
        assert engine.memory.peek(100) == 2.0

    @pytest.mark.parametrize("cls", WINDOW_ENGINES)
    def test_unknown_address_blocks_younger_memory_ops(self, cls):
        # The first store's address comes from a slow A_MUL; the later
        # load to a *different* address must still wait for resolution.
        source = """
            A_IMM A1, 10
            A_IMM A2, 20
            S_IMM S1, 5.0
            A_MUL A3, A1, A2     ; address = 200, ready late
            STORE_S A3[0], S1
            LOAD_S S2, A2[0]     ; address 20, independent
            HALT
        """
        engine, result = run_engine(cls, source)
        assert engine.memory.peek(200) == 5.0
        assert engine.regs.read(S(2)) == 0


class TestDispatchPaths:
    def test_two_paths_never_slower(self):
        source = OOO_DEMO
        cfg1 = MachineConfig(window_size=8, dispatch_paths=1)
        cfg2 = MachineConfig(window_size=8, dispatch_paths=2)
        _, r1 = run_engine(RSTUEngine, source, cfg1)
        _, r2 = run_engine(RSTUEngine, source, cfg2)
        assert r2.cycles <= r1.cycles

    def test_rstu_entry_held_until_completion(self):
        """An RSTU entry is 'wasted' while its instruction executes: with
        one entry, back-to-back independent float adds serialize on the
        station even though the unit is pipelined."""
        source = """
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            F_ADD S3, S1, S1
            HALT
        """
        config = MachineConfig(window_size=1)
        _, pool = run_engine(RSPoolEngine, source, config)
        _, rstu = run_engine(RSTUEngine, source, config)
        # RS pool frees the station at dispatch; the RSTU only at
        # completion, so the RSTU run is strictly longer.
        assert rstu.cycles > pool.cycles
