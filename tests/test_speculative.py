"""Tests for the speculative RUU (branch prediction + conditional
execution, paper section 7)."""

import pytest

from repro.core import (
    AlwaysTakenPredictor,
    BypassMode,
    RUUEngine,
    SpeculativeRUUEngine,
    StaticBTFNPredictor,
    TwoBitPredictor,
)
from repro.isa import A, assemble
from repro.machine import MachineConfig
from repro.trace import reference_state
from repro.workloads import branch_heavy, lll3, lll5

CONFIG = MachineConfig(window_size=16)

PREDICTORS = [TwoBitPredictor, StaticBTFNPredictor, AlwaysTakenPredictor]


def run_spec(source_or_program, predictor_cls=TwoBitPredictor,
             config=None, memory=None, bypass=BypassMode.FULL):
    program = (
        assemble(source_or_program)
        if isinstance(source_or_program, str) else source_or_program
    )
    engine = SpeculativeRUUEngine(
        program, config or CONFIG, memory=memory, bypass=bypass,
        predictor=predictor_cls(),
    )
    result = engine.run()
    return engine, result


LOOP = """
    A_IMM A1, 100
    A_IMM A0, 8
loop:
    LOAD_S S1, A1[0]
    F_ADD S2, S2, S1
    A_ADDI A1, A1, 1
    A_ADDI A0, A0, -1
    BR_NONZERO A0, loop
    HALT
"""


class TestCorrectness:
    @pytest.mark.parametrize("predictor_cls", PREDICTORS)
    def test_loop_result_correct(self, predictor_cls):
        program = assemble(LOOP)
        golden = reference_state(program)
        engine, result = run_spec(program, predictor_cls)
        assert engine.regs == golden.regs
        assert result.instructions == golden.executed

    @pytest.mark.parametrize("predictor_cls", PREDICTORS)
    @pytest.mark.parametrize("bypass", list(BypassMode))
    def test_branchy_workload_correct(self, predictor_cls, bypass):
        wl = branch_heavy()
        golden = reference_state(wl.program, wl.initial_memory)
        memory = wl.make_memory()
        engine, result = run_spec(
            wl.program, predictor_cls, memory=memory, bypass=bypass
        )
        assert engine.regs == golden.regs
        assert memory == golden.memory
        assert result.instructions == golden.executed

    def test_counters_clean_after_recoveries(self):
        wl = branch_heavy()
        engine, result = run_spec(wl.program, AlwaysTakenPredictor,
                                  memory=wl.make_memory())
        assert result.mispredictions > 0
        assert not any(engine._ni)
        assert not engine._pending_branches

    def test_wrong_path_stores_never_reach_memory(self):
        # Mispredict into a store, then recover: memory must be clean.
        source = """
            A_IMM A1, 100
            A_IMM A2, 3
            A_MUL A0, A2, A2     ; slow condition (nonzero -> taken)
            BR_NONZERO A0, good
            S_IMM S1, 666.0
            STORE_S A1[0], S1    ; wrong path if predicted not-taken
        good:
            HALT
        """
        program = assemble(source)

        class NotTaken(TwoBitPredictor):
            def predict(self, inst):
                return False

        engine, result = run_spec(program, NotTaken)
        assert result.mispredictions == 1
        assert engine.memory.peek(100) == 0


class TestSpeculationMechanics:
    def test_speculation_happens(self):
        engine, result = run_spec(LOOP)
        assert engine.predictions > 0

    def test_speculative_beats_blocking_when_condition_is_slow(self):
        # Condition computed by a slow multiply each iteration forces the
        # non-speculative RUU to stall at every branch.
        source = """
            A_IMM A1, 100
            A_IMM A2, 1
            A_IMM A3, 6
        loop:
            LOAD_S S1, A1[0]
            F_ADD S2, S2, S1
            A_ADDI A1, A1, 1
            A_SUB A3, A3, A2
            A_MUL A0, A3, A2     ; slow branch condition
            BR_NONZERO A0, loop
            HALT
        """
        program = assemble(source)
        golden = reference_state(program)
        plain = RUUEngine(program, CONFIG)
        plain_result = plain.run()
        engine, spec_result = run_spec(program, StaticBTFNPredictor)
        assert engine.regs == golden.regs
        assert spec_result.cycles < plain_result.cycles

    def test_max_branches_limits_speculation(self):
        config = CONFIG.with_(spec_max_branches=1)
        wl = branch_heavy(length=40)
        golden = reference_state(wl.program, wl.initial_memory)
        memory = wl.make_memory()
        engine, result = run_spec(wl.program, TwoBitPredictor,
                                  config=config, memory=memory)
        assert engine.regs == golden.regs

    def test_prediction_accuracy_reported(self):
        engine, result = run_spec(LOOP, StaticBTFNPredictor)
        if result.extra.get("predictions"):
            assert 0.0 <= result.extra["prediction_accuracy"] <= 1.0

    def test_nested_speculation(self):
        # Two unresolved branches at once: inner loop over outer loop,
        # both with slow conditions.
        source = """
            A_IMM A5, 3
        outer:
            A_IMM A6, 3
        inner:
            A_ADDI A6, A6, -1
            MOV A0, A6
            BR_NONZERO A0, inner
            A_ADDI A5, A5, -1
            MOV A0, A5
            BR_NONZERO A0, outer
            HALT
        """
        program = assemble(source)
        golden = reference_state(program)
        engine, result = run_spec(program, StaticBTFNPredictor)
        assert engine.regs == golden.regs
        assert result.instructions == golden.executed


class TestPredictors:
    def test_two_bit_learns_a_loop(self):
        from repro.isa import Instruction, Opcode
        pred = TwoBitPredictor()
        branch = Instruction(
            Opcode.BR_NONZERO, srcs=(A(0),), target=0,
        )
        for _ in range(3):
            pred.update(branch, True)
        assert pred.predict(branch)
        pred.update(branch, False)
        assert pred.predict(branch)  # hysteresis: one miss does not flip

    def test_two_bit_saturation_bounds(self):
        from repro.isa import Instruction, Opcode
        pred = TwoBitPredictor(initial=3)
        branch = Instruction(Opcode.BR_ZERO, srcs=(A(0),), target=0)
        for _ in range(10):
            pred.update(branch, False)
        assert not pred.predict(branch)
        pred.update(branch, True)
        pred.update(branch, True)
        assert pred.predict(branch)

    def test_two_bit_initial_validation(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(initial=4)

    def test_btfn(self):
        from repro.isa import Instruction, Opcode
        backward = Instruction(Opcode.BR_ZERO, srcs=(A(0),), target=0)
        object.__setattr__(backward, "pc", 5)
        forward = Instruction(Opcode.BR_ZERO, srcs=(A(0),), target=9)
        object.__setattr__(forward, "pc", 5)
        pred = StaticBTFNPredictor()
        assert pred.predict(backward)
        assert not pred.predict(forward)

    def test_reset(self):
        from repro.isa import Instruction, Opcode
        pred = TwoBitPredictor()
        branch = Instruction(Opcode.BR_ZERO, srcs=(A(0),), target=0)
        pred.update(branch, True)
        pred.update(branch, True)
        pred.reset()
        assert not pred.predict(branch)


class TestOnLoops:
    @pytest.mark.parametrize("factory", [lll3, lll5])
    def test_livermore_subset_correct(self, factory):
        wl = factory()
        golden = reference_state(wl.program, wl.initial_memory)
        memory = wl.make_memory()
        engine, result = run_spec(wl.program, memory=memory)
        assert engine.regs == golden.regs
        assert memory == golden.memory
        assert result.instructions == golden.executed
