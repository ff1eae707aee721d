"""Interaction tests: speculation plus precise interrupts.

The §7 machine must keep the §5 guarantee: a trap older than pending
predicted branches squashes them along with everything else, the state
is the sequential prefix, and execution restarts cleanly -- including
when the restart immediately re-enters speculation.
"""

import pytest

from repro.analysis import ENGINE_FACTORIES, check_run
from repro.core import (
    AlwaysTakenPredictor,
    SpeculativeRUUEngine,
    StaticBTFNPredictor,
)
from repro.isa import assemble
from repro.machine import MachineConfig
from repro.trace import reference_state
from repro.workloads import branch_heavy, fault_probe, lll1

CONFIG = MachineConfig(window_size=16)


@pytest.fixture
def spec_engine(monkeypatch):
    """Register ``spec-test``, a speculative RUU with the given
    predictor; returns the list of engines it has built."""
    def register(predictor_cls=StaticBTFNPredictor):
        built = []

        def build(program, config, memory):
            built.append(SpeculativeRUUEngine(
                program, config, memory=memory, predictor=predictor_cls()))
            return built[-1]

        monkeypatch.setitem(ENGINE_FACTORIES, "spec-test", build)
        return built
    return register


class TestFaultDuringSpeculation:
    @pytest.mark.parametrize("predictor_cls", [StaticBTFNPredictor,
                                               AlwaysTakenPredictor])
    def test_precise_and_restartable(self, predictor_cls, spec_engine):
        built = spec_engine(predictor_cls)
        workload = fault_probe(fault_index=7)
        check = check_run("spec-test", workload, CONFIG,
                          workload.fault_address)
        assert len(check.traps) == 1
        assert check.traps[0].claims_precise
        assert check.passed, check.describe()
        assert not built[-1]._pending_branches

    def test_precision_checked_against_prefix(self):
        check = check_run("spec-ruu", lll1(), CONFIG, 2008)  # y[8]
        assert check.traps
        assert check.precise, check.describe()

    def test_fault_on_branchy_code(self, spec_engine):
        built = spec_engine()
        workload = branch_heavy(length=80)
        # fault one of the value loads mid-stream
        check = check_run("spec-test", workload, CONFIG, 2000 + 41)
        assert check.traps and check.traps[0].claims_precise
        assert check.passed, check.describe()
        failures = workload.validate(built[-1].memory)
        assert not failures

    def test_wrong_path_load_fault_never_traps(self):
        """A page fault raised by a *wrong-path* load must be squashed,
        not serviced: predicted-not-taken runs into a load of an
        unmapped address, but the branch is actually taken."""
        source = """
            A_IMM A1, 900        ; unmapped page
            A_IMM A2, 3
            A_MUL A0, A2, A2     ; slow condition, nonzero -> taken
            BR_NONZERO A0, safe
            LOAD_S S1, A1[0]     ; wrong path: would page-fault
        safe:
            A_IMM A3, 1
            HALT
        """
        program = assemble(source)

        class NotTaken(StaticBTFNPredictor):
            def predict(self, inst):
                return False

        from repro.machine import Memory
        memory = Memory()
        memory.inject_fault(900)
        engine = SpeculativeRUUEngine(program, CONFIG, memory=memory,
                                      predictor=NotTaken())
        result = engine.run()
        assert engine.interrupt_record is None
        assert result.mispredictions == 1
        golden = reference_state(program, Memory())
        assert engine.regs == golden.regs
