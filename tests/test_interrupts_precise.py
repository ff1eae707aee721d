"""Precise-interrupt tests: the paper's central correctness claim.

The RUU (and the Smith & Pleszkun machines) must expose exactly the
sequential prefix state at any trap and be restartable; the baseline
and RSTU machines are shown imprecise on a crafted scenario.
"""

import pytest

from repro.analysis import check_run
from repro.core import RUUEngine
from repro.isa import assemble
from repro.issue import RSTUEngine, SimpleEngine
from repro.machine import MachineConfig, Memory
from repro.trace import reference_state
from repro.workloads import Workload, fault_probe, lll1, lll5

CONFIG = MachineConfig(window_size=10)

PRECISE = [
    "ruu-bypass", "ruu-nobypass", "ruu-limited", "spec-ruu",
    "reorder-buffer", "rob-bypass", "history-buffer", "future-file",
]


def program_workload(source):
    return Workload("program", assemble(source), Memory())


@pytest.fixture(scope="module")
def probe():
    return fault_probe()


class TestPageFaultPrecision:
    @pytest.mark.parametrize("name", sorted(PRECISE))
    def test_precise_on_fault_probe(self, name, probe):
        check = check_run(name, probe, CONFIG, probe.fault_address)
        assert len(check.traps) == 1
        assert check.traps[0].claims_precise
        assert check.precise, check.describe()

    @pytest.mark.parametrize("name", sorted(PRECISE))
    def test_restartable(self, name, probe):
        check = check_run(name, probe, CONFIG, probe.fault_address)
        assert check.traps and check.completed
        assert check.passed, check.describe()

    @pytest.mark.parametrize("fault_index", [0, 5, 13, 19])
    def test_fault_at_any_load(self, fault_index):
        probe = fault_probe(fault_index=fault_index)
        check = check_run("ruu-bypass", probe, CONFIG, probe.fault_address)
        assert check.traps and check.precise, check.describe()

    def test_interrupt_pc_is_faulting_instruction(self, probe):
        check = check_run("ruu-bypass", probe, CONFIG, probe.fault_address)
        # The probe's only load is the first instruction of the loop body.
        assert probe.program[check.traps[0].pc].is_load

    def test_recovery_yields_fault_free_state(self, probe):
        """The final registers, memory and retired count are compared
        with the golden run: a wrong retired count alone fails."""
        check = check_run("ruu-nobypass", probe, CONFIG,
                          probe.fault_address)
        assert len(check.traps) == 1
        assert check.passed, check.describe()


class TestStoreFaults:
    def test_store_page_fault_is_precise(self):
        wl = lll1()
        # LLL1 stores to x at base 1000; fault the 5th store target.
        check = check_run("ruu-bypass", wl, CONFIG, 1004)
        assert check.traps and check.traps[0].claims_precise
        assert check.traps[0].cause.is_store
        assert check.precise, check.describe()

    def test_store_fault_restartable(self):
        check = check_run("ruu-limited", lll5(), CONFIG, 1010)
        assert check.traps and check.passed, check.describe()


class TestArithmeticFaults:
    RECIP_ZERO = """
        A_IMM A1, 1
        A_IMM A2, 2
        S_IMM S1, 0.0
        F_RECIP S2, S1
        A_IMM A3, 3
        HALT
    """

    def test_recip_zero_precise_on_ruu(self):
        workload = program_workload(self.RECIP_ZERO)
        engine = RUUEngine(workload.program, CONFIG)
        engine.run()
        record = engine.interrupt_record
        assert record is not None and record.claims_precise
        check = check_run("ruu-bypass", workload, CONFIG)
        assert check.precise and not check.completed, check.describe()
        # A3 (younger than the trap) must NOT be visible.
        from repro.isa import A
        assert engine.regs.read(A(3)) == 0

    def test_unserviceable_trap_ends_the_check(self):
        """A page fault is serviced and resumed; the arithmetic trap
        after it cannot be, so the check stops there instead of
        resuming into the same trap forever."""
        workload = program_workload("""
            A_IMM A1, 100
            LOAD_S S1, A1[0]
            S_IMM S2, 0.0
            F_RECIP S3, S2
            HALT
        """)
        check = check_run("ruu-bypass", workload, CONFIG, 100)
        assert [type(trap.cause).__name__ for trap in check.traps] == \
            ["PageFault", "ArithmeticFault"]
        assert check.precise and not check.completed
        assert not check.passed
        assert "unserviceable trap, not resumed" in check.detail
        assert "reciprocal of zero" in check.detail


class TestImpreciseMachines:
    IMPRECISE_SOURCE = """
        A_IMM A1, 100
        S_IMM S1, 0.0
        F_RECIP S2, S1      ; traps at completion (14 cycles away)
        A_IMM A3, 42        ; younger; completes first on these machines
        A_IMM A4, 43
        HALT
    """

    @pytest.mark.parametrize("cls", [SimpleEngine, RSTUEngine])
    def test_state_is_not_the_prefix(self, cls):
        check = check_run(cls.name, program_workload(self.IMPRECISE_SOURCE),
                          CONFIG)
        assert len(check.traps) == 1
        assert not check.traps[0].claims_precise
        assert not check.precise and not check.completed
        assert "trap was imprecise" in check.detail
        # younger writes leaked
        assert "registers diverge from the golden prefix" in check.detail

    @pytest.mark.parametrize("cls", [SimpleEngine, RSTUEngine])
    def test_imprecise_cannot_resume(self, cls):
        from repro.machine import SimulationError
        program = assemble(self.IMPRECISE_SOURCE)
        engine = cls(program, CONFIG)
        engine.run()
        with pytest.raises(SimulationError):
            engine.continue_run()


class TestRepeatedFaults:
    def test_two_distinct_faults_serviced_in_turn(self):
        wl = fault_probe()
        memory = wl.initial_memory.copy()
        memory.inject_fault(wl.fault_address)
        memory.inject_fault(wl.fault_address + 3)
        engine = RUUEngine(wl.program, CONFIG, memory=memory)
        engine.run()
        records = []
        while engine.interrupt_record is not None:
            records.append(engine.interrupt_record)
            memory.service_fault(engine.interrupt_record.cause.address)
            engine.continue_run()
        assert len(records) == 2
        clean = reference_state(wl.program, wl.initial_memory)
        assert engine.regs == clean.regs
        assert engine.memory == clean.memory
