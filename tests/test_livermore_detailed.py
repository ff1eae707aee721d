"""Per-loop structural and behavioural assertions for the Livermore
kernels -- the properties that make each loop a *meaningful* member of
the benchmark suite (serial vs parallel, B/T usage, aliasing, ...)."""

import pytest

from repro.analysis import ENGINE_FACTORIES, dataflow_limit
from repro.isa import Opcode, RegBank
from repro.machine import MachineConfig
from repro.trace import FunctionalExecutor
from repro.workloads import LIVERMORE_FACTORIES


@pytest.fixture(scope="module")
def traces():
    out = {}
    for number, factory in LIVERMORE_FACTORIES.items():
        workload = factory()
        executor = FunctionalExecutor(workload.program,
                                      workload.make_memory())
        out[number] = (workload, executor.run())
    return out


def static_opcodes(workload):
    return {inst.opcode for inst in workload.program}


def static_banks(workload):
    banks = set()
    for inst in workload.program:
        for reg in inst.sources:
            banks.add(reg.bank)
        if inst.dest is not None:
            banks.add(inst.dest.bank)
    return banks


class TestStructure:
    def test_lll1_is_multiply_add(self, traces):
        workload, trace = traces[1]
        ops = static_opcodes(workload)
        assert Opcode.F_MUL in ops and Opcode.F_ADD in ops
        assert Opcode.MOV in ops  # T-file constant staging

    def test_lll2_has_nested_control(self, traces):
        workload, _ = traces[2]
        ops = static_opcodes(workload)
        assert Opcode.JMP in ops           # outer loop back-edge
        assert Opcode.S_SHR in ops         # the ii //= 2 halving

    def test_lll4_uses_b_registers(self, traces):
        workload, _ = traces[4]
        assert RegBank.B in static_banks(workload)

    def test_lll8_and_9_stage_constants_in_t(self, traces):
        for number in (8, 9):
            workload, _ = traces[number]
            assert RegBank.T in static_banks(workload), number

    def test_lll13_14_are_indirect(self, traces):
        for number in (13, 14):
            workload, _ = traces[number]
            assert Opcode.LOAD_A in static_opcodes(workload), number

    def test_lll13_has_address_multiply(self, traces):
        workload, _ = traces[13]
        assert Opcode.A_MUL in static_opcodes(workload)

    def test_store_traffic_where_expected(self, traces):
        # the pure reduction (LLL3) stores once; the banded solver
        # (LLL4) stores once per band row; all others store per element
        for number, (workload, trace) in traces.items():
            stores = sum(1 for e in trace if e.inst.is_store)
            if number == 3:
                assert stores == 1
            elif number == 4:
                assert 1 <= stores <= 5
            else:
                assert stores > 5, number


class TestParallelismProfile:
    """The ILP structure that drives the paper's results."""

    @pytest.fixture(scope="class")
    def ideal_ipcs(self, traces):
        return {
            number: dataflow_limit(trace).ideal_ipc
            for number, (_, trace) in traces.items()
        }

    def test_serial_kernels_have_low_ideal_ipc(self, ideal_ipcs):
        # first sum and inner product are accumulator chains
        assert ideal_ipcs[11] < 2.5
        assert ideal_ipcs[3] < 2.5

    def test_parallel_kernels_have_high_ideal_ipc(self, ideal_ipcs):
        # first difference and hydro are element-wise parallel
        assert ideal_ipcs[12] > 2 * ideal_ipcs[11]
        assert ideal_ipcs[1] > 2 * ideal_ipcs[11]

    def test_serial_loop_sits_closer_to_its_dataflow_limit(self, traces):
        """A 1-issue machine cannot exploit wide parallelism, so the
        serial prefix sum runs much closer to its (low) dataflow limit
        than the fully parallel first difference runs to its (high)
        one."""
        fractions = {}
        for number in (11, 12):
            workload, trace = traces[number]
            limit = dataflow_limit(trace)
            ruu = ENGINE_FACTORIES["ruu-bypass"](
                workload.program, MachineConfig(window_size=20),
                workload.make_memory(),
            ).run()
            fractions[number] = limit.critical_path_cycles / ruu.cycles
        assert fractions[11] > 2 * fractions[12]

    def test_lll14_correct_under_load_register_pressure(self, traces):
        """The 1-D PIC's dependent address chain (ir[k] -> rh[ix]) must
        stay correct even when the load registers are scarce."""
        workload, _ = traces[14]
        from repro.machine import StallReason
        from repro.trace import reference_state
        golden = reference_state(workload.program, workload.initial_memory)
        memory = workload.make_memory()
        engine = ENGINE_FACTORIES["ruu-bypass"](
            workload.program,
            MachineConfig(window_size=20, n_load_registers=2),
            memory,
        )
        result = engine.run()
        assert result.stalls[StallReason.NO_LOAD_REGISTER] > 0
        assert engine.regs == golden.regs
        assert memory == golden.memory
