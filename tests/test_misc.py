"""Coverage for small public-surface pieces not exercised elsewhere."""

import pytest

from repro.isa import ArithmeticFault, assemble
from repro.machine import (
    CRAY1_LIKE,
    InterruptRecord,
    MachineConfig,
    PageFault,
    SimResult,
)
from repro.workloads import Workload, memory_from_arrays


class TestConfigHelpers:
    def test_config_for_window(self):
        config = CRAY1_LIKE.with_(window_size=25)
        assert config.window_size == 25
        assert config.latencies == CRAY1_LIKE.latencies

    def test_config_for_window_with_base_and_overrides(self):
        base = MachineConfig(n_load_registers=2)
        config = base.with_(window_size=7, dispatch_paths=2)
        assert config.window_size == 7
        assert config.n_load_registers == 2
        assert config.dispatch_paths == 2

    def test_cray1_like_is_shared_default(self):
        assert CRAY1_LIKE.window_size == MachineConfig().window_size


class TestInterruptRecord:
    def test_describe_precise(self):
        record = InterruptRecord(
            cause=PageFault(100, is_store=False),
            seq=5, pc=2, cycle=40, claims_precise=True,
        )
        text = record.describe()
        assert "precise" in text and "100" in text and "#5" in text

    def test_describe_imprecise(self):
        record = InterruptRecord(
            cause=ArithmeticFault("reciprocal of zero"),
            seq=1, pc=0, cycle=7, claims_precise=False,
        )
        assert "IMPRECISE" in record.describe()


class TestWorkloadValidation:
    def test_validate_reports_location(self):
        import numpy as np
        program = assemble("HALT")
        workload = Workload(
            name="w",
            program=program,
            initial_memory=memory_from_arrays({10: [1.0, 2.0]}),
            expected_outputs={"out": (10, np.array([1.0, 5.0]))},
        )
        failures = workload.validate(workload.make_memory())
        assert len(failures) == 1
        assert "first at +1" in failures[0]

    def test_validate_passes_matching(self):
        import numpy as np
        program = assemble("HALT")
        workload = Workload(
            name="w",
            program=program,
            initial_memory=memory_from_arrays({10: [1.0, 2.0]}),
            expected_outputs={"out": (10, np.array([1.0, 2.0]))},
        )
        assert workload.validate(workload.make_memory()) == []

    def test_memory_from_arrays_handles_numpy_scalars(self):
        import numpy as np
        memory = memory_from_arrays(
            {0: np.array([1.5, 2.5]), 10: np.array([3, 4])}
        )
        assert memory.peek(0) == 1.5
        assert isinstance(memory.peek(10), int)


class TestSimResultDescribe:
    def test_describe_contains_fields(self):
        result = SimResult("rstu", "LLL9", cycles=1000, instructions=400)
        text = result.describe()
        assert "rstu" in text and "LLL9" in text and "0.400" in text


class TestEngineMisc:
    def test_continue_without_interrupt_raises(self):
        from repro.core import RUUEngine
        from repro.machine import SimulationError
        engine = RUUEngine(assemble("HALT"), MachineConfig())
        engine.run()
        with pytest.raises(SimulationError):
            engine.continue_run()

    def test_result_extra_has_fu_utilization(self):
        from repro.issue import SimpleEngine
        result = SimpleEngine(
            assemble("A_IMM A1, 1\nHALT"), MachineConfig()
        ).run()
        assert result.extra["fu_utilization"] == {"transmit": 1}

    def test_zero_instruction_program(self):
        from repro.core import RUUEngine
        result = RUUEngine(assemble(""), MachineConfig()).run()
        assert result.instructions == 0
        assert result.cycles <= 2

    def test_engine_done_state(self):
        from repro.issue import SimpleEngine
        engine = SimpleEngine(assemble("NOP\nHALT"), MachineConfig())
        assert not engine.done()
        engine.run()
        assert engine.done()
