"""Tests for the parameterized workload generator."""

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.machine import MachineConfig
from repro.trace import FunctionalExecutor, reference_state
from repro.workloads.generator import (
    GeneratorSpec,
    generate_workload,
    ilp_sweep,
    memory_sweep,
)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"streams": 0},
        {"streams": 4},
        {"memory_fraction": -0.1},
        {"memory_fraction": 1.5},
        {"working_set": 0},
        {"iterations": 0},
        {"body_ops": 0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorSpec(**kwargs)

    def test_name_encodes_knobs(self):
        spec = GeneratorSpec(streams=3, memory_fraction=0.5, seed=9)
        assert "s3" in spec.name and "m50" in spec.name and "x9" in spec.name


class TestGeneratedPrograms:
    def test_deterministic(self):
        a = generate_workload(GeneratorSpec(seed=5))
        b = generate_workload(GeneratorSpec(seed=5))
        assert a.program.listing() == b.program.listing()
        assert a.initial_memory == b.initial_memory

    def test_different_seeds_differ(self):
        a = generate_workload(GeneratorSpec(seed=1))
        b = generate_workload(GeneratorSpec(seed=2))
        assert a.program.listing() != b.program.listing()

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(),
        GeneratorSpec(streams=1, memory_fraction=0.0),
        GeneratorSpec(streams=3, memory_fraction=0.9, working_set=2),
        GeneratorSpec(branch_every=4, iterations=10),
        GeneratorSpec(memory_fraction=1.0, working_set=1, seed=3),
    ])
    def test_fault_free_and_engine_equivalent(self, spec):
        workload = generate_workload(spec)
        golden = reference_state(workload.program, workload.initial_memory)
        config = MachineConfig(window_size=10)
        for name in ("simple", "rstu", "ruu-bypass", "ruu-nobypass",
                     "spec-ruu", "dispatch-stack"):
            memory = workload.make_memory()
            engine = ENGINE_FACTORIES[name](workload.program, config,
                                            memory)
            result = engine.run()
            assert engine.interrupt_record is None, (name, spec)
            assert engine.regs == golden.regs, (name, spec)
            assert memory == golden.memory, (name, spec)
            assert result.instructions == golden.executed

    def test_branches_emitted_when_requested(self):
        workload = generate_workload(GeneratorSpec(branch_every=3))
        executor = FunctionalExecutor(workload.program,
                                      workload.make_memory())
        trace = executor.run()
        # more branches than just the loop back-edge
        branches = sum(1 for entry in trace if entry.taken is not None)
        assert branches > GeneratorSpec().iterations

    def test_memory_fraction_controls_traffic(self):
        low = generate_workload(
            GeneratorSpec(memory_fraction=0.05, seed=1)
        )
        high = generate_workload(
            GeneratorSpec(memory_fraction=0.9, seed=1)
        )

        def memory_ops(workload):
            executor = FunctionalExecutor(workload.program,
                                          workload.make_memory())
            return sum(1 for entry in executor.run() if entry.inst.is_memory)

        assert memory_ops(high) > 2 * memory_ops(low)


class TestSweeps:
    def test_ilp_sweep_monotone_for_ruu(self):
        """More independent streams -> the RUU extracts more overlap."""
        config = MachineConfig(window_size=16)
        rates = []
        for workload in ilp_sweep(iterations=16, body_ops=18, seed=7,
                                  memory_fraction=0.0):
            engine = ENGINE_FACTORIES["ruu-bypass"](
                workload.program, config, workload.make_memory()
            )
            result = engine.run()
            rates.append(result.issue_rate)
        assert rates[1] > rates[0]

    def test_memory_sweep_builds_four(self):
        workloads = memory_sweep(iterations=4, body_ops=8)
        assert len(workloads) == 4
        assert len({w.name for w in workloads}) == 4
