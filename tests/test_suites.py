"""Tests for the workload suites and the size-stability claim."""

import pytest

from repro.analysis import run_suite
from repro.machine import MachineConfig, speedup
from repro.trace import FunctionalExecutor
from repro.workloads.suites import SIZE_PRESETS, SUITES, livermore_suite


class TestSuites:
    def test_all_suites_instantiate(self):
        for name, factory in SUITES.items():
            workloads = factory()
            assert workloads, name
            assert all(w.program for w in workloads)

    @pytest.mark.parametrize("preset", sorted(SIZE_PRESETS))
    def test_presets_validate(self, preset):
        for workload in livermore_suite(preset):
            memory = workload.make_memory()
            FunctionalExecutor(workload.program, memory).run()
            failures = workload.validate(memory)
            assert not failures, failures

    def test_preset_sizes_ordered(self):
        def total(preset):
            count = 0
            for workload in livermore_suite(preset):
                executor = FunctionalExecutor(
                    workload.program, workload.make_memory()
                )
                executor.run()
                count += executor.executed
            return count

        quick, default, paper = (
            total("quick"), total("default"), total("paper")
        )
        assert quick < default < paper
        # the paper suite lands near the paper's ~118k instructions
        assert 60_000 < paper < 200_000

    def test_paper_preset_per_loop_band(self):
        for workload in livermore_suite("paper"):
            executor = FunctionalExecutor(
                workload.program, workload.make_memory()
            )
            executor.run()
            assert 2_000 < executor.executed < 25_000, (
                workload.name, executor.executed
            )


class TestSizeStability:
    def test_speedups_stable_across_presets(self):
        """The justification for benchmarking at small sizes: relative
        speedups barely move between the quick and default presets."""
        config = MachineConfig(window_size=15)

        def measure(preset):
            workloads = livermore_suite(preset)
            base = run_suite("simple", workloads)
            ruu = run_suite("ruu-bypass", workloads,
                            config)
            return base.cycles / ruu.cycles

        quick = measure("quick")
        default = measure("default")
        assert quick == pytest.approx(default, rel=0.15)
