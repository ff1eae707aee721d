"""Workload-level tests: kernels implement their mathematics, data is
deterministic, and the dynamic instruction mix is sensible."""

import pytest

from repro.isa import FUClass
from repro.trace import FunctionalExecutor
from repro.workloads import LIVERMORE_FACTORIES, all_loops
from repro.workloads.livermore import lll2
from repro.workloads.synthetic import ALL_SYNTHETIC


@pytest.mark.parametrize("number", sorted(LIVERMORE_FACTORIES))
def test_livermore_kernel_matches_reference(number):
    workload = LIVERMORE_FACTORIES[number]()
    memory = workload.make_memory()
    FunctionalExecutor(workload.program, memory).run()
    failures = workload.validate(memory)
    assert not failures, failures


@pytest.mark.parametrize("factory", ALL_SYNTHETIC)
def test_synthetic_kernel_matches_reference(factory):
    workload = factory()
    memory = workload.make_memory()
    FunctionalExecutor(workload.program, memory).run()
    failures = workload.validate(memory)
    assert not failures, failures


def test_validation_detects_corruption():
    workload = LIVERMORE_FACTORIES[1]()
    memory = workload.make_memory()
    FunctionalExecutor(workload.program, memory).run()
    base, expected = workload.expected_outputs["x"]
    memory.poke(base + 3, 123456.0)
    assert workload.validate(memory)


def test_data_is_deterministic():
    a = LIVERMORE_FACTORIES[7]()
    b = LIVERMORE_FACTORIES[7]()
    assert a.initial_memory == b.initial_memory


def test_make_memory_is_fresh():
    workload = LIVERMORE_FACTORIES[1]()
    m1 = workload.make_memory()
    m1.poke(0, 99)
    assert workload.make_memory().peek(0) == 0


def test_loops_have_distinct_names():
    names = [wl.name for wl in all_loops()]
    assert len(set(names)) == 14


def test_sizes_scale():
    small = lll2(n=32)
    large = lll2(n=64)
    small_count = FunctionalExecutor(
        small.program, small.make_memory()
    ).run()
    large_count = FunctionalExecutor(
        large.program, large.make_memory()
    ).run()
    assert len(large_count) > len(small_count)


def test_lll2_requires_power_of_two():
    with pytest.raises(ValueError):
        lll2(n=48)


class TestInstructionMix:
    @pytest.fixture(scope="class")
    def traces(self):
        traces = {}
        for workload in all_loops():
            executor = FunctionalExecutor(
                workload.program, workload.make_memory()
            )
            traces[workload.name] = executor.run()
        return traces

    def test_every_loop_has_memory_traffic(self, traces):
        for name, trace in traces.items():
            assert trace.memory_count() > 0, name

    def test_every_loop_has_branches(self, traces):
        for name, trace in traces.items():
            assert trace.branch_count() > 0, name

    def test_float_loops_use_float_units(self, traces):
        for name in ("LLL1", "LLL3", "LLL5", "LLL7"):
            mix = traces[name].fu_mix()
            assert (
                mix.get(FUClass.FLOAT_ADD, 0)
                + mix.get(FUClass.FLOAT_MUL, 0)
            ) > 0, name

    def test_lll13_uses_address_multiply(self, traces):
        assert traces["LLL13"].fu_mix().get(FUClass.ADDR_MUL, 0) > 0

    def test_branches_mostly_taken_in_loops(self, traces):
        trace = traces["LLL3"]
        assert trace.taken_count() > trace.branch_count() * 0.8

    def test_total_size_reasonable(self, traces):
        total = sum(len(trace) for trace in traces.values())
        assert 15_000 < total < 60_000
