"""The heaviest internal-consistency sweep: per-cycle invariant
checking across all 14 Livermore loops, every RUU bypass mode, and the
speculative engine -- several hundred thousand checked cycles."""

import pytest

from repro.core import (
    BypassMode,
    RUUEngine,
    SpeculativeRUUEngine,
    StaticBTFNPredictor,
)
from repro.machine import MachineConfig
from repro.trace import reference_state

from tests.support import run_checked


@pytest.mark.parametrize("bypass", list(BypassMode))
def test_all_loops_fully_checked(bypass, livermore_loops, golden):
    config = MachineConfig(window_size=12)
    total_cycles = 0
    for workload in livermore_loops:
        memory = workload.make_memory()
        engine = RUUEngine(workload.program, config, memory=memory,
                           bypass=bypass)
        result, checker = run_checked(engine)
        total_cycles += checker.cycles_checked
        reference = golden[workload.name]
        assert engine.regs == reference.regs, workload.name
        assert memory == reference.memory, workload.name
    assert total_cycles > 10_000


def test_all_loops_checked_speculatively(livermore_loops, golden):
    config = MachineConfig(window_size=12)
    for workload in livermore_loops:
        memory = workload.make_memory()
        engine = SpeculativeRUUEngine(
            workload.program, config, memory=memory,
            predictor=StaticBTFNPredictor(),
        )
        result, checker = run_checked(engine)
        reference = golden[workload.name]
        assert engine.regs == reference.regs, workload.name
        assert memory == reference.memory, workload.name
        assert checker.cycles_checked == result.cycles


def test_checked_under_extreme_pressure(livermore_loops):
    """Tiny everything: 2-entry window, 1-bit counters, 1 load register
    -- the invariants must hold even in full structural starvation."""
    config = MachineConfig(
        window_size=2, counter_bits=1, n_load_registers=1
    )
    for workload in livermore_loops[:5]:
        memory = workload.make_memory()
        engine = RUUEngine(workload.program, config, memory=memory)
        run_checked(engine)
        reference = reference_state(workload.program,
                                    workload.initial_memory)
        assert engine.regs == reference.regs, workload.name


class TestFullCycleAttribution:
    """The observability oracle: every engine on every Livermore loop
    must account for *every* cycle (no 'unaccounted' bucket) and the
    recorded stall events must reconcile exactly with
    ``SimResult.stalls``."""

    def test_every_engine_every_loop_fully_attributed(
            self, livermore_loops):
        from repro.analysis import ENGINE_FACTORIES
        from repro.obs import TraceRecorder, attribute_cycles
        from repro.obs.events import UNACCOUNTED

        config = MachineConfig(window_size=8)
        runs = 0
        engines = {
            name: builder
            for name, builder in ENGINE_FACTORIES.items()
            if not name.startswith("chaos-")
        }
        for name, builder in engines.items():
            for workload in livermore_loops:
                engine = builder(
                    workload.program, config, workload.make_memory()
                )
                recorder = TraceRecorder(detail=False)
                engine.recorder = recorder
                result = engine.run()
                # attribute_cycles asserts the buckets sum to
                # result.cycles and that stall events reconcile.
                attribution = attribute_cycles(result, recorder)
                assert sum(attribution.buckets.values()) \
                    == result.cycles, (name, workload.name)
                assert attribution.buckets.get(UNACCOUNTED, 0) == 0, (
                    name, workload.name, attribution.buckets,
                )
                assert attribution.stall_events == dict(result.stalls), (
                    name, workload.name,
                )
                runs += 1
        assert runs == len(engines) * len(livermore_loops)
        assert len(engines) >= 14

    def test_attribution_survives_structural_starvation(
            self, livermore_loops):
        """Tiny window + 1-bit counters: the stall mix shifts hard
        toward structural causes but every cycle stays classified."""
        from repro.core import RUUEngine
        from repro.obs import TraceRecorder, attribute_cycles

        config = MachineConfig(
            window_size=2, counter_bits=1, n_load_registers=1
        )
        for workload in livermore_loops[:3]:
            engine = RUUEngine(
                workload.program, config, memory=workload.make_memory()
            )
            recorder = TraceRecorder(detail=False)
            engine.recorder = recorder
            result = engine.run()
            attribution = attribute_cycles(result, recorder)
            assert attribution.unaccounted == 0, workload.name
