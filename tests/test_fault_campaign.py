"""Exhaustive fault-injection campaigns: precision at every data site."""

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.core import (
    BypassMode,
    RUUEngine,
    SpeculativeRUUEngine,
    fault_injection_campaign,
)
from repro.interrupts import HistoryBufferEngine
from repro.machine import MachineConfig
from repro.machine.faults import SimulationError
from repro.workloads import (
    LIVERMORE_FACTORIES,
    fault_probe,
    memory_alias_kernel,
)

CONFIG = MachineConfig(window_size=10)


def ruu_factory(bypass=BypassMode.FULL):
    return lambda program, memory: RUUEngine(
        program, CONFIG, memory=memory, bypass=bypass
    )


class TestCampaigns:
    @pytest.mark.parametrize("loop", [1, 3, 5, 12])
    def test_every_site_precise_on_ruu(self, loop):
        workload = LIVERMORE_FACTORIES[loop](
            **({"n": 24} if loop != 3 else {"n": 30})
        )
        result = fault_injection_campaign(
            ruu_factory(), workload, max_sites=20
        )
        assert result.faults_taken > 0
        assert result.all_precise, result.imprecise_sites
        assert result.all_recovered
        assert "OK" in result.describe()

    @pytest.mark.parametrize("bypass", list(BypassMode))
    def test_all_bypass_modes(self, bypass):
        workload = LIVERMORE_FACTORIES[5](n=24)
        result = fault_injection_campaign(
            ruu_factory(bypass), workload, max_sites=12
        )
        assert result.all_precise and result.all_recovered

    def test_speculative_engine_campaign(self):
        workload = LIVERMORE_FACTORIES[3](n=30)

        def factory(program, memory):
            return SpeculativeRUUEngine(program, CONFIG, memory=memory)

        result = fault_injection_campaign(factory, workload, max_sites=12)
        assert result.faults_taken > 0
        assert result.all_precise and result.all_recovered

    def test_history_buffer_campaign(self):
        workload = LIVERMORE_FACTORIES[12](n=30)

        def factory(program, memory):
            return HistoryBufferEngine(program, CONFIG, memory=memory)

        result = fault_injection_campaign(factory, workload, max_sites=12)
        assert result.all_precise and result.all_recovered

    def test_aliased_stores_campaign(self):
        """The alias kernel's read-modify-write traffic is the hardest
        case: every address has both pending loads and stores."""
        workload = memory_alias_kernel(iterations=12)
        result = fault_injection_campaign(ruu_factory(), workload)
        assert result.sites_tested == 4
        assert result.faults_taken == 4
        assert result.all_precise and result.all_recovered

    def test_site_cap_respected(self):
        workload = LIVERMORE_FACTORIES[12](n=40)
        result = fault_injection_campaign(
            ruu_factory(), workload, max_sites=5
        )
        assert result.sites_tested <= 5


class TestImpreciseEngines:
    """Negative controls: the paper's problem machines must *fail* the
    precision claim, and the harness must refuse to resume them.  If one
    of these ever starts passing, either the engine quietly became
    precise (update its ``claims_precise_interrupts``) or the verifier
    stopped checking anything."""

    IMPRECISE = ["tomasulo", "dispatch-stack", "simple"]

    def trap(self, name):
        workload = fault_probe()
        memory = workload.make_memory()
        memory.inject_fault(workload.fault_address)
        engine = ENGINE_FACTORIES[name](workload.program, CONFIG, memory)
        engine.run()
        return engine, workload

    @pytest.mark.parametrize("name", IMPRECISE)
    def test_interrupt_is_reported_imprecise(self, name):
        engine, _ = self.trap(name)
        record = engine.interrupt_record
        assert record is not None, "fault was never taken"
        assert not record.claims_precise
        assert not engine.claims_precise_interrupts
        assert "IMPRECISE" in record.describe()

    @pytest.mark.parametrize("name", IMPRECISE)
    def test_resume_is_refused(self, name):
        engine, workload = self.trap(name)
        engine.memory.service_fault(workload.fault_address)
        with pytest.raises(SimulationError, match="imprecise"):
            engine.continue_run()
