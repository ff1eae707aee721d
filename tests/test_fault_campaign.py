"""Exhaustive fault-injection campaigns: precision at every data site."""

import pytest

from repro.analysis import ENGINE_FACTORIES, fault_injection_campaign
from repro.core import BypassMode
from repro.machine import MachineConfig
from repro.machine.faults import SimulationError
from repro.workloads import (
    LIVERMORE_FACTORIES,
    fault_probe,
    memory_alias_kernel,
)

CONFIG = MachineConfig(window_size=10)

RUU_BY_MODE = {
    BypassMode.FULL: "ruu-bypass",
    BypassMode.NONE: "ruu-nobypass",
    BypassMode.LIMITED: "ruu-limited",
}


def faults_taken(checks):
    return sum(1 for check in checks if check.traps)


def failures(checks):
    return [check.describe() for check in checks if not check.passed]


class TestCampaigns:
    @pytest.mark.parametrize("loop", [1, 3, 5, 12])
    def test_every_site_precise_on_ruu(self, loop):
        workload = LIVERMORE_FACTORIES[loop](
            **({"n": 24} if loop != 3 else {"n": 30})
        )
        checks = fault_injection_campaign(
            "ruu-bypass", workload, CONFIG, max_sites=20
        )
        assert faults_taken(checks) > 0
        assert all(check.precise for check in checks)
        assert not failures(checks)

    @pytest.mark.parametrize("bypass", list(BypassMode))
    def test_all_bypass_modes(self, bypass):
        workload = LIVERMORE_FACTORIES[5](n=24)
        checks = fault_injection_campaign(
            RUU_BY_MODE[bypass], workload, CONFIG, max_sites=12
        )
        assert not failures(checks)

    def test_speculative_engine_campaign(self):
        workload = LIVERMORE_FACTORIES[3](n=30)
        checks = fault_injection_campaign(
            "spec-ruu", workload, CONFIG, max_sites=12)
        assert faults_taken(checks) > 0
        assert not failures(checks)

    def test_history_buffer_campaign(self):
        workload = LIVERMORE_FACTORIES[12](n=30)
        checks = fault_injection_campaign(
            "history-buffer", workload, CONFIG, max_sites=12)
        assert not failures(checks)

    def test_aliased_stores_campaign(self):
        """The alias kernel's read-modify-write traffic is the hardest
        case: every address has both pending loads and stores."""
        workload = memory_alias_kernel(iterations=12)
        checks = fault_injection_campaign("ruu-bypass", workload, CONFIG)
        assert len(checks) == 4
        assert faults_taken(checks) == 4
        assert not failures(checks)

    def test_site_cap_respected(self):
        workload = LIVERMORE_FACTORIES[12](n=40)
        checks = fault_injection_campaign(
            "ruu-bypass", workload, CONFIG, max_sites=5
        )
        assert len(checks) <= 5

    def test_retired_count_is_checked(self, monkeypatch):
        """An engine that resumes to the right registers and memory but
        retires one instruction too many fails the campaign."""
        real = ENGINE_FACTORIES["ruu-bypass"]

        def overcounting(program, config, memory):
            engine = real(program, config, memory)
            original = engine.continue_run

            def continue_run(*args, **kwargs):
                result = original(*args, **kwargs)
                engine.retired += 1
                return result

            engine.continue_run = continue_run
            return engine

        monkeypatch.setitem(ENGINE_FACTORIES, "ruu-bypass", overcounting)
        checks = fault_injection_campaign(
            "ruu-bypass", memory_alias_kernel(iterations=12), CONFIG)
        assert faults_taken(checks) == 4
        assert not any(check.passed for check in checks)
        assert all("retired" in check.detail for check in checks)


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
