"""Precise-interrupt experiment drivers (paper sections 4 and 5).

The paper's claim is qualitative: the RUU *implements precise
interrupts*, while machines that update state out of program order do
not.  This module turns that into checkable experiments:

* :func:`run_with_page_fault` injects a page fault at a chosen address
  and runs an engine until the interrupt;
* :func:`check_precision` compares the interrupted machine's visible
  state against the golden model's prefix state -- the definition of a
  precise interrupt (Smith & Pleszkun [5]): all instructions before the
  trap have completed, none after it has changed state;
* :func:`run_with_recovery` demonstrates restartability: service the
  fault, resume at the interrupt PC, and verify the final state equals
  a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..isa.program import Program
from ..machine.engine import Engine
from ..machine.faults import SimulationError
from ..machine.interrupts import InterruptRecord
from ..machine.memory import Memory
from ..trace.iss import FunctionalExecutor, prefix_state, reference_state

EngineFactory = Callable[[Program, Memory], Engine]


@dataclass
class PrecisionReport:
    """Outcome of one fault-injection run."""

    engine: str
    interrupt: Optional[InterruptRecord]
    register_diff: dict
    memory_diff: dict

    @property
    def precise(self) -> bool:
        """Was the visible state exactly the sequential prefix state?"""
        return (
            self.interrupt is not None
            and not self.register_diff
            and not self.memory_diff
        )

    def describe(self) -> str:
        if self.interrupt is None:
            return f"{self.engine}: no interrupt was taken"
        verdict = "PRECISE" if self.precise else "IMPRECISE"
        detail = ""
        if self.register_diff:
            detail += f" register deviations: {self.register_diff}"
        if self.memory_diff:
            detail += f" memory deviations: {self.memory_diff}"
        return (f"{self.engine}: {self.interrupt.describe()} -> "
                f"{verdict}{detail}")


def run_with_page_fault(
    factory: EngineFactory,
    program: Program,
    memory: Memory,
    fault_address: int,
) -> Tuple[Engine, Optional[InterruptRecord]]:
    """Run ``program`` with ``fault_address`` unmapped.

    Returns the engine (stopped at the interrupt, or completed if the
    address was never touched) and the interrupt record.
    """
    faulty = memory.copy()
    faulty.inject_fault(fault_address)
    engine = factory(program, faulty)
    engine.run()
    return engine, engine.interrupt_record


def check_precision(
    engine: Engine,
    program: Program,
    clean_memory: Memory,
) -> PrecisionReport:
    """Compare an interrupted engine's state with the golden prefix.

    ``clean_memory`` is the original (fault-free) input memory; the
    prefix is executed on a copy of it, so page-fault markers do not
    perturb the comparison.
    """
    record = engine.interrupt_record
    if record is None:
        return PrecisionReport(engine.name, None, {}, {})
    prefix = prefix_state(program, record.seq, memory=clean_memory)
    return PrecisionReport(
        engine=engine.name,
        interrupt=record,
        register_diff=prefix.regs.diff(engine.regs),
        memory_diff=prefix.memory.diff(engine.memory),
    )


def run_with_recovery(
    factory: EngineFactory,
    program: Program,
    memory: Memory,
    fault_address: int,
) -> Tuple[Engine, List[InterruptRecord]]:
    """Fault, service, resume -- possibly repeatedly -- to completion.

    Models the operating system mapping the missing page and restarting
    the user program at the interrupt PC.  Only engines with precise
    interrupts can do this; an imprecise engine raises
    :class:`SimulationError` from ``continue_run``.
    """
    faulty = memory.copy()
    faulty.inject_fault(fault_address)
    engine = factory(program, faulty)
    records: List[InterruptRecord] = []
    engine.run()
    while engine.interrupt_record is not None:
        records.append(engine.interrupt_record)
        faulty.service_fault(fault_address)
        engine.continue_run()
    return engine, records


@dataclass
class CampaignResult:
    """Outcome of a fault-injection campaign over one workload."""

    engine: str
    workload: str
    sites_tested: int
    faults_taken: int
    all_precise: bool
    all_recovered: bool
    imprecise_sites: List[int]

    def describe(self) -> str:
        status = "OK" if (self.all_precise and self.all_recovered) \
            else "FAILED"
        return (
            f"{self.engine} on {self.workload}: {self.faults_taken} faults "
            f"across {self.sites_tested} sites -> {status}"
        )


def fault_injection_campaign(
    factory: EngineFactory,
    workload,
    max_sites: Optional[int] = None,
) -> CampaignResult:
    """Inject a page fault at *every* distinct data address the workload
    touches (optionally capped) and verify precision + recovery at each.

    This is the exhaustive version of the paper's claim: not "an
    interrupt can be precise" but "every interrupt, at every memory
    site, is precise and restartable."
    """
    from ..trace.iss import FunctionalExecutor

    executor = FunctionalExecutor(workload.program, workload.make_memory())
    trace = executor.run()
    addresses: List[int] = []
    seen = set()
    for entry in trace:
        if entry.address is not None and entry.address not in seen:
            seen.add(entry.address)
            addresses.append(entry.address)
    if max_sites is not None:
        step = max(1, len(addresses) // max_sites)
        addresses = addresses[::step][:max_sites]

    golden = reference_state(workload.program, workload.initial_memory)
    faults_taken = 0
    imprecise: List[int] = []
    all_recovered = True
    engine_name = "?"
    for address in addresses:
        memory = workload.initial_memory.copy()
        memory.inject_fault(address)
        engine = factory(workload.program, memory)
        engine_name = engine.name
        engine.run()
        if engine.interrupt_record is None:
            continue  # e.g. a store-only page never read before write...
        faults_taken += 1
        report = check_precision(
            engine, workload.program, workload.initial_memory
        )
        if not report.precise:
            imprecise.append(address)
            continue
        while engine.interrupt_record is not None:
            memory.service_fault(engine.interrupt_record.cause.address)
            engine.continue_run()
        if engine.regs != golden.regs or engine.memory != golden.memory:
            all_recovered = False
    return CampaignResult(
        engine=engine_name,
        workload=workload.name,
        sites_tested=len(addresses),
        faults_taken=faults_taken,
        all_precise=not imprecise,
        all_recovered=all_recovered,
        imprecise_sites=imprecise,
    )


def demonstrate_restartability(
    factory: EngineFactory,
    program: Program,
    memory: Memory,
    fault_address: int,
) -> bool:
    """End-to-end check: fault + resume reaches the fault-free state."""
    engine, records = run_with_recovery(
        factory, program, memory, fault_address)
    if not records:
        raise SimulationError(
            f"address {fault_address} was never accessed; no fault taken"
        )
    clean = reference_state(program, memory)
    return engine.regs == clean.regs and engine.memory == clean.memory
