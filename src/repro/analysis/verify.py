"""The golden-model oracle: one check behind verify, the restart drill
and the fault campaign.

The paper's claim is that the RUU is *interruptable*: at any trap the
visible state is exactly the sequential prefix (Smith & Pleszkun's
precision criterion, the paper's [5]), and the program resumes to the
fault-free result.  :func:`check_run` is that claim as one call.  It
runs an ``ENGINE_FACTORIES`` engine on a workload, optionally with a
page fault injected, and at each trap

1. with ``restore_into``, round-trips a
   :class:`~repro.machine.checkpoint.Checkpoint` through a file into a
   fresh engine of that type (the original is dropped, so the restore
   stands on the file alone);
2. compares the visible registers and memory with the golden prefix
   ``prefix_state(record.seq)``;
3. services the page and resumes.  A trap that cannot be serviced -- an
   arithmetic trap, or a trap on a page already serviced -- ends the
   check; it is never looped on.

A run that reaches the end must match one ``reference_state`` run in
registers, memory and retired count.  :func:`verify_all`,
:func:`restart_drill` and :func:`fault_injection_campaign` are loops
over it that return lists of :class:`Check`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..isa.assembler import assemble
from ..machine.checkpoint import Checkpoint, CheckpointError
from ..machine.config import CRAY1_LIKE, MachineConfig
from ..isa.semantics import ArithmeticFault
from ..machine.interrupts import InterruptRecord
from ..machine.memory import Memory
from ..trace.iss import FunctionalExecutor, prefix_state, reference_state
from ..workloads.base import Workload
from ..workloads.livermore import all_loops
from .sweeps import ENGINE_FACTORIES


@dataclass
class Check:
    """One engine run on one workload, checked against the golden ISS."""

    engine: str
    workload: str
    #: The engine each trap's checkpoint was restored into, if any.
    restored_into: Optional[str] = None
    fault_address: Optional[int] = None
    #: Every trap taken, in order.
    traps: List[InterruptRecord] = field(default_factory=list)
    #: Every trap claimed precision and showed exactly the prefix state.
    precise: bool = True
    #: The run reached the end of the program, resuming after each trap.
    completed: bool = False
    #: Why the check failed; empty when it passed.
    detail: str = ""

    @property
    def passed(self) -> bool:
        return not self.detail

    def describe(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        route = self.engine
        if self.restored_into not in (None, self.engine):
            route += f" -> {self.restored_into}"
        where = (f" trap #{self.traps[0].seq}@{self.traps[0].cycle}"
                 if self.traps else "")
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{verdict}] {route} on {self.workload}{where}{suffix}"

    def to_json(self) -> Dict[str, Any]:
        first = self.traps[0] if self.traps else None
        return {
            "engine": self.engine,
            "workload": self.workload,
            "restored_into": self.restored_into,
            "fault_address": self.fault_address,
            "trap_seq": first.seq if first else None,
            "trap_cycle": first.cycle if first else None,
            "traps": len(self.traps),
            "precise": self.precise,
            "completed": self.completed,
            "passed": self.passed,
            "detail": self.detail,
        }


def _state_problems(
    machine, golden: FunctionalExecutor, what: str,
) -> List[str]:
    """How ``machine``'s registers and memory differ from ``golden``'s."""
    problems = []
    register_diff = machine.regs.diff(golden.regs)
    if register_diff:
        problems.append(
            f"registers diverge from the golden {what}: {register_diff}")
    memory_diff = machine.memory.diff(golden.memory)
    if memory_diff:
        problems.append(
            f"memory diverges from the golden {what}: {memory_diff}")
    return problems


def check_run(
    engine: str,
    workload: Workload,
    config: Optional[MachineConfig] = None,
    fault_address: Optional[int] = None,
    restore_into: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    golden: Optional[FunctionalExecutor] = None,
) -> Check:
    """Run ``engine`` on ``workload`` and check it against the golden ISS.

    ``golden`` is the workload's ``reference_state``, for callers that
    check one workload many times; it is computed when needed.
    Checkpoint files go to ``checkpoint_dir`` (created if missing), or
    to a temporary directory that is removed afterwards.
    """
    if restore_into is not None and checkpoint_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-check-") as scratch:
            return check_run(engine, workload, config, fault_address,
                             restore_into, scratch, golden)
    check = Check(engine, workload.name, restore_into, fault_address)
    memory = workload.make_memory()
    if fault_address is not None:
        memory.inject_fault(fault_address)
    machine = ENGINE_FACTORIES[engine](
        workload.program, config or CRAY1_LIKE, memory)
    machine.run()
    serviced = set()
    while machine.interrupt_record is not None:
        record = machine.interrupt_record
        check.traps.append(record)
        if restore_into is not None and record.claims_precise:
            path = os.path.join(
                checkpoint_dir,
                f"{engine}-{workload.name}-{restore_into}.ckpt.json")
            try:
                Checkpoint.capture(machine).save(path)
                machine = Checkpoint.load(path).restore(engine=restore_into)
            except CheckpointError as exc:
                check.detail = f"checkpoint failed: {exc}"
                return check
        problems = _state_problems(machine, prefix_state(
            workload.program, record.seq, workload.initial_memory),
            "prefix")
        if not record.claims_precise:
            problems.insert(0, f"trap was imprecise: {record.describe()}")
        if problems:
            check.precise = False
            check.detail = "; ".join(problems)
            return check
        address = getattr(record.cause, "address", None)
        if address is None or address in serviced:
            check.detail = (f"unserviceable trap, not resumed: "
                            f"{record.describe()}")
            return check
        serviced.add(address)
        machine.memory.service_fault(address)
        machine.continue_run()
    check.completed = True
    if golden is None:
        golden = reference_state(workload.program, workload.initial_memory)
    problems = _state_problems(machine, golden, "run")
    if machine.retired != golden.executed:
        problems.append(
            f"retired {machine.retired} != golden {golden.executed}")
    if restore_into is not None and fault_address is not None \
            and not check.traps:
        problems.append("never trapped, so no checkpoint was restored")
    check.detail = "; ".join(problems)
    return check


def verify_all(
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[MachineConfig] = None,
    engines: Optional[Sequence[str]] = None,
) -> List[Check]:
    """Check every registered engine (or the named ones) on each
    workload; the checks come back engine by engine.  A workload whose
    golden run traps has no reference to check against: each engine
    gets a failed check that names the trap."""
    workloads = list(workloads) if workloads is not None else all_loops()
    names = list(engines) if engines is not None \
        else sorted(ENGINE_FACTORIES)
    checks = []
    for workload in workloads:
        try:
            golden = reference_state(
                workload.program, workload.initial_memory)
        except ArithmeticFault as exc:
            checks += [Check(name, workload.name,
                             detail=f"golden model trapped: "
                                    f"{type(exc).__name__}: {exc}")
                       for name in names]
            continue
        checks += [check_run(name, workload, config, golden=golden)
                   for name in names]
    return sorted(checks, key=lambda check: names.index(check.engine))


def _midpoint_address(golden: FunctionalExecutor) -> Optional[int]:
    """The address whose *first* access lies nearest the middle of the
    run, so a fault there traps with completed work behind it and work
    still to do; None for a program that never touches memory."""
    first_access: Dict[int, int] = {}
    for entry in golden.trace:
        if entry.address is not None:
            first_access.setdefault(entry.address, entry.seq)
    middle = golden.executed // 2
    return min(
        first_access,
        key=lambda address: (abs(first_access[address] - middle), address),
        default=None,
    )


def restart_drill(
    engines: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[MachineConfig] = None,
    checkpoint_dir: Optional[str] = None,
    cross_engine: bool = True,
) -> List[Check]:
    """Fault each engine mid-program, checkpoint at the trap, restore
    and resume, on every workload.

    ``engines`` defaults to those in ``ENGINE_FACTORIES`` that claim
    precise interrupts, in registry order.  With ``cross_engine``, each
    point is also restored into the next of those (cyclically), so the
    architectural-state contract holds *between* machine types.
    """
    probe = assemble("HALT")
    ring = [name for name, build in ENGINE_FACTORIES.items()
            if build(probe, CRAY1_LIKE, Memory()).claims_precise_interrupts]
    engines = list(engines) if engines is not None else ring
    workloads = list(workloads) if workloads is not None else all_loops()
    checks = []
    for name in engines:
        targets = [name]
        # An engine outside the ring restores into the ring's first.
        anchor = ring.index(name) if name in ring else -1
        partner = ring[(anchor + 1) % len(ring)]
        if cross_engine and partner != name:
            targets.append(partner)
        for workload in workloads:
            golden = reference_state(
                workload.program, workload.initial_memory)
            address = _midpoint_address(golden)
            checks += [
                check_run(name, workload, config, address, target,
                          checkpoint_dir, golden)
                for target in targets
            ]
    return checks


def fault_injection_campaign(
    engine_name: str,
    workload: Workload,
    config: Optional[MachineConfig] = None,
    max_sites: Optional[int] = None,
) -> List[Check]:
    """Inject a page fault at *every* distinct data address the workload
    touches (a spread of ``max_sites`` of them, if given) and check
    each run.

    This is the exhaustive form of the paper's claim: not "an interrupt
    can be precise" but "every interrupt, at every memory site, is
    precise and restartable".
    """
    golden = reference_state(workload.program, workload.initial_memory)
    addresses = list(dict.fromkeys(
        entry.address for entry in golden.trace
        if entry.address is not None))
    if max_sites is not None:
        step = max(1, len(addresses) // max_sites)
        addresses = addresses[::step][:max_sites]
    return [check_run(engine_name, workload, config, address,
                      golden=golden)
            for address in addresses]
