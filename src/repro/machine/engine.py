"""Cycle-driven engine base shared by every issue mechanism.

The paper evaluates six machines that differ *only* in their decode/issue
logic (simple issue, Tomasulo, Tag Unit, RS pool, RSTU, RUU).  Everything
else -- fetch, the decode stage, branch handling, functional units, the
single result bus, statistics -- is identical, and lives here.

A cycle ("tick") has four phases, in order:

1. **complete** -- results scheduled for this cycle appear on the result
   bus and are broadcast (reservation stations capture operands,
   registers/tag units update).  Skipped when none is due.
2. **commit** -- in-order state update from a program-ordered queue
   (:class:`InOrderCommit`: the RUU family and the Smith--Pleszkun
   engines; no-op otherwise).  An instruction may commit no earlier
   than the cycle *after* it completes.
3. **dispatch** -- ready instructions move from reservation stations to
   functional units, reserving the result bus for their completion cycle.
4. **issue** -- the decode stage refills from the fetch unit and tries to
   issue one instruction into the machine.  Branches are resolved in the
   decode stage (they never enter the window); a resolved branch charges
   the configured dead cycles before fetch resumes.

**Idle spans.**  Some stalls can end only at an event: a busy register
clears when its writer completes or commits, a full buffer or a full set
of load registers drains at a completion or a commit, and the branch
dead cycles end at ``fetch_resume_cycle``.  Where issue stalls on such a
reason and the engine can name its next event
(:meth:`Engine._next_event`), it records ``idle_until``, the earliest
cycle at which anything can change: until then every cycle would repeat
the same stall and do nothing else.  :meth:`Engine.run` jumps over those
cycles and accounts for them as the stepping loop would have (stall
counts, per-cycle bookkeeping, the recorder's tape and samples),
stopping early where a budget check or a result-bus release is due.
Only the in-order engines and the dispatch stack declare spans; an
attached :class:`~repro.machine.invariants.InvariantChecker` turns them
off, so a checked run steps through every cycle.

Engines are *execution-driven*: they compute real values through the
shared ISA semantics, so the test-suite can require every engine to
finish with exactly the golden model's architectural state.
"""

from __future__ import annotations

import abc
import sys
import time
from collections import Counter, defaultdict
from typing import DefaultDict, Dict, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.registers import RegisterFile
from ..isa.semantics import branch_taken
from .config import CRAY1_LIKE, MachineConfig
from .diagnostics import capture_diagnostic
from .faults import DeadlockError, PageFault, SimulationError
from .functional_units import FUPool
from .interrupts import InterruptRecord
from .memory import Memory
from .result_bus import ResultBus
from .stats import SimResult, StallReason

#: An event cycle no run reaches: ``run()`` clamps a span to its limits.
NEVER = sys.maxsize


class Engine(abc.ABC):
    """Abstract cycle-driven simulator for one issue mechanism."""

    #: Engine name used in results and table headers.
    name = "abstract"
    #: Does this engine guarantee precise interrupts?
    claims_precise_interrupts = False

    #: Every field ``__init__`` sets.  Slots keep them out of the
    #: instance dict, which CPython keeps in its fast inline layout only
    #: up to 29 keys; concrete engines (no ``__slots__`` of their own)
    #: still get a dict for their fields and for per-instance method
    #: overrides such as :class:`~repro.machine.invariants.
    #: InvariantChecker`'s ``tick``.
    __slots__ = (
        "program", "config", "regs", "memory", "fus", "result_bus",
        "cycle", "pc", "decode_slot", "decode_seq", "fetch_resume_cycle",
        "fetch_done", "next_seq", "retired", "retire_log", "stalls",
        "branches", "branches_taken", "interrupt_record",
        "interrupt_count", "squashed", "mispredictions", "_completions",
        "recorder", "fetch_unit", "host_seconds", "last_commit_cycle",
        "idle_until", "idle_reason",
    )

    def __init__(
        self,
        program: Program,
        config: Optional[MachineConfig] = None,
        memory: Optional[Memory] = None,
        registers: Optional[RegisterFile] = None,
    ) -> None:
        self.program = program
        self.config = config or CRAY1_LIKE
        self.regs = registers if registers is not None else RegisterFile()
        self.memory = memory if memory is not None else Memory()
        self.fus = FUPool(self.config)
        self.result_bus = ResultBus()

        self.cycle = 0
        self.pc = 0
        self.decode_slot: Optional[Instruction] = None
        self.decode_seq = -1
        self.fetch_resume_cycle = 0
        self.fetch_done = False

        self.next_seq = 0
        self.retired = 0
        self.retire_log: List[int] = []
        #: Stall events by reason.  A ``defaultdict``, not a ``Counter``:
        #: ``stalls[reason] += 1`` runs on most stalled cycles, and on a
        #: ``Counter`` (a Python-level dict subclass) it costs about
        #: 2.5x as much; ``result()`` hands out a ``Counter``.
        self.stalls: DefaultDict[str, int] = defaultdict(int)
        self.branches = 0
        self.branches_taken = 0
        self.interrupt_record: Optional[InterruptRecord] = None
        self.interrupt_count = 0
        self.squashed = 0
        self.mispredictions = 0
        #: Functional-unit results in flight: cycle -> payloads, in
        #: scheduling order.
        self._completions: Dict[int, List[object]] = {}
        #: Optional observability recorder (see
        #: :mod:`repro.obs.events`); attach before ``run()``.  Receives
        #: every stage/stall/retire event plus one end-of-tick callback
        #: per cycle, so it can attribute every cycle of the run;
        #: :meth:`repro.machine.timeline.Timeline.of` renders its stage
        #: map.  Each call site tests it first, so None (the default)
        #: costs one attribute test per event and no call.
        self.recorder = None
        #: Optional instruction-buffer model (see
        #: :mod:`repro.machine.fetch`); when None, fetch always hits --
        #: the paper's assumption (§2.2).
        self.fetch_unit = None
        #: Host wall-clock seconds spent inside ``run()`` so far
        #: (accumulates across ``continue_run`` resumes).
        self.host_seconds = 0.0
        #: Cycle of the most recent architectural retirement -- the
        #: progress signal the deadlock watchdog monitors.
        self.last_commit_cycle = 0
        #: End of the idle span the last stall declared (see
        #: :meth:`_stall_until_event`): ``run()`` jumps from the next
        #: cycle to this one, each skipped cycle a stall on
        #: ``idle_reason``.  Spent when ``cycle`` reaches it.
        self.idle_until = 0
        self.idle_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        """Simulate until the program drains, a fault interrupts, or a
        progress limit trips (which raises :class:`DeadlockError` -- it
        indicates a deadlock bug).

        Two limits guard the loop: the hard ``max_cycles`` budget, and a
        progress watchdog (``config.watchdog_cycles``) that trips as
        soon as no instruction has architecturally retired for that many
        cycles -- typically long before the cycle budget burns down.
        Both raise a :class:`DeadlockError` carrying an
        :class:`~repro.machine.diagnostics.EngineDiagnostic` snapshot.
        An idle span a tick declares is skipped (:meth:`_skip_idle`).
        """
        limit = max_cycles if max_cycles is not None \
            else self.config.max_cycles
        watchdog = self.config.watchdog_cycles
        # A resumed run must not inherit staleness from before the trap.
        self.last_commit_cycle = max(self.last_commit_cycle, self.cycle)
        # Only a span declared by this run's ticks may be skipped.
        self.idle_until = 0
        started = time.perf_counter()
        try:
            while not (self.fetch_done and self.decode_slot is None
                       and self._drained()):
                if self.cycle >= limit:
                    raise self._deadlock(
                        f"exceeded the {limit}-cycle budget"
                    )
                if watchdog and \
                        self.cycle - self.last_commit_cycle >= watchdog:
                    raise self._deadlock(
                        f"watchdog: no instruction committed for "
                        f"{self.cycle - self.last_commit_cycle} cycles"
                    )
                self.tick()
                if self.recorder is not None:
                    self.recorder.on_cycle(self)
                self.cycle += 1
                if self.interrupt_record is not None:
                    break
                if self.cycle % 4096 == 0:
                    self.result_bus.release_past(self.cycle)
                if self.idle_until > self.cycle:
                    self._skip_idle(limit, watchdog)
        finally:
            self.host_seconds += time.perf_counter() - started
        if self.recorder is not None:
            self.recorder.on_run_end(self)
        return self.result()

    def _skip_idle(self, limit: int, watchdog: int) -> None:
        """Jump to ``idle_until``, doing what the skipped cycles would
        have done: each stalls issue on ``idle_reason`` and changes
        nothing else.  The jump stops at the first cycle on which the
        ``limit`` or ``watchdog`` check would fire or the result bus is
        due for a release, so those happen on the same cycle as when
        stepping."""
        cycle = self.cycle
        until = self.idle_until
        if until > limit:
            until = limit
        release = cycle - cycle % 4096 + 4096
        if until > release:
            until = release
        if watchdog and until > self.last_commit_cycle + watchdog:
            until = self.last_commit_cycle + watchdog
        skipped = until - cycle
        if skipped <= 0:
            return
        reason = self.idle_reason
        self.stalls[reason] += skipped
        self._idle_cycles(skipped)
        if self.recorder is not None:
            self.recorder.on_idle(self, reason, skipped)
        self.cycle = until
        if until % 4096 == 0:
            self.result_bus.release_past(until)

    def _deadlock(self, reason: str) -> DeadlockError:
        """Build a :class:`DeadlockError` with a pipeline snapshot."""
        diagnostic = capture_diagnostic(self)
        return DeadlockError(
            f"{self.name}: {reason} on {self.program.name!r} "
            f"(pc={self.pc}, decode={self.decode_slot})\n"
            + diagnostic.describe(),
            diagnostic=diagnostic,
        )

    def continue_run(self, max_cycles: Optional[int] = None) -> SimResult:
        """Resume after an interrupt has been serviced.

        Only meaningful for engines with precise interrupts: the caller
        services the fault (e.g. ``memory.service_fault``) and execution
        restarts at the interrupt PC.
        """
        if self.interrupt_record is None:
            raise SimulationError("no interrupt to resume from")
        if not self.claims_precise_interrupts:
            raise SimulationError(
                f"{self.name} has imprecise interrupts and cannot resume"
            )
        self._prepare_resume()
        self.interrupt_record = None
        return self.run(max_cycles)

    def _prepare_resume(self) -> None:
        """Hook: restore engine bookkeeping before resuming from a trap.
        Default: nothing -- a precise trap (:meth:`_restart_at`) already
        left a clean machine with the PC at the faulting instruction."""

    def _on_restore(self) -> None:
        """Hook: resynchronize derived state after a checkpoint restore
        has overwritten ``regs``/``memory`` and the architectural
        counters (see :mod:`repro.machine.checkpoint`).  Default: no-op.
        """

    def invariant_checks(self, checker) -> None:
        """Hook: run this engine family's own post-cycle invariants on
        ``checker`` (an :class:`~repro.machine.invariants.
        InvariantChecker`).  Default: only the generic checks apply."""

    def tag_name(self, tag) -> str:
        """Render an operand tag for diagnostics."""
        return repr(tag)

    # ------------------------------------------------------------------
    # introspection (diagnostics and traces)
    # ------------------------------------------------------------------

    def waiting_entries(self) -> Sequence:
        """The instructions this engine holds between issue and
        retirement.  Each entry has ``seq``, ``inst``, ``fault``, a
        ``state`` (``waiting``, ``dispatched`` or ``done``) and the
        ``waiting_tags`` it still snoops for;
        :func:`~repro.machine.diagnostics.capture_diagnostic` lists
        them.  Default: none (no window)."""
        return ()

    #: Names of the instruction-holding structures, fixed per engine
    #: class; :meth:`occupancy_counts` counts them in this order.
    occupancy_keys: Tuple[str, ...] = ()

    def occupancy_counts(self) -> Tuple[int, ...]:
        """Entries held per structure of :attr:`occupancy_keys`; a detail
        :class:`~repro.obs.events.TraceRecorder` samples it every cycle.
        Default: no structures."""
        return ()

    def inflight(self) -> int:
        """Functional-unit results scheduled but not yet delivered."""
        return sum(len(payloads) for payloads in self._completions.values())

    def tick(self) -> None:
        """Advance one clock cycle through the four phases.  The
        complete phase runs only on a cycle with a result due."""
        if self.cycle in self._completions:
            self._phase_complete()
        self._phase_commit()
        self._phase_dispatch()
        self._phase_issue()

    def done(self) -> bool:
        """All instructions fetched, issued, and drained?"""
        return (
            self.fetch_done
            and self.decode_slot is None
            and self._drained()
        )

    def result(self) -> SimResult:
        """Build the :class:`SimResult` for the run so far."""
        result = SimResult(
            engine=self.name,
            workload=self.program.name,
            cycles=self.cycle,
            instructions=self.retired,
            stalls=Counter(self.stalls),
            branches=self.branches,
            branches_taken=self.branches_taken,
            interrupts=self.interrupt_count,
            mispredictions=self.mispredictions,
            squashed=self.squashed,
        )
        result.extra["fu_utilization"] = {
            fu.value: count
            for fu, count in self.fus.utilization().items()
            if count
        }
        result.extra["result_bus_conflicts"] = self.result_bus.conflicts
        # Host-perf telemetry: how fast the *simulator* ran, in wall
        # seconds and simulated work per host second (0.0 before the
        # first ``run()``; clocks too coarse to resolve read as 0.0).
        result.extra["host_seconds"] = self.host_seconds
        if self.host_seconds > 0.0:
            result.extra["host_inst_per_sec"] = (
                self.retired / self.host_seconds
            )
            result.extra["host_cycles_per_sec"] = (
                self.cycle / self.host_seconds
            )
        else:
            result.extra["host_inst_per_sec"] = 0.0
            result.extra["host_cycles_per_sec"] = 0.0
        if self.interrupt_record is not None:
            result.extra["interrupt"] = self.interrupt_record
        return result

    # ------------------------------------------------------------------
    # phases (engines override what they need)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _phase_complete(self) -> None:
        """Deliver this cycle's functional-unit results: pop
        ``_completions[cycle]``, if any."""

    def _phase_commit(self) -> None:
        """In-order state update; :class:`InOrderCommit` implements it."""

    def _phase_dispatch(self) -> None:
        """Move ready reservation-station entries to functional units."""

    def _phase_issue(self) -> None:
        if self.interrupt_record is not None:
            return
        width = self.config.issue_width
        while width:
            width -= 1
            if self.decode_slot is None:
                self._refill_decode()
            inst = self.decode_slot
            if inst is None:
                return
            if inst.is_halt:
                self.fetch_done = True
                self.decode_slot = None
                return
            if inst.is_nop:
                self._note_retired(self.decode_seq)
                self.decode_slot = None
                continue
            if inst.is_control_flow:
                # A branch (resolved or stalled) ends the issue group.
                self._issue_control_flow(inst)
                return
            if not self._try_issue(inst, self.decode_seq):
                return
            self.decode_slot = None

    # ------------------------------------------------------------------
    # fetch / decode
    # ------------------------------------------------------------------

    def _refill_decode(self) -> None:
        if self.fetch_done:
            return
        if self.cycle < self.fetch_resume_cycle:
            self._stall_until_event(
                StallReason.BRANCH_DEAD, self.fetch_resume_cycle)
            return
        if self.fetch_unit is not None:
            delay = self.fetch_unit.access(self.pc, self.cycle)
            if delay:
                self.fetch_resume_cycle = self.cycle + delay
                self.stall(StallReason.FETCH_MISS)
                return
        inst = self.program.instructions[self.pc]
        self.decode_slot = inst
        self.decode_seq = self.next_seq
        self.next_seq += 1
        self.pc = inst.pc + 1
        if self.recorder is not None:
            self.recorder.on_stage(self.decode_seq, "decode", self.cycle)
            self.recorder.on_inst(self.decode_seq, inst)

    def _issue_control_flow(self, inst: Instruction) -> None:
        """Resolve a branch or jump in the decode stage.

        Branches wait here until their condition register is readable
        under the engine's bypass policy (``_branch_operand``), then
        redirect fetch and charge the dead-cycle penalty.
        """
        if inst.opcode is Opcode.JMP:
            taken = True
        else:
            ready, value = self._branch_operand(inst.src_ids[0])
            if not ready:
                self.stall(StallReason.BRANCH_WAIT)
                return
            taken = branch_taken(inst.opcode, value)
        self._resolve_in_decode(inst, taken)

    def _resolve_in_decode(self, inst: Instruction, taken: bool) -> None:
        """Redirect fetch past a resolved branch, charge its dead
        cycles, and retire it from the decode stage."""
        self.branches += 1
        if taken:
            self.branches_taken += 1
            self.pc = inst.target
            penalty = self.config.branch_taken_penalty
        else:
            self.pc = inst.pc + 1
            penalty = self.config.branch_not_taken_penalty
        self.fetch_resume_cycle = self.cycle + 1 + penalty
        if self.recorder is not None:
            self.recorder.on_stage(self.decode_seq, "issue", self.cycle)
            self.recorder.on_stage(self.decode_seq, "commit", self.cycle)
        self._note_retired(self.decode_seq)
        self.decode_slot = None

    def _branch_operand(self, reg_id: int) -> Tuple[bool, object]:
        """Can the decode stage read register ``reg_id`` now?  Default:
        the register must have no pending writes, then the register file
        is current.  Engines with bypass paths override this.
        """
        if self._register_pending(reg_id):
            return False, None
        return True, self.regs.values[reg_id]

    @abc.abstractmethod
    def _register_pending(self, reg_id: int) -> bool:
        """Is there an uncompleted write to register ``reg_id`` in
        flight?"""

    @abc.abstractmethod
    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        """Attempt to issue ``inst`` into the machine.  Return True if it
        left the decode stage this cycle; on False, record a stall.
        """

    @abc.abstractmethod
    def _drained(self) -> bool:
        """Is all in-flight work finished (windows empty, FUs idle)?"""

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------

    def stall(self, reason: str) -> None:
        """Record one stalled issue cycle with its cause."""
        self.stalls[reason] += 1
        if self.recorder is not None:
            self.recorder.on_stall(reason, self.cycle)

    def _stall_until_event(self, reason: str,
                           cap: Optional[int] = None) -> None:
        """Record a stall that only an event (or cycle ``cap``) can end,
        and declare the cycles before it idle when the engine can name
        its next event."""
        # stall(), inlined: this runs on most stalled cycles.
        self.stalls[reason] += 1
        if self.recorder is not None:
            self.recorder.on_stall(reason, self.cycle)
        event = self._next_event()
        if event is not None:
            if cap is not None and cap < event:
                event = cap
            self.idle_until = event
            self.idle_reason = reason

    def _next_event(self) -> Optional[int]:
        """The earliest cycle at which a completion, a commit or a
        dispatch can change this engine's state, while issue stalls:
        :data:`NEVER` if none is pending, None if the next cycle may.
        Default None: the engine declares no idle spans (a windowed
        engine's dispatch depends on the cycle)."""
        return None

    def _idle_cycles(self, count: int) -> None:
        """Hook: the per-cycle bookkeeping of ``count`` skipped idle
        cycles (occupancy sums).  Default: none."""

    def _note_retired(self, seq: int) -> None:
        """An instruction has architecturally completed."""
        self.retired += 1
        self.retire_log.append(seq)
        self.last_commit_cycle = self.cycle
        if self.recorder is not None:
            self.recorder.on_retire(seq, self.cycle)

    def _schedule_completion(self, cycle: int, payload: object) -> None:
        """Register a functional-unit result for delivery at ``cycle``
        (a later cycle: this cycle's results have been delivered)."""
        if cycle <= self.cycle:
            raise SimulationError(
                f"{self.name}: completion for cycle {cycle} scheduled at "
                f"cycle {self.cycle} would be delivered late"
            )
        pending = self._completions.get(cycle)
        if pending is None:
            self._completions[cycle] = [payload]
        else:
            pending.append(payload)

    def _restart_at(self, seq: int, pc: int, penalty: int = 0) -> None:
        """Refetch from ``pc`` after squashing every instruction from
        ``seq`` on (a precise trap or a misprediction).

        Branches and NOPs retire in the decode stage; any of the
        squashed ones will re-execute, so they are un-counted.  Their
        sequence numbers are recycled so ``seq`` stays the dynamic
        program-order index across resumes: an interrupt record's
        ``seq`` means "the first ``seq`` instructions completed".
        """
        doomed = sum(1 for done in self.retire_log if done >= seq)
        if doomed:
            self.retired -= doomed
            self.retire_log = [
                done for done in self.retire_log if done < seq
            ]
        self.pc = pc
        self.decode_slot = None
        self.next_seq = seq
        self.fetch_done = False
        self.fetch_resume_cycle = self.cycle + 1 + penalty

    def _take_interrupt(self, cause: Exception, seq: int, pc: int,
                        precise: bool) -> None:
        """Record a taken interrupt and stop the machine."""
        self.interrupt_record = InterruptRecord(
            cause=cause,
            seq=seq,
            pc=pc,
            cycle=self.cycle,
            claims_precise=precise,
        )
        self.interrupt_count += 1


class InOrderCommit(Engine):
    """Phase 2 for engines that retire from a program-ordered queue.

    ``window`` holds the uncommitted entries, oldest first.  Each has
    ``seq``, ``inst``, ``executed_cycle``, ``result``, ``fault``,
    ``squashed`` and, for a store, ``address`` and ``datum``.  Up to
    ``commit_paths`` executed heads retire per cycle; stores write
    memory here, in program order, and a faulting head takes a precise
    trap.  Engines supply :meth:`_commit_register` and extend
    :meth:`_squash_all` with their own recovery.
    """

    #: Stores write memory at commit, not when they execute.
    stores_at_commit = True

    def _phase_commit(self) -> None:
        if self.interrupt_record is not None:
            return
        budget = self.config.commit_paths
        while budget > 0 and self.window:
            entry = self.window[0]
            executed_cycle = entry.executed_cycle
            if executed_cycle is None or executed_cycle >= self.cycle:
                return
            if not self._commit_head(entry):
                return
            budget -= 1

    def _commit_head(self, entry) -> bool:
        """Retire the executed head entry, updating the architectural
        state, or take its trap."""
        if entry.fault is not None:
            self._precise_trap(entry)
            return False
        inst = entry.inst
        if inst.is_store:
            try:
                self.memory.write(entry.address, entry.datum)
            except PageFault as fault:
                entry.fault = fault
                self._precise_trap(entry)
                return False
        if inst.dest_id is not None:
            self._commit_register(entry)
        self.window.popleft()
        if self.recorder is not None:
            self.recorder.on_stage(entry.seq, "commit", self.cycle)
        self._note_retired(entry.seq)
        return True

    def _next_event(self) -> Optional[int]:
        """An executed head commits next cycle."""
        if self.window and self.window[0].executed_cycle is not None:
            return None
        return super()._next_event()

    @abc.abstractmethod
    def _commit_register(self, entry) -> None:
        """Make the head's destination value architectural."""

    def _precise_trap(self, entry) -> None:
        """Take a precise trap at the head instruction.

        Every younger instruction is in the queue or still in a
        functional-unit pipeline, and none has touched architectural
        state.  The machine restarts at the faulting PC.
        """
        self._take_interrupt(
            entry.fault, seq=entry.seq, pc=entry.inst.pc, precise=True
        )
        self._squash_all()
        self._restart_at(entry.seq, entry.inst.pc)

    def _squash_all(self) -> None:
        """Drop every queued entry, the faulting head included.  Engines
        extend this to reset their own state; one that must read the
        entries does so before calling up."""
        for entry in self.window:
            entry.squashed = True
        self.squashed += len(self.window)
        self.window.clear()
