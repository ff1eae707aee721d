"""The dispatch stack: out-of-order issue *without* renaming.

The paper cites Acosta, Kjelstrup & Torng [18] as the other family of
dependency-resolution mechanisms in the literature.  Their *dispatch
stack* holds decoded instructions in a central window and issues any
instruction whose hazards are clear -- but unlike Tomasulo's scheme it
captures **no operand values and allocates no tags**, so it must
respect anti- and output-dependencies in addition to true ones.  An
entry may dispatch only when, among *older* window entries:

* no one still writes any of its sources (RAW),
* no one still reads its destination without having dispatched (WAR --
  operands are read from the register file at dispatch), and
* no one still writes its destination (WAW -- results go straight to
  the register file at completion).

Comparing this engine against Tomasulo/RSTU isolates the value of
register renaming: both issue out of order from a window, but the
dispatch stack serializes on WAR/WAW hazards that multiple register
instances simply remove (ablation A3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.registers import TOTAL_REGISTERS
from ..isa.semantics import effective_address
from ..machine.engine import NEVER, Engine
from ..machine.faults import FAULT_TYPES
from ..machine.stats import StallReason
from ..memdep import FROM_MEMORY, MemoryDependencyUnit


class _StackEntry:
    """One dispatch-stack slot (no operand copies, no tags)."""

    __slots__ = ("seq", "inst", "dispatched", "result", "fault", "address")

    def __init__(self, seq: int, inst: Instruction) -> None:
        self.seq = seq
        self.inst = inst
        self.dispatched = False
        self.result = None
        self.fault: Optional[Exception] = None
        self.address: Optional[int] = None

    #: No operand capture, so nothing to snoop for.
    waiting_tags = ()

    @property
    def state(self) -> str:
        """An entry leaves the stack as it completes, so never ``done``."""
        return "dispatched" if self.dispatched else "waiting"


class DispatchStackEngine(Engine):
    """Centralized out-of-order issue with no register renaming.

    Hazards are mask tests: walking the stack oldest first, ``writers``
    is the OR of the destination masks of older unfinished entries and
    ``readers`` the OR of the source masks of older undispatched ones.
    """

    name = "dispatch-stack"
    claims_precise_interrupts = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mdu = MemoryDependencyUnit(self.config.n_load_registers)
        self.stack: List[_StackEntry] = []
        #: Unfinished writers in the stack, by register id.
        self._pending_writes: List[int] = [0] * TOTAL_REGISTERS
        #: Must dispatch walk the stack this cycle?  Set by an append
        #: or a completion; see :meth:`_walk`.
        self._rescan = True
        self.occupancy_accum = 0

    # ------------------------------------------------------------------

    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        if len(self.stack) >= self.config.window_size:
            self._stall_until_event(StallReason.WINDOW_FULL)
            return False
        if inst.is_memory and not self.mdu.can_accept():
            self._stall_until_event(StallReason.NO_LOAD_REGISTER)
            return False
        entry = _StackEntry(seq, inst)
        self.stack.append(entry)
        if inst.dest_id is not None:
            self._pending_writes[inst.dest_id] += 1
        if inst.is_memory:
            self.mdu.add(seq, inst.is_store)
        self._rescan = True
        if self.recorder is not None:
            self.recorder.on_stage(seq, "issue", self.cycle)
        return True

    # ------------------------------------------------------------------

    def _phase_dispatch(self) -> None:
        if self.interrupt_record is not None:
            return
        self.occupancy_accum += len(self.stack)
        if self._rescan:
            self._rescan = self._walk()

    def _walk(self) -> bool:
        """Resolve addresses and dispatch in one oldest-first pass.

        Addresses resolve in program order once hazard-free: without
        operand capture the base register is read at resolution time,
        which is safe only when no older entry still writes it -- the
        same check dispatching uses.  An entry resolves before its own
        dispatch test, and a younger resolution cannot change an older
        entry's memory-ordering conditions, so one pass decides what
        separate resolve and dispatch passes would.

        Returns whether the next cycle must walk again: after a
        candidate was offered to its unit, which dispatches it (one
        port, so the next one waits a cycle) or refuses it (units and
        bus slots free with time).  Otherwise every entry is held by a
        hazard or a memory-ordering condition, and nothing the walk
        reads changes until an append or a completion: a stall means
        do not re-evaluate.
        """
        unresolved = self.mdu.oldest_unresolved()
        writers = readers = 0
        rescan = False
        dispatching = True
        for entry in self.stack:
            inst = entry.inst
            if entry.seq == unresolved:
                if writers >> inst.base_id & 1:
                    unresolved = None
                else:
                    entry.address = effective_address(
                        self.regs.values[inst.base_id], inst.imm
                    )
                    self.mdu.resolve(entry.seq, entry.address)
                    unresolved = self.mdu.oldest_unresolved()
                if unresolved is None and not dispatching:
                    break
            if dispatching and not entry.dispatched:
                # RAW: an older, unfinished writer of one of our sources.
                # WAR: an older entry reads our destination and has not
                # yet picked its operands up (reads happen at dispatch).
                # WAW: an older, unfinished writer of our destination.
                if not (inst.src_mask & writers
                        or inst.dest_mask & (readers | writers)) \
                        and (not inst.is_memory
                             or self._memory_clear(entry)):
                    rescan = True
                    if self._dispatch(entry):
                        # One dispatch port, as in the base RSTU
                        # machine; the walk goes on only to resolve.
                        if unresolved is None:
                            break
                        dispatching = False
                readers |= inst.src_mask
            writers |= inst.dest_mask
        return rescan

    def _memory_clear(self, entry: _StackEntry) -> bool:
        """The memory-ordering conditions of a load or store."""
        if not self.mdu.is_resolved(entry.seq):
            return False
        if entry.inst.is_store:
            return self.mdu.store_may_dispatch(entry.seq)
        return self.mdu.load_source_ready(entry.seq)

    def _dispatch(self, entry: _StackEntry) -> bool:
        inst = entry.inst
        if not self.fus.can_accept(inst.fu_index, self.cycle):
            return False
        latency = self.fus.latency[inst.fu_index]
        if inst.is_load and self.mdu.binding_of(entry.seq) is not FROM_MEMORY:
            latency = self.config.forward_latency
        done_cycle = self.cycle + latency
        if inst.dest_id is not None \
                and not self.result_bus.is_free(done_cycle):
            self.result_bus.conflicts += 1
            return False
        # operands are read from the register file *now*
        values = self.regs.values
        try:
            if inst.is_load:
                if self.mdu.binding_of(entry.seq) is FROM_MEMORY:
                    raw = self.memory.read(entry.address)
                else:
                    raw = self.mdu.forwarded_value(entry.seq)
                entry.result = inst.coerce(raw)
            elif inst.is_store:
                datum = values[inst.src_ids[0]]
                self.mdu.publish(entry.seq, datum)
                self.memory.write(entry.address, datum)
            else:
                operands = [values[reg] for reg in inst.src_ids]
                entry.result = inst.coerce(inst.operation(operands, inst.imm))
        except FAULT_TYPES as fault:
            entry.fault = fault
        self.fus.accept(inst.fu_index, self.cycle)
        if inst.dest_id is not None:
            self.result_bus.reserve(done_cycle)
        entry.dispatched = True
        if inst.is_memory:
            self.mdu.mark_dispatched(entry.seq)
        self._schedule_completion(done_cycle, entry)
        if self.recorder is not None:
            self.recorder.on_stage(entry.seq, "dispatch", self.cycle)
        return True

    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._completions.pop(self.cycle, ()):
            self._rescan = True
            if entry.fault is not None:
                self._take_interrupt(
                    entry.fault, seq=entry.seq, pc=entry.inst.pc,
                    precise=False,
                )
                return
            dest = entry.inst.dest_id
            if dest is not None:
                self.regs.values[dest] = entry.result
                self._pending_writes[dest] -= 1
            if entry.inst.is_memory:
                if entry.inst.is_load:
                    self.mdu.publish(entry.seq, entry.result)
                self.mdu.finish(entry.seq)
            self.stack.remove(entry)
            if self.recorder is not None:
                self.recorder.on_stage(entry.seq, "complete", self.cycle)
            self._note_retired(entry.seq)

    # ------------------------------------------------------------------

    def _register_pending(self, reg_id: int) -> bool:
        return self._pending_writes[reg_id] > 0

    def _drained(self) -> bool:
        return not self.stack and not self._completions

    def _next_event(self) -> Optional[int]:
        """Without a pending walk, the stack, the load registers and the
        hazards change only at a completion."""
        if self._rescan:
            return None
        completions = self._completions
        return min(completions) if completions else NEVER

    def _idle_cycles(self, count: int) -> None:
        self.occupancy_accum += len(self.stack) * count

    def waiting_entries(self) -> Sequence[_StackEntry]:
        return self.stack

    occupancy_keys = ("stack",)

    def occupancy_counts(self) -> Tuple[int, ...]:
        return (len(self.stack),)

    def result(self):
        sim_result = super().result()
        if self.cycle:
            sim_result.extra["avg_window_occupancy"] = (
                self.occupancy_accum / self.cycle
            )
        return sim_result
