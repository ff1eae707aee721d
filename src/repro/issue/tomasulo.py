"""Tomasulo's algorithm with distributed reservation stations (paper §3.1).

The IBM 360/91 dependency-resolution scheme, extended (as in Weiss &
Smith [17]) to the full CRAY-1 register complement:

* every register carries a busy bit and a tag identifying its pending
  producer -- for our 144 registers that means 144 tag-matching units,
  the hardware cost that motivates the paper's Tag Unit;
* an issuing instruction reads available operands from the register
  file and takes *tags* for busy ones, then parks in a reservation
  station attached to its functional unit;
* reservation stations monitor the common result bus and capture
  matching results;
* when all operands are present the instruction is dispatched and its
  station is released;
* memory operations resolve their dependencies through the load
  registers (:mod:`repro.memdep`).

Instructions complete -- and update registers and memory -- out of
program order, so interrupts are imprecise.

The subclasses in :mod:`repro.issue.tagunit`, :mod:`repro.issue.rspool`
and :mod:`repro.issue.rstu` reuse this engine's dispatch/complete
machinery and override only tag allocation and station organization,
mirroring how the paper evolves the design (§3.2).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..isa.instruction import Instruction
from ..isa.opcodes import FUClass
from ..isa.registers import TOTAL_REGISTERS
from ..isa.semantics import coerce_for_bank, evaluate
from ..machine.engine import Engine
from ..machine.faults import FAULT_TYPES
from ..machine.stats import StallReason
from ..memdep import FROM_MEMORY, MemoryDependencyUnit
from .common import Operand, WakeupIndex, WindowEntry


class TomasuloEngine(Engine):
    """Out-of-order issue via per-register tags and distributed stations.

    ``config.window_size`` is the reservation-station count *per
    functional unit* for this engine (the stations are distributed).
    """

    name = "tomasulo"
    claims_precise_interrupts = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mdu = MemoryDependencyUnit(self.config.n_load_registers)
        #: Reservation stations per functional unit, by FU index.
        self._stations: List[List[WindowEntry]] = [[] for _ in FUClass]
        #: Latest tag of each register (None: not busy), by register id.
        self._reg_tag: List[Optional[int]] = [None] * TOTAL_REGISTERS
        self._waiting = WakeupIndex()
        self._unresolved: Deque[WindowEntry] = deque()
        self._pending_publish: List[WindowEntry] = []
        self._inflight = 0
        self.occupancy_accum = 0

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        if inst.is_memory and not self.mdu.can_accept():
            self.stall(StallReason.NO_LOAD_REGISTER)
            return False
        if not self._station_available(inst):
            self.stall(StallReason.WINDOW_FULL)
            return False
        # Read sources *before* tagging the destination: an instruction
        # like ``A_ADDI A1, A1, 1`` must take A1's previous tag, not its
        # own freshly allocated one.
        operands = [self._source_operand(reg) for reg in inst.source_ids]
        dest_tag = None
        if inst.dest_id is not None:
            dest_tag = self._allocate_dest_tag(inst.dest_id, seq)
            if dest_tag is None:
                self.stall(StallReason.NO_TAG)
                return False
        entry = WindowEntry(seq, inst, operands, dest_tag=dest_tag)
        self._waiting.add(entry)
        self._insert_entry(entry)
        if inst.is_memory:
            self.mdu.add(seq, inst.is_store)
            self._unresolved.append(entry)
            if inst.is_store:
                self._pending_publish.append(entry)
        self.note(seq, "issue")
        return True

    def _source_operand(self, reg_id: int) -> Operand:
        """Register-file read or tag capture, per the busy bit."""
        tag = self._reg_tag[reg_id]
        if tag is None:
            return Operand(True, self.regs.values[reg_id])
        return Operand(False, tag=tag)

    # -- hooks specialized by the Tag Unit / RS pool / RSTU engines -----

    def _station_available(self, inst: Instruction) -> bool:
        return len(self._stations[inst.fu_index]) < self.config.window_size

    def _insert_entry(self, entry: WindowEntry) -> None:
        self._stations[entry.inst.fu_index].append(entry)

    def _allocate_dest_tag(self, dest_id: int, seq: int):
        """Tomasulo proper: an unbounded tag space (tag = dynamic seq)."""
        self._reg_tag[dest_id] = seq
        return seq

    def _writeback(self, entry: WindowEntry) -> None:
        """Update the register file and clear the busy bit if this result
        carries the *latest* tag for its destination register."""
        dest = entry.inst.dest_id
        if self._reg_tag[dest] == entry.dest_tag:
            self.regs.values[dest] = entry.result
            self._reg_tag[dest] = None

    def _release_entry(self, entry: WindowEntry) -> None:
        """Free the reservation station.  Tomasulo/TagUnit/RSPool release
        at dispatch; the RSTU overrides to release at completion."""
        self._stations[entry.inst.fu_index].remove(entry)

    def _entry_released_at_dispatch(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _phase_dispatch(self) -> None:
        if self.interrupt_record is not None:
            return
        self._resolve_addresses()
        self._publish_store_data()
        self.occupancy_accum += self._occupied()
        self._dispatch_from_stations()

    def _resolve_addresses(self) -> None:
        """Compute effective addresses strictly in program order: an
        unknown address blocks all younger memory ops (paper §3.2.1.2)."""
        while self._unresolved:
            entry = self._unresolved[0]
            if not entry.operands[-1].ready:
                break
            self.mdu.resolve(entry.seq, entry.compute_address())
            self._unresolved.popleft()

    def _publish_store_data(self) -> None:
        """Make store data visible to forwarded loads once available."""
        still_waiting: List[WindowEntry] = []
        for entry in self._pending_publish:
            if entry.squashed:
                continue
            if entry.datum_operand.ready:
                self.mdu.publish(entry.seq, entry.datum_operand.value)
                entry.datum_published = True
            else:
                still_waiting.append(entry)
        self._pending_publish = still_waiting

    def _dispatch_from_stations(self) -> None:
        """Each functional unit independently dispatches its oldest ready
        instruction (distributed stations: no shared dispatch port)."""
        for stations in self._stations:
            for entry in stations:
                if entry.dispatched:
                    continue
                if not self._entry_ready(entry):
                    continue
                self._dispatch(entry)
                break

    def _entry_ready(self, entry: WindowEntry) -> bool:
        """Operands present plus the memory-ordering conditions."""
        inst = entry.inst
        if inst.is_memory:
            if not self.mdu.is_resolved(entry.seq):
                return False
            if inst.is_store:
                return (
                    not entry.missing
                    and self.mdu.store_may_dispatch(entry.seq)
                )
            return self.mdu.load_source_ready(entry.seq)
        return not entry.missing

    def _dispatch(self, entry: WindowEntry) -> bool:
        """Send one ready entry to its functional unit.

        Reserves the result bus for the completion cycle; a bus conflict
        cancels the dispatch (retried next cycle).
        """
        inst = entry.inst
        if not self.fus.can_accept(inst.fu_index, self.cycle):
            return False
        latency = self._execution_latency(entry)
        done_cycle = self.cycle + latency
        if inst.dest_id is not None \
                and not self.result_bus.is_free(done_cycle):
            self.result_bus.conflicts += 1
            return False
        self._execute(entry)
        self.fus.accept(inst.fu_index, self.cycle)
        if inst.dest_id is not None:
            self.result_bus.reserve(done_cycle)
        entry.dispatched = True
        if inst.is_memory:
            self.mdu.mark_dispatched(entry.seq)
        if self._entry_released_at_dispatch():
            self._release_entry(entry)
        self._schedule_completion(done_cycle, entry)
        self._inflight += 1
        self.note(entry.seq, "dispatch")
        return True

    def _execution_latency(self, entry: WindowEntry) -> int:
        if entry.inst.is_load and \
                self.mdu.binding_of(entry.seq) is not FROM_MEMORY:
            return self.config.forward_latency
        return self.fus.latency[entry.inst.fu_index]

    def _execute(self, entry: WindowEntry) -> None:
        """Compute the entry's result (delivered at its completion cycle).

        Memory is accessed here, at dispatch: stores become visible
        out of program order relative to other instructions -- the
        imprecise behaviour under study -- but in per-address order
        (``store_may_dispatch`` and the in-order address resolution).
        """
        inst = entry.inst
        try:
            if inst.is_load:
                if self.mdu.binding_of(entry.seq) is FROM_MEMORY:
                    raw = self.memory.read(entry.address)
                else:
                    raw = self.mdu.forwarded_value(entry.seq)
                entry.result = coerce_for_bank(inst.dest, raw)
            elif inst.is_store:
                self._store_to_memory(entry)
            else:
                raw = evaluate(inst.opcode, entry.operand_values(), inst.imm)
                entry.result = coerce_for_bank(inst.dest, raw)
        except FAULT_TYPES as fault:
            entry.fault = fault

    def _store_to_memory(self, entry: WindowEntry) -> None:
        """Out-of-order-completion engines write memory at dispatch."""
        self.memory.write(entry.address, entry.datum_operand.value)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._pop_completions():
            if entry.squashed:
                self._inflight -= 1
                continue
            if entry.fault is not None:
                self._take_interrupt(
                    entry.fault, seq=entry.seq, pc=entry.inst.pc,
                    precise=False,
                )
                return
            self._inflight -= 1
            entry.executed_cycle = self.cycle
            inst = entry.inst
            if inst.dest_id is not None:
                self._waiting.wake(entry.dest_tag, entry.result)
                self._writeback(entry)
            if inst.is_memory:
                if inst.is_load:
                    self.mdu.publish(entry.seq, entry.result)
                self.mdu.finish(entry.seq)
            if not self._entry_released_at_dispatch():
                self._release_entry(entry)
            self.note(entry.seq, "complete")
            self._note_retired(entry.seq)

    def _occupied(self) -> int:
        return sum(len(stations) for stations in self._stations)

    # ------------------------------------------------------------------

    def _register_pending(self, reg_id: int) -> bool:
        return self._reg_tag[reg_id] is not None

    def _drained(self) -> bool:
        return self._inflight == 0 and self._occupied() == 0

    def result(self):
        sim_result = super().result()
        if self.cycle:
            sim_result.extra["avg_window_occupancy"] = (
                self.occupancy_accum / self.cycle
            )
        sim_result.extra["memory_forwards"] = self.mdu.forwards
        return sim_result
