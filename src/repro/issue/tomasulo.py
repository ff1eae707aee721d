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

The shared issue/dispatch/execute machinery lives in
:class:`~repro.issue.common.WindowedEngine`.  The subclasses in
:mod:`repro.issue.tagunit`, :mod:`repro.issue.rspool` and
:mod:`repro.issue.rstu` override only tag allocation and station
organization, mirroring how the paper evolves the design (§3.2).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import FUClass
from ..isa.registers import TOTAL_REGISTERS
from ..machine.stats import StallReason
from .common import WindowedEngine, WindowEntry


class TomasuloEngine(WindowedEngine):
    """Out-of-order issue via per-register tags and distributed stations.

    ``config.window_size`` is the reservation-station count *per
    functional unit* for this engine (the stations are distributed);
    ``window`` holds them all in program order.
    """

    name = "tomasulo"
    claims_precise_interrupts = False
    occupancy_keys = ("stations",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Latest tag of each register (None: not busy), by register id.
        self._reg_tag: List[Optional[int]] = [None] * TOTAL_REGISTERS

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _issue_stall(self, inst: Instruction) -> Optional[str]:
        if inst.is_memory and not self.mdu.can_accept():
            return StallReason.NO_LOAD_REGISTER
        size = self.config.window_size
        # No unit is full while the window holds fewer than size stations.
        if len(self.window) >= size:
            fu = inst.fu_index
            if sum(1 for entry in self.window
                   if entry.inst.fu_index == fu) >= size:
                return StallReason.WINDOW_FULL
        return None

    def _source_operand(self, reg_id: int) -> Tuple[object, object]:
        """Register-file read or tag capture, per the busy bit."""
        tag = self._reg_tag[reg_id]
        if tag is None:
            return self.regs.values[reg_id], None
        return None, tag

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

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch_ready(self) -> None:
        """Each functional unit independently dispatches its oldest ready
        instruction (distributed stations: no shared dispatch port).

        The candidates come from the ready list, oldest first.  Units
        are served in FU order, which decides who wins a result-bus
        slot.  Choosing every unit's candidate first is safe: only the
        memory unit's own dispatches change memory-op readiness.
        """
        ready = self._waiting.ready
        oldest: List[Optional[WindowEntry]] = [None] * len(FUClass)
        for entry in ready:
            fu = entry.inst.fu_index
            if oldest[fu] is None and self._entry_ready(entry):
                oldest[fu] = entry
        for entry in oldest:
            if entry is not None:
                self._dispatch(entry)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._completions.pop(self.cycle, ()):
            if entry.fault is not None:
                self._take_interrupt(
                    entry.fault, seq=entry.seq, pc=entry.inst.pc,
                    precise=False,
                )
                return
            entry.executed_cycle = self.cycle
            inst = entry.inst
            if inst.dest_id is not None:
                self._waiting.wake(entry.dest_tag, entry.result)
                self._writeback(entry)
            if inst.is_memory:
                if inst.is_load:
                    self.mdu.publish(entry.seq, entry.result)
                self.mdu.finish(entry.seq)
            if not self.release_at_dispatch:
                self.window.remove(entry)
            if self.recorder is not None:
                self.recorder.on_stage(entry.seq, "complete", self.cycle)
            self._note_retired(entry.seq)

    def _register_pending(self, reg_id: int) -> bool:
        return self._reg_tag[reg_id] is not None
