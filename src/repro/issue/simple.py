"""The simple instruction issue mechanism (the paper's Table 1 baseline).

This is CRAY-1-style issue logic: instructions issue strictly in program
order from the decode stage, and an instruction *blocks issue* until

* none of its source registers is busy (reserved by an in-flight write),
* its destination register is not busy,
* its functional unit can accept an operation, and
* the single result bus is free at the cycle its result will emerge
  (the bus is reserved at issue; CRAY-1 latencies are fixed, so this is
  decidable at issue time).

There is no window: a stalled instruction holds the decode stage and
everything behind it.  Instructions still *complete* out of program
order (different functional-unit latencies), which is exactly why this
machine has imprecise interrupts -- the motivating problem of the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.semantics import (
    coerce_for_bank,
    effective_address,
    evaluate,
)
from ..machine.engine import Engine
from ..machine.faults import FAULT_TYPES
from ..machine.stats import StallReason


class _Completion:
    """An in-flight instruction awaiting its writeback cycle."""

    __slots__ = ("seq", "inst", "value", "fault")

    def __init__(self, seq: int, inst: Instruction, value=None,
                 fault: Optional[Exception] = None) -> None:
        self.seq = seq
        self.inst = inst
        self.value = value
        self.fault = fault


class SimpleEngine(Engine):
    """In-order blocking issue with register busy bits."""

    name = "simple"
    claims_precise_interrupts = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Busy bits: a mask over register ids with a write in flight.
        self._busy = 0

    # ------------------------------------------------------------------

    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        if inst.src_mask & self._busy:
            self.stall(StallReason.SOURCE_BUSY)
            return False
        if inst.dest_mask & self._busy:
            self.stall(StallReason.DEST_BUSY)
            return False
        fu = inst.fu_index
        if not self.fus.can_accept(fu, self.cycle):
            self.stall(StallReason.FU_BUSY)
            return False
        done_cycle = self.fus.result_cycle(fu, self.cycle)
        if inst.dest_mask and not self.result_bus.is_free(done_cycle):
            self.stall(StallReason.RESULT_BUS)
            return False

        value, fault = self._execute(inst)
        self.fus.accept(fu, self.cycle)
        if inst.dest_mask:
            self.result_bus.reserve(done_cycle)
            self._busy |= inst.dest_mask
        self._schedule_completion(done_cycle, _Completion(seq, inst, value, fault))
        self.note(seq, "issue")
        self.note(seq, "dispatch")  # issue is dispatch on this machine
        return True

    def _execute(self, inst: Instruction) -> Tuple[object, Optional[Exception]]:
        """Perform the instruction's state reads (and store writes) now.

        In-order issue means register reads and memory accesses at issue
        time see the correct architectural values: per-address memory
        order equals program order.  Stores therefore update memory at
        issue -- which is precisely what makes this machine's interrupts
        imprecise with respect to memory.
        """
        values = self.regs.values
        try:
            if inst.is_load:
                address = effective_address(values[inst.base_id], inst.imm)
                value = self.memory.read(address)
                return coerce_for_bank(inst.dest, value), None
            if inst.is_store:
                address = effective_address(values[inst.base_id], inst.imm)
                self.memory.write(address, values[inst.src_ids[0]])
                return None, None
            operands = [values[reg] for reg in inst.src_ids]
            raw = evaluate(inst.opcode, operands, inst.imm)
            return coerce_for_bank(inst.dest, raw), None
        except FAULT_TYPES as fault:
            return None, fault

    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for completion in self._pop_completions():
            if completion.fault is not None:
                self._take_interrupt(
                    completion.fault,
                    seq=completion.seq,
                    pc=completion.inst.pc,
                    precise=False,
                )
                return
            dest = completion.inst.dest_id
            if dest is not None:
                self.regs.values[dest] = completion.value
                self._busy &= ~completion.inst.dest_mask
            self.note(completion.seq, "complete")
            self._note_retired(completion.seq)

    def _register_pending(self, reg_id: int) -> bool:
        return bool(self._busy >> reg_id & 1)

    def _drained(self) -> bool:
        return not self._completions
