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

:class:`SimpleEngine` is also the in-order core of the Smith--Pleszkun
engines (:mod:`repro.interrupts.inorder`), which add a result-reordering
buffer: issue and execution are written once here, and the buffered
engines supply hooks (a buffer-full check, a bypass read of busy
sources, the register file issue reads, store-forwarding loads).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.semantics import effective_address
from ..machine.engine import NEVER, Engine
from ..machine.faults import FAULT_TYPES
from ..machine.stats import StallReason


class InOrderEntry:
    """One instruction between in-order issue and retirement.

    Field names match :class:`~repro.issue.common.WindowEntry`, so the
    shared commit loop reads either.
    """

    __slots__ = (
        "seq", "inst", "result", "fault", "executed_cycle", "address",
        "datum", "old_value", "squashed",
    )

    def __init__(self, seq: int, inst: Instruction) -> None:
        self.seq = seq
        self.inst = inst
        self.result = None
        self.fault: Optional[Exception] = None
        self.executed_cycle: Optional[int] = None
        self.address: Optional[int] = None
        self.datum = None          # a store's value, written at commit
        self.old_value = None      # the value the history buffer restores
        self.squashed = False

    #: Operands are read at issue, so nothing to snoop for.
    waiting_tags = ()

    @property
    def state(self) -> str:
        """In-order issue is dispatch: ``dispatched`` until ``done``."""
        return "done" if self.executed_cycle is not None else "dispatched"


class SimpleEngine(Engine):
    """In-order blocking issue with register busy bits."""

    name = "simple"
    claims_precise_interrupts = False
    #: Stores write memory at issue (so interrupts are imprecise).
    stores_at_commit = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Busy bits: a mask over register ids with a write in flight.
        self._busy = 0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    #: Optional method ``(inst) -> stall reason or None``, checked before
    #: the register tests (the buffered engines: a full buffer).
    _issue_stall = None
    #: Optional method ``(source_ids) -> values or None``: read the
    #: sources although one is busy, or stall (only ``rob-bypass`` can,
    #: from an executed producer).
    _bypass_operands = None

    def _issue_file(self) -> List:
        """The register values issue reads, by id."""
        return self.regs.values

    def _issued(self, entry: InOrderEntry) -> None:
        """``entry`` left the decode stage."""

    def _load_value(self, address: int):
        """The value a load reads at ``address``."""
        return self.memory.read(address)

    # ------------------------------------------------------------------

    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        if self._issue_stall is not None:
            reason = self._issue_stall(inst)
            if reason is not None:
                self._stall_until_event(reason)
                return False
        operands = None
        if inst.src_mask & self._busy:
            if self._bypass_operands is not None:
                operands = self._bypass_operands(inst.source_ids)
            if operands is None:
                self._stall_until_event(StallReason.SOURCE_BUSY)
                return False
        if inst.dest_mask & self._busy:
            self._stall_until_event(StallReason.DEST_BUSY)
            return False
        fu = inst.fu_index
        if not self.fus.can_accept(fu, self.cycle):
            self.stall(StallReason.FU_BUSY)
            return False
        done_cycle = self.cycle + self.fus.latency[fu]
        if inst.dest_mask and not self.result_bus.reserve(done_cycle):
            self.stall(StallReason.RESULT_BUS)
            return False

        if operands is None:
            values = self._issue_file()
            operands = [values[reg] for reg in inst.source_ids]
        entry = InOrderEntry(seq, inst)
        self._execute(entry, operands)
        self.fus.accept(fu, self.cycle)
        self._busy |= inst.dest_mask
        self._issued(entry)
        self._schedule_completion(done_cycle, entry)
        if self.recorder is not None:
            # Issue is dispatch on this machine.
            self.recorder.on_stage(seq, "issue", self.cycle)
            self.recorder.on_stage(seq, "dispatch", self.cycle)
        return True

    def _execute(self, entry: InOrderEntry, operands: List) -> None:
        """Perform the instruction's state reads (and store writes) now.

        ``operands`` are in :attr:`Instruction.sources` order.  In-order
        issue means register reads and memory accesses at issue time see
        the correct values: per-address memory order equals program
        order.  Without :attr:`stores_at_commit` a store updates memory
        here -- which is precisely what makes this machine's interrupts
        imprecise with respect to memory.  With it (the buffered
        engines) a store only captures its datum, and memory is written
        at commit, in program order.
        """
        inst = entry.inst
        try:
            if inst.is_memory:
                entry.address = effective_address(operands[-1], inst.imm)
                if inst.is_load:
                    entry.result = inst.coerce(self._load_value(entry.address))
                elif self.stores_at_commit:
                    entry.datum = operands[0]
                else:
                    self.memory.write(entry.address, operands[0])
            else:
                entry.result = inst.coerce(inst.operation(operands, inst.imm))
        except FAULT_TYPES as fault:
            entry.fault = fault

    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._completions.pop(self.cycle, ()):
            if entry.fault is not None:
                self._take_interrupt(
                    entry.fault, seq=entry.seq, pc=entry.inst.pc,
                    precise=False,
                )
                return
            dest = entry.inst.dest_id
            if dest is not None:
                self.regs.values[dest] = entry.result
                self._busy &= ~entry.inst.dest_mask
            if self.recorder is not None:
                self.recorder.on_stage(entry.seq, "complete", self.cycle)
            self._note_retired(entry.seq)

    def _branch_operand(self, reg_id: int) -> Tuple[bool, object]:
        if self._busy >> reg_id & 1:
            return False, None
        return True, self._issue_file()[reg_id]

    def _register_pending(self, reg_id: int) -> bool:
        return bool(self._busy >> reg_id & 1)

    def _drained(self) -> bool:
        return not self._completions

    def _next_event(self) -> Optional[int]:
        """Busy bits clear and buffers drain only at a completion (or
        at the commit one allows)."""
        completions = self._completions
        return min(completions) if completions else NEVER
