"""Smith & Pleszkun precise-interrupt schemes (paper section 4, ref [5]).

The paper frames the RUU against the classic mechanisms for making an
in-order-issue machine's interrupts precise: the plain reorder buffer,
the reorder buffer with bypasses, the history buffer, and the future
file.  These engines implement all four on top of the simple-issue
machine so the paper's qualitative claims can be measured:

* the **plain reorder buffer** "aggravates data dependencies": a value
  cannot be read until the reorder buffer updates the register, even if
  it was computed long ago -- destination registers stay busy from
  issue to *commit*;
* **bypass logic**, the **history buffer** and the **future file** all
  restore reads at *completion* time and perform alike -- they differ
  only in hardware cost (search paths, an extra read port, a duplicate
  register file), which is why the paper treats them as interchangeable
  bypass forms (§6.1);
* all four deliver precise interrupts and support restart, unlike the
  plain simple engine.

Issue remains strictly in order and blocking -- dependency *resolution*
(the RUU's other half) is exactly what these machines lack.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.registers import TOTAL_REGISTERS, RegisterFile
from ..isa.semantics import coerce_for_bank, effective_address, evaluate
from ..machine.engine import Engine
from ..machine.faults import FAULT_TYPES, PageFault
from ..machine.stats import StallReason


class _BufEntry:
    """One slot of the result-reordering structure."""

    __slots__ = (
        "seq", "inst", "value", "fault", "done_cycle", "address",
        "datum", "old_value", "squashed",
    )

    def __init__(self, seq: int, inst: Instruction) -> None:
        self.seq = seq
        self.inst = inst
        self.value = None
        self.fault: Optional[Exception] = None
        self.done_cycle: Optional[int] = None
        self.address: Optional[int] = None
        self.datum = None
        self.old_value = None
        self.squashed = False

    #: Operands are read at issue, so nothing to snoop for.
    waiting_tags = ()

    @property
    def done(self) -> bool:
        return self.done_cycle is not None

    @property
    def state(self) -> str:
        """In-order issue is dispatch: ``dispatched`` until ``done``."""
        return "done" if self.done_cycle is not None else "dispatched"


class InOrderPreciseEngine(Engine):
    """Shared machinery: in-order issue, buffered in-order commit."""

    name = "inorder-precise"
    claims_precise_interrupts = True
    #: Does a pending destination register unblock at completion (True)
    #: or only at commit (False, the plain reorder buffer)?
    unblocks_at_completion = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.buffer: Deque[_BufEntry] = deque()
        #: The pending writer of each register (None: not busy), by id.
        self._busy: List[Optional[_BufEntry]] = [None] * TOTAL_REGISTERS

    # ------------------------------------------------------------------
    # register-read policy hooks
    # ------------------------------------------------------------------

    def _read_source(self, reg: int) -> Tuple[bool, object]:
        """May the issue stage read register ``reg`` now, and what value?"""
        if self._busy[reg] is None:
            return True, self._issue_file_read(reg)
        return False, None

    def _issue_file_read(self, reg: int):
        """Which register file does the issue stage read from?"""
        return self.regs.values[reg]

    def _on_complete(self, entry: _BufEntry) -> None:
        """A result arrived on the bus (still uncommitted)."""
        dest = entry.inst.dest_id
        if self.unblocks_at_completion and dest is not None:
            if self._busy[dest] is entry:
                self._busy[dest] = None

    def _recover_precise_state(self, fault_seq: int) -> None:
        """Undo any speculative register-file damage at an interrupt."""

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        if len(self.buffer) >= self.config.window_size:
            self.stall(StallReason.WINDOW_FULL)
            return False
        values = []
        for reg in inst.source_ids:
            ok, value = self._read_source(reg)
            if not ok:
                self.stall(StallReason.SOURCE_BUSY)
                return False
            values.append(value)
        dest = inst.dest_id
        if dest is not None and self._busy[dest] is not None:
            self.stall(StallReason.DEST_BUSY)
            return False
        fu = inst.fu_index
        if not self.fus.can_accept(fu, self.cycle):
            self.stall(StallReason.FU_BUSY)
            return False
        done_cycle = self.fus.result_cycle(fu, self.cycle)
        if dest is not None and not self.result_bus.is_free(done_cycle):
            self.stall(StallReason.RESULT_BUS)
            return False

        entry = _BufEntry(seq, inst)
        self._execute(entry, values)
        self.fus.accept(fu, self.cycle)
        if dest is not None:
            self.result_bus.reserve(done_cycle)
            entry.old_value = self._issue_file_read(dest)
            self._busy[dest] = entry
        self.buffer.append(entry)
        self._schedule_completion(done_cycle, entry)
        self.note(seq, "issue")
        self.note(seq, "dispatch")
        return True

    def _execute(self, entry: _BufEntry, values) -> None:
        """Compute at issue (in-order issue sees correct operands).

        Stores only *capture* their datum and address here; memory is
        written at commit, in program order -- that, plus buffered
        register updates, is what makes these machines precise.  Loads
        forward from uncommitted stores in the buffer.
        """
        inst = entry.inst
        try:
            if inst.is_load:
                entry.address = effective_address(values[-1], inst.imm)
                entry.value = coerce_for_bank(
                    inst.dest, self._load_value(entry.address)
                )
            elif inst.is_store:
                entry.address = effective_address(values[-1], inst.imm)
                entry.datum = values[0]
            else:
                raw = evaluate(inst.opcode, values[:len(inst.srcs)], inst.imm)
                entry.value = coerce_for_bank(inst.dest, raw)
        except FAULT_TYPES as fault:
            entry.fault = fault

    def _load_value(self, address: int):
        """Read memory, honouring uncommitted stores in the buffer."""
        for entry in reversed(self.buffer):
            if entry.inst.is_store and entry.address == address \
                    and not entry.squashed:
                return entry.datum
        return self.memory.read(address)

    # ------------------------------------------------------------------
    # completion and commit
    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._pop_completions():
            if entry.squashed:
                continue
            entry.done_cycle = self.cycle
            self.note(entry.seq, "complete")
            if entry.fault is None:
                self._on_complete(entry)

    def _phase_commit(self) -> None:
        if self.interrupt_record is not None:
            return
        budget = self.config.commit_paths
        while budget > 0 and self.buffer:
            entry = self.buffer[0]
            if not entry.done or entry.done_cycle >= self.cycle:
                return
            if entry.fault is not None:
                self._interrupt_at(entry)
                return
            inst = entry.inst
            if inst.is_store:
                try:
                    self.memory.write(entry.address, entry.datum)
                except PageFault as fault:
                    entry.fault = fault
                    self._interrupt_at(entry)
                    return
            if inst.dest_id is not None:
                self._commit_register(entry)
            self.buffer.popleft()
            self.note(entry.seq, "commit")
            self._note_retired(entry.seq)
            budget -= 1

    def _commit_register(self, entry: _BufEntry) -> None:
        dest = entry.inst.dest_id
        self.regs.values[dest] = entry.value
        if self._busy[dest] is entry:
            self._busy[dest] = None

    # ------------------------------------------------------------------
    # precise interrupts
    # ------------------------------------------------------------------

    def _interrupt_at(self, entry: _BufEntry) -> None:
        self._take_interrupt(
            entry.fault, seq=entry.seq, pc=entry.inst.pc, precise=True
        )
        self._recover_precise_state(entry.seq)
        for victim in self.buffer:
            victim.squashed = True
        self.buffer.clear()
        self._busy = [None] * TOTAL_REGISTERS
        self._restart_at(entry.seq, entry.inst.pc)

    # ------------------------------------------------------------------

    def _branch_operand(self, reg: int) -> Tuple[bool, object]:
        return self._read_source(reg)

    def _register_pending(self, reg: int) -> bool:
        return self._busy[reg] is not None

    def _drained(self) -> bool:
        return not self.buffer

    def waiting_entries(self) -> Sequence[_BufEntry]:
        return self.buffer

    def occupancy(self) -> Dict[str, int]:
        return {"buffer": len(self.buffer)}


class ReorderBufferEngine(InOrderPreciseEngine):
    """Plain reorder buffer: registers unlock only at commit.

    This is the scheme whose dependency aggravation motivates adding
    bypasses -- and, ultimately, the RUU.
    """

    name = "reorder-buffer"
    unblocks_at_completion = False


class ReorderBufferBypassEngine(InOrderPreciseEngine):
    """Reorder buffer with bypass paths: a completed-but-uncommitted
    result can be read directly from the buffer at issue time."""

    name = "rob-bypass"
    unblocks_at_completion = False

    def _read_source(self, reg: int) -> Tuple[bool, object]:
        entry = self._busy[reg]
        if entry is None:
            return True, self.regs.values[reg]
        if entry.done and entry.fault is None:
            return True, entry.value
        return False, None


class HistoryBufferEngine(InOrderPreciseEngine):
    """History buffer: the register file is written eagerly at
    completion; pre-issue values are kept so a trap can be rolled back.
    """

    name = "history-buffer"
    unblocks_at_completion = True

    def _on_complete(self, entry: _BufEntry) -> None:
        if entry.inst.dest_id is not None:
            self.regs.values[entry.inst.dest_id] = entry.value
        super()._on_complete(entry)

    def _commit_register(self, entry: _BufEntry) -> None:
        # Already written at completion; committing merely discards the
        # history record (the old value can no longer be needed).
        dest = entry.inst.dest_id
        if self._busy[dest] is entry:
            self._busy[dest] = None

    def _recover_precise_state(self, fault_seq: int) -> None:
        """Roll back: restore pre-issue values, youngest first."""
        for entry in reversed(self.buffer):
            if entry.inst.dest_id is not None and entry.done \
                    and entry.fault is None:
                self.regs.values[entry.inst.dest_id] = entry.old_value


class FutureFileEngine(InOrderPreciseEngine):
    """Future file: a duplicate register file absorbs eager updates;
    the architectural file is written in order at commit.  ``regs`` is
    the architectural file (the precise state)."""

    name = "future-file"
    unblocks_at_completion = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.future: RegisterFile = self.regs.copy()

    def _issue_file_read(self, reg: int):
        return self.future.values[reg]

    def _on_complete(self, entry: _BufEntry) -> None:
        if entry.inst.dest_id is not None:
            self.future.values[entry.inst.dest_id] = entry.value
        super()._on_complete(entry)

    def _recover_precise_state(self, fault_seq: int) -> None:
        """The architectural file is already precise; resynchronize the
        future file from it."""
        self.future = self.regs.copy()

    def _on_restore(self) -> None:
        """A restored register file must be mirrored into the future
        file before issue reads resume."""
        self.future = self.regs.copy()
