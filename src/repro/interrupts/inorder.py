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
(the RUU's other half) is exactly what these machines lack.  So the
code is the paper's construction: :class:`InOrderPreciseEngine` is the
:class:`~repro.issue.simple.SimpleEngine` (issue and execution) plus
the in-order commit and precise trap it shares with the RUU
(:class:`~repro.machine.engine.InOrderCommit`).  Each scheme supplies
only when a destination unblocks, what issue reads, and how a trap
repairs the register file.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.registers import RegisterFile
from ..issue.simple import InOrderEntry, SimpleEngine
from ..machine.engine import InOrderCommit
from ..machine.stats import StallReason


class InOrderPreciseEngine(InOrderCommit, SimpleEngine):
    """The simple machine plus a result-reordering buffer: in-order
    blocking issue, buffered in-order commit."""

    name = "inorder-precise"
    claims_precise_interrupts = True
    #: Does a pending destination register unblock at completion (True)
    #: or only at commit (False, the plain reorder buffer)?
    unblocks_at_completion = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The result-reordering buffer, oldest first.
        self.window: Deque[InOrderEntry] = deque()

    # ------------------------------------------------------------------
    # issue (hooks of the simple core)
    # ------------------------------------------------------------------

    def _issue_stall(self, inst: Instruction) -> Optional[str]:
        if len(self.window) >= self.config.window_size:
            return StallReason.WINDOW_FULL
        return None

    def _issued(self, entry: InOrderEntry) -> None:
        self.window.append(entry)

    def _load_value(self, address: int):
        """Read memory, honouring uncommitted stores in the buffer."""
        for entry in reversed(self.window):
            if entry.inst.is_store and entry.address == address:
                return entry.datum
        return self.memory.read(address)

    # ------------------------------------------------------------------
    # completion and commit
    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._completions.pop(self.cycle, ()):
            if entry.squashed:
                continue
            entry.executed_cycle = self.cycle
            if self.recorder is not None:
                self.recorder.on_stage(entry.seq, "complete", self.cycle)
            if entry.fault is None:
                self._on_complete(entry)

    def _on_complete(self, entry: InOrderEntry) -> None:
        """A result arrived on the bus (still uncommitted)."""
        if self.unblocks_at_completion:
            self._busy &= ~entry.inst.dest_mask

    def _commit_register(self, entry: InOrderEntry) -> None:
        self.regs.values[entry.inst.dest_id] = entry.result
        if not self.unblocks_at_completion:
            self._busy &= ~entry.inst.dest_mask

    def _squash_all(self) -> None:
        super()._squash_all()
        self._busy = 0

    # ------------------------------------------------------------------

    def _drained(self) -> bool:
        return not self.window

    def waiting_entries(self) -> Sequence[InOrderEntry]:
        return self.window

    occupancy_keys = ("buffer",)

    def occupancy_counts(self) -> Tuple[int, ...]:
        return (len(self.window),)


class ReorderBufferEngine(InOrderPreciseEngine):
    """Plain reorder buffer: registers unlock only at commit.

    This is the scheme whose dependency aggravation motivates adding
    bypasses -- and, ultimately, the RUU.
    """

    name = "reorder-buffer"


class ReorderBufferBypassEngine(InOrderPreciseEngine):
    """Reorder buffer with bypass paths: a completed-but-uncommitted
    result can be read directly from the buffer at issue time."""

    name = "rob-bypass"

    def _bypass_operands(self, source_ids) -> Optional[List]:
        """Busy sources read their producers' results once executed."""
        busy = self._busy
        values = self.regs.values
        operands = []
        for reg in source_ids:
            if busy >> reg & 1:
                # A busy register has exactly one buffered writer, and
                # it is usually among the youngest.
                for producer in reversed(self.window):
                    if producer.inst.dest_id == reg:
                        break
                if producer.executed_cycle is None \
                        or producer.fault is not None:
                    return None
                operands.append(producer.result)
            else:
                operands.append(values[reg])
        return operands

    def _branch_operand(self, reg_id: int) -> Tuple[bool, object]:
        operands = self._bypass_operands((reg_id,))
        if operands is None:
            return False, None
        return True, operands[0]


class HistoryBufferEngine(InOrderPreciseEngine):
    """History buffer: the register file is written eagerly at
    completion; pre-issue values are kept so a trap can be rolled back.
    """

    name = "history-buffer"
    unblocks_at_completion = True

    def _on_complete(self, entry: InOrderEntry) -> None:
        dest = entry.inst.dest_id
        if dest is not None:
            # The destination stayed busy since issue: this is the
            # pre-issue value.
            entry.old_value = self.regs.values[dest]
            self.regs.values[dest] = entry.result
        super()._on_complete(entry)

    def _commit_register(self, entry: InOrderEntry) -> None:
        """Already written at completion; committing merely discards the
        history record (the old value can no longer be needed)."""

    def _squash_all(self) -> None:
        """Roll back: restore pre-issue values, youngest first."""
        for entry in reversed(self.window):
            if entry.inst.dest_id is not None \
                    and entry.executed_cycle is not None \
                    and entry.fault is None:
                self.regs.values[entry.inst.dest_id] = entry.old_value
        super()._squash_all()


class FutureFileEngine(InOrderPreciseEngine):
    """Future file: a duplicate register file absorbs eager updates;
    the architectural file is written in order at commit.  ``regs`` is
    the architectural file (the precise state)."""

    name = "future-file"
    unblocks_at_completion = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.future: RegisterFile = self.regs.copy()

    def _issue_file(self) -> List:
        return self.future.values

    def _on_complete(self, entry: InOrderEntry) -> None:
        if entry.inst.dest_id is not None:
            self.future.values[entry.inst.dest_id] = entry.result
        super()._on_complete(entry)

    def _squash_all(self) -> None:
        """The architectural file is already precise; resynchronize the
        future file from it."""
        super()._squash_all()
        self.future = self.regs.copy()

    def _on_restore(self) -> None:
        """A restored register file must be mirrored into the future
        file before issue reads resume."""
        self.future = self.regs.copy()
