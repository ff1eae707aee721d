"""Shared reservation-station machinery for the windowed engines.

Tomasulo, the Tag Unit, the RS pool, the RSTU and the RUU all hold
waiting instructions in entries of the same shape: per-source operand
slots that either have a value or snoop a tag, a destination tag, and
execution bookkeeping.  The engines differ in how tags are *allocated*
and when entries are *freed* -- that logic stays in each engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.semantics import effective_address


class Operand:
    """One source-operand slot of a reservation station."""

    __slots__ = ("ready", "value", "tag")

    def __init__(self, ready: bool, value=None, tag=None) -> None:
        self.ready = ready
        self.value = value
        self.tag = tag

    def __repr__(self) -> str:
        if self.ready:
            return f"Operand(ready, {self.value!r})"
        return f"Operand(waiting on {self.tag!r})"


class WindowEntry:
    """A reservation station (or RSTU/RUU slot) holding one instruction.

    ``operands`` are in :attr:`Instruction.sources` order -- explicit
    sources first, then the memory base register (if any).  For a store,
    ``operands[0]`` is the datum.  ``missing`` counts the operands still
    waiting on a tag; the :class:`WakeupIndex` keeps it current.
    """

    __slots__ = (
        "seq",
        "inst",
        "operands",
        "missing",
        "dest_tag",
        "dispatched",
        "executed_cycle",
        "result",
        "fault",
        "address",
        "datum_published",
        "spec_depth",
        "squashed",
    )

    def __init__(self, seq: int, inst: Instruction,
                 operands: List[Operand], dest_tag=None) -> None:
        self.seq = seq
        self.inst = inst
        self.operands = operands
        self.missing = len([op for op in operands if not op.ready])
        self.dest_tag = dest_tag
        self.dispatched = False
        self.executed_cycle: Optional[int] = None
        self.result = None
        self.fault: Optional[Exception] = None
        self.address: Optional[int] = None
        self.datum_published = False
        self.spec_depth = 0        # unresolved predicted branches older
        self.squashed = False      # dropped by recovery; ignore completions

    # -- readiness ---------------------------------------------------------

    @property
    def datum_operand(self) -> Operand:
        """The datum operand of a store."""
        return self.operands[0]

    def compute_address(self) -> int:
        """Resolve and cache the effective address (base must be ready)."""
        if self.address is None:
            self.address = effective_address(
                self.operands[-1].value, self.inst.imm
            )
        return self.address

    @property
    def executed(self) -> bool:
        return self.executed_cycle is not None

    def operand_values(self) -> List[object]:
        """Values of the explicit sources (excludes the address base)."""
        count = len(self.inst.srcs)
        return [operand.value for operand in self.operands[:count]]

    def __repr__(self) -> str:
        state = "done" if self.executed else (
            "dispatched" if self.dispatched else "waiting"
        )
        return f"<#{self.seq} {self.inst} [{state}]>"


class WakeupIndex(Dict[object, List[Tuple[WindowEntry, Operand]]]):
    """Tag -> the operands waiting on it (the result-bus tag match).

    A broadcast visits exactly the operands waiting on its tag instead of
    snooping every entry of the window.
    """

    def add(self, entry: WindowEntry) -> None:
        """Index every operand of a new ``entry`` that waits on a tag."""
        if entry.missing:
            for operand in entry.operands:
                if not operand.ready:
                    waiting = self.get(operand.tag)
                    if waiting is None:
                        self[operand.tag] = [(entry, operand)]
                    else:
                        waiting.append((entry, operand))

    def wake(self, tag, value) -> None:
        """Deliver ``(tag, value)``: every waiting operand captures it."""
        waiting = self.pop(tag, None)
        if waiting is not None:
            for entry, operand in waiting:
                operand.ready = True
                operand.value = value
                operand.tag = None
                entry.missing -= 1

    def drop_squashed(self) -> None:
        """Forget the operands of squashed entries (recovery)."""
        for tag, waiting in list(self.items()):
            live = [pair for pair in waiting if not pair[0].squashed]
            if live:
                self[tag] = live
            else:
                del self[tag]
