"""Dynamic instruction traces.

The paper's methodology (section 2.1) feeds CRAY-1 instruction traces to
each timing simulator.  Our timing engines are execution-driven instead
(so architectural equivalence can be tested), but the functional executor
still emits a :class:`Trace` per run; the analysis layer uses it for
dependence analysis, and tests use it to validate retirement order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..isa.instruction import Instruction


@dataclass(frozen=True)
class TraceEntry:
    """One dynamically executed instruction."""

    seq: int                      # dynamic sequence number (program order)
    pc: int                       # static instruction index
    inst: Instruction
    taken: Optional[bool] = None  # branch outcome, if a branch
    address: Optional[int] = None  # effective address, if a memory op


class Trace:
    """The :class:`TraceEntry` list of one run, in program order."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.entries: List[TraceEntry] = []

    def append(self, entry: TraceEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self.entries[index]
