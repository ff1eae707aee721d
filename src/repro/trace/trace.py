"""Dynamic instruction traces.

The paper's methodology (section 2.1) feeds CRAY-1 instruction traces to
each timing simulator.  Our timing engines are execution-driven instead
(so architectural equivalence can be tested), but the functional executor
still emits a :class:`Trace` per run; the analysis layer uses it for
instruction-mix tables, and tests use it to validate retirement order.
"""

from __future__ import annotations

from collections import Counter
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

    def format(self) -> str:
        parts = [f"{self.seq:6d}", f"{self.pc:5d}", str(self.inst)]
        if self.taken is not None:
            parts.append("taken" if self.taken else "not-taken")
        if self.address is not None:
            parts.append(f"@{self.address}")
        return "  ".join(parts)


class Trace:
    """A sequence of :class:`TraceEntry` with summary statistics."""

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

    # -- summaries -----------------------------------------------------

    def fu_mix(self) -> Counter:
        """Dynamic instruction count per functional-unit class."""
        mix: Counter = Counter()
        for entry in self.entries:
            mix[entry.inst.fu] += 1
        return mix

    def branch_count(self) -> int:
        return sum(1 for entry in self.entries if entry.taken is not None)

    def taken_count(self) -> int:
        return sum(1 for entry in self.entries if entry.taken)

    def memory_count(self) -> int:
        return sum(1 for entry in self.entries if entry.inst.is_memory)

    # -- serialization ----------------------------------------------------

    def dump(self) -> str:
        """Serialize to one line per entry (for inspection / diffing)."""
        return "\n".join(entry.format() for entry in self.entries)
