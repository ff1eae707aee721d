"""Interrupt records produced by the timing engines.

An engine that detects an instruction-generated trap (arithmetic fault or
page fault) stops and attaches an :class:`InterruptRecord` to itself and
to its :class:`~repro.machine.stats.SimResult`.  Whether the recorded
state is *precise* is the property under study: the RUU guarantees it,
the other engines do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..isa.semantics import ArithmeticFault
from .faults import PageFault


@dataclass(frozen=True)
class InterruptRecord:
    """A taken interrupt.

    Attributes:
        cause: the underlying fault exception (ArithmeticFault/PageFault).
        seq: dynamic sequence number (0-based, program order) of the
            faulting instruction.
        pc: program counter of the faulting instruction -- for a precise
            engine this is where execution must restart.
        cycle: clock cycle at which the interrupt was taken.
        claims_precise: True if the engine asserts the visible state is
            exactly the state after the first ``seq`` instructions.  The
            test-suite verifies this claim against the golden model.
    """

    cause: Exception
    seq: int
    pc: int
    cycle: int
    claims_precise: bool

    def describe(self) -> str:
        precision = "precise" if self.claims_precise else "IMPRECISE"
        return (
            f"interrupt at cycle {self.cycle}: {self.cause} "
            f"(dynamic instruction #{self.seq}, pc={self.pc}, {precision})"
        )

    def to_json(self) -> Dict[str, Any]:
        """Lossless JSON form (cause as type name + constructor args)."""
        cause = self.cause
        if isinstance(cause, PageFault):
            cause_json: Dict[str, Any] = {
                "type": "PageFault",
                "args": [cause.address, cause.is_store],
            }
        elif isinstance(cause, ArithmeticFault):
            cause_json = {"type": "ArithmeticFault", "args": [cause.reason]}
        else:  # pragma: no cover - no third fault type exists today
            cause_json = {"type": type(cause).__name__, "args": [str(cause)]}
        return {
            "cause": cause_json,
            "seq": self.seq,
            "pc": self.pc,
            "cycle": self.cycle,
            "claims_precise": self.claims_precise,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "InterruptRecord":
        """Rebuild a record produced by :meth:`to_json`."""
        cause_json = payload["cause"]
        kind = cause_json["type"]
        args = cause_json["args"]
        if kind == "PageFault":
            cause: Exception = PageFault(int(args[0]), bool(args[1]))
        elif kind == "ArithmeticFault":
            cause = ArithmeticFault(str(args[0]))
        else:
            cause = RuntimeError(*args)
        return cls(
            cause=cause,
            seq=int(payload["seq"]),
            pc=int(payload["pc"]),
            cycle=int(payload["cycle"]),
            claims_precise=bool(payload["claims_precise"]),
        )
