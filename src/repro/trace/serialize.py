"""Trace serialization: save/load dynamic traces as text.

The paper's toolchain stored CRAY-1 traces on disk between the trace
generator and the timing simulators; this module provides the same
workflow for the model ISA.  The format is line-oriented and
self-describing::

    # repro-trace v1 program=<name> count=<n>
    <seq> <pc> [T|N|-] [@address|-]

Instruction *text* is not stored -- a trace is only meaningful against
its program, which the loader takes as an argument (and validates
against: every pc must exist and control-flow records must match the
static instruction kinds).
"""

from __future__ import annotations

from typing import Optional

from ..isa.program import Program
from .trace import Trace, TraceEntry

_HEADER_PREFIX = "# repro-trace v1"


class TraceFormatError(ValueError):
    """Malformed trace text."""


def dump_trace(trace: Trace, program_name: str = "") -> str:
    """Serialize a trace to text."""
    name = program_name or trace.name
    lines = [f"{_HEADER_PREFIX} program={name} count={len(trace)}"]
    for entry in trace:
        taken = "-" if entry.taken is None else ("T" if entry.taken else "N")
        address = "-" if entry.address is None else f"@{entry.address}"
        lines.append(f"{entry.seq} {entry.pc} {taken} {address}")
    return "\n".join(lines) + "\n"


def load_trace(text: str, program: Program) -> Trace:
    """Parse trace text back into a :class:`Trace` bound to ``program``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise TraceFormatError("missing trace header")
    header = lines[0]
    declared: Optional[int] = None
    for token in header.split():
        if token.startswith("count="):
            declared = int(token.split("=", 1)[1])
    trace = Trace(program.name)
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(f"line {line_no}: expected 4 fields")
        seq, pc = int(parts[0]), int(parts[1])
        if not 0 <= pc < len(program):
            raise TraceFormatError(f"line {line_no}: pc {pc} out of range")
        inst = program[pc]
        taken: Optional[bool]
        if parts[2] == "-":
            taken = None
        elif parts[2] in ("T", "N"):
            taken = parts[2] == "T"
            if not inst.is_control_flow:
                raise TraceFormatError(
                    f"line {line_no}: branch outcome on non-branch pc {pc}"
                )
        else:
            raise TraceFormatError(f"line {line_no}: bad taken flag")
        address: Optional[int]
        if parts[3] == "-":
            address = None
        else:
            if not parts[3].startswith("@"):
                raise TraceFormatError(f"line {line_no}: bad address field")
            address = int(parts[3][1:])
            if not inst.is_memory:
                raise TraceFormatError(
                    f"line {line_no}: address on non-memory pc {pc}"
                )
        trace.append(TraceEntry(seq=seq, pc=pc, inst=inst,
                                taken=taken, address=address))
    if declared is not None and declared != len(trace):
        raise TraceFormatError(
            f"header declares {declared} entries, found {len(trace)}"
        )
    return trace


def save_trace(trace: Trace, path: str, program_name: str = "") -> None:
    """Write a trace to a file."""
    with open(path, "w") as handle:
        handle.write(dump_trace(trace, program_name))


def read_trace(path: str, program: Program) -> Trace:
    """Read a trace file back against its program."""
    with open(path) as handle:
        return load_trace(handle.read(), program)
