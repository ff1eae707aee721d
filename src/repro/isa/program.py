"""Program container: an ordered list of instructions plus labels."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence

from .encoding import encode_program
from .instruction import Instruction
from .opcodes import Opcode


class ProgramError(ValueError):
    """Raised for malformed programs (undefined labels, no HALT, ...)."""


def _source_line(inst: Instruction) -> str:
    """``" (line N)"`` when the assembler recorded a source line."""
    return f" (line {inst.line})" if inst.line is not None else ""


@dataclass(frozen=True)
class Program:
    """An immutable, finalized program.

    Instructions carry resolved integer branch targets and their own
    ``pc``; each decodes its flat engine record (register ids, masks,
    flags, FU index) on first use, so a program decodes once per
    process and ships to workers undecoded.  Construct via
    :func:`build_program` or :func:`repro.isa.assembler.assemble`.
    """

    instructions: tuple
    labels: Dict[str, int]
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def label_of(self, pc: int) -> Optional[str]:
        """Return a label pointing at ``pc``, if any."""
        for label, index in self.labels.items():
            if index == pc:
                return label
        return None

    @cached_property
    def encoding(self) -> bytes:
        """The binary encoding (:func:`~repro.isa.encoding.encode_program`),
        the program's part of a result-cache key.

        It covers only the instruction tuple, and programs and their
        instructions are frozen, so it is computed once per program;
        ``dataclasses.replace`` builds a new program that encodes afresh.
        It is never pickled (see ``__getstate__``).
        """
        return encode_program(self)

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the fields only; the receiver encodes on first use."""
        return {name: self.__dict__[name] for name in _FIELD_NAMES}

    def listing(self) -> str:
        """Return a human-readable disassembly listing."""
        lines = []
        for pc, inst in enumerate(self.instructions):
            label = self.label_of(pc)
            prefix = f"{label}:" if label else ""
            lines.append(f"{prefix:>12s} {pc:5d}  {inst}")
        return "\n".join(lines)


_FIELD_NAMES = tuple(f.name for f in fields(Program))


def build_program(
    instructions: Sequence[Instruction],
    labels: Optional[Dict[str, int]] = None,
    name: str = "program",
) -> Program:
    """Finalize a program: resolve label targets and assign PCs.

    Every control-flow instruction's ``target`` may be a label name (a
    string) or an absolute instruction index; labels are resolved here.
    A ``HALT`` is appended if the program does not end with one, so every
    program has a well-defined end.
    """
    labels = dict(labels or {})
    insts: List[Instruction] = list(instructions)
    if not insts or insts[-1].opcode is not Opcode.HALT:
        insts.append(Instruction(Opcode.HALT))

    resolved: List[Instruction] = []
    for pc, inst in enumerate(insts):
        target = inst.target
        if isinstance(target, str):
            if target not in labels:
                raise ProgramError(
                    f"undefined label {target!r} at pc {pc}"
                    f"{_source_line(inst)}"
                )
            target = labels[target]
        if target is not None and not 0 <= target < len(insts):
            raise ProgramError(
                f"branch target {target} out of range at pc {pc}"
                f"{_source_line(inst)}"
            )
        resolved.append(replace(inst, target=target, pc=pc))

    for label, index in labels.items():
        if not 0 <= index <= len(insts):
            raise ProgramError(f"label {label!r} points outside the program")

    return Program(tuple(resolved), labels, name)
