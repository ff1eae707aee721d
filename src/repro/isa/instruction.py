"""The :class:`Instruction` type shared by the assembler and all engines."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (
    Callable, Dict, Generic, Optional, Sequence, Tuple, TypeVar, overload,
)

from .opcodes import FU_INDEX, FUClass, OpKind, Opcode
from .registers import RegBank, Register
from .semantics import ALU_OPERATIONS, bank_coercion

_T = TypeVar("_T")


class _Decoded(Generic[_T]):
    """A decoded attribute: the first read decodes the whole instruction
    into its instance dict, which then shadows this descriptor."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    @overload
    def __get__(self, inst: None, owner: type) -> "_Decoded[_T]": ...

    @overload
    def __get__(self, inst: "Instruction", owner: type) -> _T: ...

    def __get__(self, inst, owner=None):
        if inst is None:
            return self
        inst._decode()
        return inst.__dict__[self.name]


@dataclass(frozen=True)
class Instruction:
    """One static instruction of the model ISA.

    Fields not used by a given :class:`~repro.isa.opcodes.OpKind` are
    ``None``:

    * ALU ops use ``dest`` and ``srcs`` (plus ``imm`` for shift counts
      and ``A_ADDI``).
    * Immediates use ``dest`` and ``imm``.
    * Loads use ``dest``, ``base`` and ``imm`` (address = base + imm).
    * Stores use ``srcs[0]`` (the datum), ``base`` and ``imm``.
    * Branches use ``srcs[0]`` (the tested register) and ``target``.
    * Jumps use ``target``.

    ``target`` is a label name until :meth:`repro.isa.program.Program.
    finalize` resolves it to an instruction index.

    ``line`` is the 1-based source line recorded by the assembler (None
    for programs built programmatically); error messages and the
    :mod:`repro.lint` diagnostics use it to point at real source lines.
    """

    opcode: Opcode
    dest: Optional[Register] = None
    srcs: Tuple[Register, ...] = ()
    base: Optional[Register] = None
    imm: Optional[object] = None
    target: Optional[object] = None  # label str before, int index after
    pc: int = field(default=-1, compare=False)
    line: Optional[int] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        kind = self.opcode.kind
        if self.opcode.has_dest and self.dest is None:
            raise ValueError(f"{self.opcode.mnemonic} requires a destination")
        if not self.opcode.has_dest and self.dest is not None:
            raise ValueError(
                f"{self.opcode.mnemonic} must not have a destination"
            )
        if len(self.srcs) != self.opcode.n_srcs:
            raise ValueError(
                f"{self.opcode.mnemonic} takes {self.opcode.n_srcs} register "
                f"source(s), got {len(self.srcs)}"
            )
        if self.opcode.is_memory and self.base is None:
            raise ValueError(
                f"{self.opcode.mnemonic} requires a base register"
            )
        if self.opcode.is_memory and self.base.bank is not RegBank.A:
            raise ValueError("memory base register must be an A register")
        if kind in (OpKind.IMMEDIATE, OpKind.LOAD, OpKind.STORE) \
                and self.imm is None:
            raise ValueError(f"{self.opcode.mnemonic} requires an immediate")
        if self.opcode.is_control_flow and self.target is None:
            raise ValueError(f"{self.opcode.mnemonic} requires a target")

    # -- decoded record -----------------------------------------------------

    # The attributes below are derived from the fields on first use and
    # then live in the instance dict: one decode per instruction, after
    # which every read is a plain attribute load.  They are never
    # pickled (see ``__getstate__``), and ``dataclasses.replace`` builds a
    # fresh instruction that decodes itself again.

    #: All registers read: explicit sources plus the address base.
    sources = _Decoded[Tuple[Register, ...]]()
    fu = _Decoded[FUClass]()
    #: Position of ``fu`` in ``FUClass`` order (see ``FU_INDEX``).
    fu_index = _Decoded[int]()
    is_load = _Decoded[bool]()
    is_store = _Decoded[bool]()
    is_memory = _Decoded[bool]()
    is_branch = _Decoded[bool]()
    is_control_flow = _Decoded[bool]()
    is_halt = _Decoded[bool]()
    is_nop = _Decoded[bool]()
    #: Register id (``Register.flat_index``) of ``dest``, or None.
    dest_id = _Decoded[Optional[int]]()
    #: Register id of ``base``, or None.
    base_id = _Decoded[Optional[int]]()
    #: Register ids of the explicit sources, in ``srcs`` order.
    src_ids = _Decoded[Tuple[int, ...]]()
    #: Register ids of ``sources`` (explicit sources, then the base).
    source_ids = _Decoded[Tuple[int, ...]]()
    #: Bitmask over register ids of everything read / written.
    src_mask = _Decoded[int]()
    dest_mask = _Decoded[int]()
    #: ``(operands, imm) -> raw result`` of an ALU or immediate opcode
    #: (``semantics.ALU_OPERATIONS``), else None.
    operation = _Decoded[Optional[Callable[[Sequence, object], object]]]()
    #: ``raw -> value`` in ``dest``'s width discipline
    #: (``semantics.bank_coercion``), or None without a destination.
    coerce = _Decoded[Optional[Callable[[object], object]]]()

    def _decode(self) -> None:
        opcode = self.opcode
        sources = self.srcs if self.base is None else self.srcs + (self.base,)
        source_ids = tuple(reg.flat_index for reg in sources)
        dest_id = None if self.dest is None else self.dest.flat_index
        src_mask = 0
        for reg_id in source_ids:
            src_mask |= 1 << reg_id
        self.__dict__.update(
            sources=sources,
            fu=opcode.fu,
            fu_index=FU_INDEX[opcode.fu],
            is_load=opcode.is_load,
            is_store=opcode.is_store,
            is_memory=opcode.is_memory,
            is_branch=opcode.is_branch,
            is_control_flow=opcode.is_control_flow,
            is_halt=opcode is Opcode.HALT,
            is_nop=opcode is Opcode.NOP,
            dest_id=dest_id,
            base_id=None if self.base is None else self.base.flat_index,
            src_ids=source_ids[:len(self.srcs)],
            source_ids=source_ids,
            src_mask=src_mask,
            dest_mask=0 if dest_id is None else 1 << dest_id,
            operation=ALU_OPERATIONS.get(opcode),
            coerce=None if self.dest is None
            else bank_coercion(self.dest.bank),
        )

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the fields only; the receiver decodes on first use."""
        return {name: self.__dict__[name] for name in _FIELD_NAMES}

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        op = self.opcode
        parts = []
        if self.dest is not None:
            parts.append(self.dest.name)
        if op.kind is OpKind.LOAD:
            parts.append(f"{self.base.name}[{self.imm}]")
        elif op.kind is OpKind.STORE:
            parts.append(f"{self.base.name}[{self.imm}]")
            parts.append(self.srcs[0].name)
        else:
            parts.extend(reg.name for reg in self.srcs)
            if self.imm is not None:
                parts.append(repr(self.imm))
        if self.target is not None:
            parts.append(f"-> {self.target}")
        body = ", ".join(parts)
        return f"{op.mnemonic} {body}".strip()


_FIELD_NAMES = tuple(f.name for f in fields(Instruction))
