"""The model ISA: a CRAY-1-flavoured scalar instruction set.

Public surface:

* :class:`Register`, :class:`RegBank`, :class:`RegisterFile` and the
  ``A``/``S``/``B``/``T`` register constructors;
* :class:`Opcode`, :class:`FUClass`, :class:`OpKind` and the default
  CRAY-1 latency table;
* :class:`Instruction`, :class:`Program` and :func:`build_program`;
* the text :func:`assemble` entry point;
* the shared value semantics (:func:`evaluate`, :func:`branch_taken`,
  :func:`effective_address`, :class:`ArithmeticFault`).
"""

from .assembler import AssemblyError, assemble
from .encoding import (
    EncodingError,
    decode_program,
    encode_program,
    parcel_count,
)
from .instruction import Instruction
from .opcodes import DEFAULT_LATENCY, FUClass, OpKind, Opcode
from .program import Program, ProgramError, build_program
from .registers import (
    TOTAL_REGISTERS,
    A,
    B,
    RegBank,
    Register,
    RegisterFile,
    S,
    T,
    all_registers,
)
from .semantics import (
    ArithmeticFault,
    branch_taken,
    coerce_for_bank,
    effective_address,
    evaluate,
    wrap_a,
    wrap_s_int,
)

__all__ = [
    "A",
    "B",
    "S",
    "T",
    "ArithmeticFault",
    "AssemblyError",
    "DEFAULT_LATENCY",
    "EncodingError",
    "FUClass",
    "Instruction",
    "OpKind",
    "Opcode",
    "Program",
    "ProgramError",
    "RegBank",
    "Register",
    "RegisterFile",
    "TOTAL_REGISTERS",
    "all_registers",
    "assemble",
    "branch_taken",
    "build_program",
    "coerce_for_bank",
    "decode_program",
    "effective_address",
    "encode_program",
    "evaluate",
    "parcel_count",
    "wrap_a",
    "wrap_s_int",
]
