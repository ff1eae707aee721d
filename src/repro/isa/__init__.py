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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "assembler": ("AssemblyError", "assemble"),
    "encoding": (
        "EncodingError", "decode_program", "encode_program", "parcel_count",
    ),
    "instruction": ("Instruction",),
    "opcodes": ("DEFAULT_LATENCY", "FUClass", "OpKind", "Opcode"),
    "program": ("Program", "ProgramError", "build_program"),
    "registers": (
        "TOTAL_REGISTERS", "A", "B", "RegBank", "Register", "RegisterFile",
        "S", "T", "all_registers",
    ),
    "semantics": (
        "ArithmeticFault", "branch_taken", "coerce_for_bank",
        "effective_address", "evaluate", "wrap_a", "wrap_s_int",
    ),
})
