"""Opcodes of the model ISA, with functional-unit classes and latencies.

The model architecture executes the same kind of instruction mix as the
CRAY-1 scalar unit (paper, section 2): address (A-register) integer
arithmetic, scalar (S-register) integer/logical/shift arithmetic,
floating-point arithmetic, transmits between the A/S files and their B/T
backup files, scalar loads/stores, and branches that test ``A0``/``S0``.

Latencies are the CRAY-1 *functional unit times* from the hardware
reference manual; they are defaults only -- every simulator takes a
:class:`repro.machine.config.MachineConfig` that can override them.
"""

from __future__ import annotations

import enum
from typing import Dict


class FUClass(enum.Enum):
    """Functional-unit classes (one pipelined unit of each in the model)."""

    ADDR_ADD = "addr_add"          # A-register integer add/subtract
    ADDR_MUL = "addr_mul"          # A-register integer multiply
    SCALAR_ADD = "scalar_add"      # S-register integer add/subtract
    SCALAR_LOGICAL = "scalar_logical"  # S-register and/or/xor
    SCALAR_SHIFT = "scalar_shift"  # S-register shifts
    FLOAT_ADD = "float_add"        # floating add/subtract
    FLOAT_MUL = "float_mul"        # floating multiply
    RECIP = "recip"                # reciprocal approximation
    TRANSMIT = "transmit"          # register-to-register moves, immediates
    MEMORY = "memory"              # scalar loads and stores
    BRANCH = "branch"              # branch condition evaluation
    CONTROL = "control"            # NOP / HALT


#: Position of each FU class in ``FUClass`` order: engines keep their
#: per-unit state in lists indexed by it.
FU_INDEX: Dict[FUClass, int] = {fu: index for index, fu in enumerate(FUClass)}

#: Default functional-unit latency in clock cycles (CRAY-1 unit times).
DEFAULT_LATENCY: Dict[FUClass, int] = {
    FUClass.ADDR_ADD: 2,
    FUClass.ADDR_MUL: 6,
    FUClass.SCALAR_ADD: 3,
    FUClass.SCALAR_LOGICAL: 1,
    FUClass.SCALAR_SHIFT: 2,
    FUClass.FLOAT_ADD: 6,
    FUClass.FLOAT_MUL: 7,
    FUClass.RECIP: 14,
    FUClass.TRANSMIT: 1,
    FUClass.MEMORY: 11,
    FUClass.BRANCH: 1,
    FUClass.CONTROL: 1,
}


class OpKind(enum.Enum):
    """Structural category of an opcode (decides operand layout)."""

    ALU = "alu"            # dest <- f(srcs)
    IMMEDIATE = "imm"      # dest <- imm
    LOAD = "load"          # dest <- mem[base + imm]
    STORE = "store"        # mem[base + imm] <- src
    BRANCH = "branch"      # conditional jump testing one register
    JUMP = "jump"          # unconditional jump
    NOP = "nop"
    HALT = "halt"


class Opcode(enum.Enum):
    """Every instruction of the model ISA.

    The value tuple is ``(mnemonic, fu_class, kind, n_srcs)`` where
    ``n_srcs`` is the number of explicit register sources (memory ops
    additionally have a base-address register).
    """

    # --- address (A) arithmetic -------------------------------------
    A_ADD = ("A_ADD", FUClass.ADDR_ADD, OpKind.ALU, 2)
    A_SUB = ("A_SUB", FUClass.ADDR_ADD, OpKind.ALU, 2)
    A_MUL = ("A_MUL", FUClass.ADDR_MUL, OpKind.ALU, 2)
    A_IMM = ("A_IMM", FUClass.TRANSMIT, OpKind.IMMEDIATE, 0)
    A_ADDI = ("A_ADDI", FUClass.ADDR_ADD, OpKind.ALU, 1)  # Ai <- Aj + imm

    # --- scalar (S) integer/logical/shift ---------------------------
    S_ADD = ("S_ADD", FUClass.SCALAR_ADD, OpKind.ALU, 2)
    S_SUB = ("S_SUB", FUClass.SCALAR_ADD, OpKind.ALU, 2)
    S_AND = ("S_AND", FUClass.SCALAR_LOGICAL, OpKind.ALU, 2)
    S_OR = ("S_OR", FUClass.SCALAR_LOGICAL, OpKind.ALU, 2)
    S_XOR = ("S_XOR", FUClass.SCALAR_LOGICAL, OpKind.ALU, 2)
    S_SHL = ("S_SHL", FUClass.SCALAR_SHIFT, OpKind.ALU, 1)  # shift by imm
    S_SHR = ("S_SHR", FUClass.SCALAR_SHIFT, OpKind.ALU, 1)
    S_IMM = ("S_IMM", FUClass.TRANSMIT, OpKind.IMMEDIATE, 0)

    # --- floating point (on S registers) ----------------------------
    F_ADD = ("F_ADD", FUClass.FLOAT_ADD, OpKind.ALU, 2)
    F_SUB = ("F_SUB", FUClass.FLOAT_ADD, OpKind.ALU, 2)
    F_MUL = ("F_MUL", FUClass.FLOAT_MUL, OpKind.ALU, 2)
    F_RECIP = ("F_RECIP", FUClass.RECIP, OpKind.ALU, 1)

    # --- transmits between register files ---------------------------
    MOV = ("MOV", FUClass.TRANSMIT, OpKind.ALU, 1)  # any bank -> any bank

    # --- memory ------------------------------------------------------
    LOAD_A = ("LOAD_A", FUClass.MEMORY, OpKind.LOAD, 0)
    LOAD_S = ("LOAD_S", FUClass.MEMORY, OpKind.LOAD, 0)
    LOAD_B = ("LOAD_B", FUClass.MEMORY, OpKind.LOAD, 0)
    LOAD_T = ("LOAD_T", FUClass.MEMORY, OpKind.LOAD, 0)
    STORE_A = ("STORE_A", FUClass.MEMORY, OpKind.STORE, 1)
    STORE_S = ("STORE_S", FUClass.MEMORY, OpKind.STORE, 1)
    STORE_B = ("STORE_B", FUClass.MEMORY, OpKind.STORE, 1)
    STORE_T = ("STORE_T", FUClass.MEMORY, OpKind.STORE, 1)

    # --- control flow (CRAY-1 style: branches test a register) ------
    BR_ZERO = ("BR_ZERO", FUClass.BRANCH, OpKind.BRANCH, 1)   # JAZ / JSZ
    BR_NONZERO = ("BR_NONZERO", FUClass.BRANCH, OpKind.BRANCH, 1)  # JAN
    BR_PLUS = ("BR_PLUS", FUClass.BRANCH, OpKind.BRANCH, 1)   # JAP: >= 0
    BR_MINUS = ("BR_MINUS", FUClass.BRANCH, OpKind.BRANCH, 1)  # JAM: < 0
    JMP = ("JMP", FUClass.BRANCH, OpKind.JUMP, 0)

    # --- miscellaneous ------------------------------------------------
    NOP = ("NOP", FUClass.CONTROL, OpKind.NOP, 0)
    HALT = ("HALT", FUClass.CONTROL, OpKind.HALT, 0)

    def __init__(self, mnemonic: str, fu: FUClass, kind: OpKind,
                 n_srcs: int) -> None:
        self.mnemonic = mnemonic
        self.fu = fu
        self.kind = kind
        self.n_srcs = n_srcs
        # -- structural predicates (plain attributes, fixed per opcode) --
        self.is_load = kind is OpKind.LOAD
        self.is_store = kind is OpKind.STORE
        self.is_memory = kind in (OpKind.LOAD, OpKind.STORE)
        #: True for conditional branches (not unconditional jumps).
        self.is_branch = kind is OpKind.BRANCH
        self.is_control_flow = kind in (OpKind.BRANCH, OpKind.JUMP)
        #: True if the instruction writes a destination register.
        self.has_dest = kind in (OpKind.ALU, OpKind.IMMEDIATE, OpKind.LOAD)

    @property
    def uses_immediate(self) -> bool:
        return self in _IMMEDIATE_OPS or self.is_memory

    @property
    def default_latency(self) -> int:
        return DEFAULT_LATENCY[self.fu]

    @classmethod
    def parse(cls, mnemonic: str) -> "Opcode":
        """Look up an opcode by its assembly mnemonic."""
        try:
            return _BY_MNEMONIC[mnemonic.strip().upper()]
        except KeyError as exc:
            raise ValueError(f"unknown opcode: {mnemonic!r}") from exc


_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}

_IMMEDIATE_OPS = frozenset(
    {Opcode.A_IMM, Opcode.S_IMM, Opcode.A_ADDI, Opcode.S_SHL, Opcode.S_SHR}
)
