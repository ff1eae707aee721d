"""A fluent builder API for constructing programs in Python.

The Livermore-loop workloads and the hypothesis program generators both
construct programs through this builder; the text assembler
(:mod:`repro.isa.assembler`) is a thin layer over it.
"""

from __future__ import annotations

from typing import Dict, List, Union

from .instruction import Instruction
from .opcodes import Opcode
from .program import Program, ProgramError, build_program
from .registers import Register

Target = Union[str, int]


class ProgramBuilder:
    """Accumulates instructions and labels, then finalizes a Program.

    Example::

        pb = ProgramBuilder("countdown")
        pb.a_imm(A(0), 10)
        pb.label("loop")
        pb.a_addi(A(0), A(0), -1)
        pb.br_nonzero(A(0), "loop")
        program = pb.finish()
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}

    # -- structure ------------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        """Attach a label to the *next* emitted instruction."""
        if name in self._labels:
            raise ProgramError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def emit(self, instruction: Instruction) -> "ProgramBuilder":
        """Append an already-constructed instruction."""
        self._instructions.append(instruction)
        return self

    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._instructions)

    def finish(self) -> Program:
        """Resolve labels and return the immutable program."""
        return build_program(self._instructions, self._labels, self.name)

    # -- address arithmetic ----------------------------------------------

    def a_imm(self, dest: Register, imm: int) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.A_IMM, dest=dest, imm=imm))

    def a_add(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.A_ADD, dest=dest, srcs=(lhs, rhs)))

    def a_sub(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.A_SUB, dest=dest, srcs=(lhs, rhs)))

    def a_mul(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.A_MUL, dest=dest, srcs=(lhs, rhs)))

    def a_addi(self, dest: Register, src: Register,
               imm: int) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.A_ADDI, dest=dest, srcs=(src,), imm=imm)
        )

    # -- scalar arithmetic -------------------------------------------------

    def s_imm(self, dest: Register, imm) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.S_IMM, dest=dest, imm=imm))

    def s_add(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.S_ADD, dest=dest, srcs=(lhs, rhs)))

    def s_sub(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.S_SUB, dest=dest, srcs=(lhs, rhs)))

    def s_and(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.S_AND, dest=dest, srcs=(lhs, rhs)))

    def s_or(self, dest: Register, lhs: Register,
             rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.S_OR, dest=dest, srcs=(lhs, rhs)))

    def s_xor(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.S_XOR, dest=dest, srcs=(lhs, rhs)))

    def s_shl(self, dest: Register, src: Register,
              amount: int) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.S_SHL, dest=dest, srcs=(src,), imm=amount)
        )

    def s_shr(self, dest: Register, src: Register,
              amount: int) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.S_SHR, dest=dest, srcs=(src,), imm=amount)
        )

    # -- floating point ---------------------------------------------------

    def f_add(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.F_ADD, dest=dest, srcs=(lhs, rhs)))

    def f_sub(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.F_SUB, dest=dest, srcs=(lhs, rhs)))

    def f_mul(self, dest: Register, lhs: Register,
              rhs: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.F_MUL, dest=dest, srcs=(lhs, rhs)))

    def f_recip(self, dest: Register, src: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.F_RECIP, dest=dest, srcs=(src,)))

    # -- moves --------------------------------------------------------------

    def mov(self, dest: Register, src: Register) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.MOV, dest=dest, srcs=(src,)))

    # -- memory ---------------------------------------------------------------

    def load_a(self, dest: Register, base: Register,
               offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.LOAD_A, dest=dest, base=base, imm=offset)
        )

    def load_s(self, dest: Register, base: Register,
               offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.LOAD_S, dest=dest, base=base, imm=offset)
        )

    def load_b(self, dest: Register, base: Register,
               offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.LOAD_B, dest=dest, base=base, imm=offset)
        )

    def load_t(self, dest: Register, base: Register,
               offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.LOAD_T, dest=dest, base=base, imm=offset)
        )

    def store_a(self, src: Register, base: Register,
                offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.STORE_A, srcs=(src,), base=base, imm=offset)
        )

    def store_s(self, src: Register, base: Register,
                offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.STORE_S, srcs=(src,), base=base, imm=offset)
        )

    def store_b(self, src: Register, base: Register,
                offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.STORE_B, srcs=(src,), base=base, imm=offset)
        )

    def store_t(self, src: Register, base: Register,
                offset: int = 0) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.STORE_T, srcs=(src,), base=base, imm=offset)
        )

    # -- control flow ---------------------------------------------------------

    def br_zero(self, test: Register, target: Target) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.BR_ZERO, srcs=(test,), target=target)
        )

    def br_nonzero(self, test: Register, target: Target) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.BR_NONZERO, srcs=(test,), target=target)
        )

    def br_plus(self, test: Register, target: Target) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.BR_PLUS, srcs=(test,), target=target)
        )

    def br_minus(self, test: Register, target: Target) -> "ProgramBuilder":
        return self.emit(
            Instruction(Opcode.BR_MINUS, srcs=(test,), target=target)
        )

    def jmp(self, target: Target) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.JMP, target=target))

    def nop(self) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.NOP))

    def halt(self) -> "ProgramBuilder":
        return self.emit(Instruction(Opcode.HALT))
