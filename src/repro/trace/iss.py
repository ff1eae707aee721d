"""The functional executor (instruction-set simulator).

This is the golden architectural model: it executes programs of the model
ISA with no timing, in strict program order.  It plays the role of the
CRAY-1 simulator of Pang & Smith [15] in the paper's toolchain -- the
trace generator -- and doubles as the reference that every timing engine
must agree with:

* final register/memory state (architectural equivalence tests), and
* any prefix state (precise-interrupt tests: the state an interrupt at
  dynamic instruction *k* must expose is exactly ``run_prefix(k)``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import OpKind
from ..isa.program import Program
from ..isa.registers import RegisterFile
from ..isa.semantics import branch_taken, coerce_for_bank, effective_address
from ..machine.memory import Memory
from .trace import Trace, TraceEntry


class ExecutionLimitExceeded(RuntimeError):
    """The functional executor hit its dynamic instruction limit."""


class FunctionalExecutor:
    """Executes a program architecturally, producing a dynamic trace."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        registers: Optional[RegisterFile] = None,
        fault_checks: bool = False,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.regs = registers if registers is not None else RegisterFile()
        self.fault_checks = fault_checks
        self.pc = 0
        self.executed = 0
        self.halted = False
        self.trace = Trace(program.name)

    # ------------------------------------------------------------------

    def step(self) -> Optional[TraceEntry]:
        """Execute one instruction; returns its trace entry (None at HALT)."""
        if self.halted:
            return None
        inst = self.program[self.pc]
        if inst.is_halt:
            self.halted = True
            return None
        seq = self.executed
        taken, address = self._execute(inst)
        entry = TraceEntry(
            seq=seq, pc=inst.pc, inst=inst, taken=taken, address=address
        )
        self.trace.append(entry)
        self.executed += 1
        return entry

    def run(self, max_instructions: int = 10_000_000) -> Trace:
        """Run to HALT; returns the dynamic trace."""
        while not self.halted:
            if self.executed >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {max_instructions} "
                    f"instructions at pc {self.pc}"
                )
            self.step()
        return self.trace

    def run_prefix(self, count: int) -> "FunctionalExecutor":
        """Execute exactly the first ``count`` dynamic instructions.

        Used by the precise-interrupt tests: the state after the prefix is
        the state a precise interrupt at dynamic instruction ``count``
        must expose.
        """
        while not self.halted and self.executed < count:
            self.step()
        return self

    # ------------------------------------------------------------------

    def _execute(
        self, inst: Instruction,
    ) -> Tuple[Optional[bool], Optional[int]]:
        """Apply one instruction's semantics; returns (taken, address)."""
        opcode = inst.opcode
        kind = opcode.kind
        if kind is OpKind.BRANCH:
            value = self.regs.read(inst.srcs[0])
            taken = branch_taken(opcode, value)
            self.pc = inst.target if taken else inst.pc + 1
            return taken, None
        if kind is OpKind.JUMP:
            self.pc = inst.target
            return True, None
        if kind is OpKind.NOP:
            self.pc = inst.pc + 1
            return None, None
        if kind is OpKind.LOAD:
            address = effective_address(self.regs.read(inst.base), inst.imm)
            value = self.memory.read(address) if self.fault_checks \
                else self.memory.peek(address)
            self.regs.write(inst.dest, coerce_for_bank(inst.dest, value))
            self.pc = inst.pc + 1
            return None, address
        if kind is OpKind.STORE:
            address = effective_address(self.regs.read(inst.base), inst.imm)
            value = self.regs.read(inst.srcs[0])
            if self.fault_checks:
                self.memory.write(address, value)
            else:
                self.memory.poke(address, value)
            self.pc = inst.pc + 1
            return None, address
        # ALU / immediate
        operands = [self.regs.read(reg) for reg in inst.srcs]
        raw = inst.operation(operands, inst.imm)
        self.regs.write(inst.dest, coerce_for_bank(inst.dest, raw))
        self.pc = inst.pc + 1
        return None, None


def reference_state(
    program: Program,
    memory: Optional[Memory] = None,
    max_instructions: int = 10_000_000,
) -> FunctionalExecutor:
    """Run ``program`` to completion on a copy of ``memory``.

    Returns the finished executor (registers, memory, trace).  The input
    memory is never mutated.
    """
    executor = FunctionalExecutor(
        program, memory.copy() if memory is not None else Memory()
    )
    executor.run(max_instructions)
    return executor


def prefix_state(
    program: Program,
    count: int,
    memory: Optional[Memory] = None,
) -> FunctionalExecutor:
    """Architectural state after exactly ``count`` dynamic instructions."""
    executor = FunctionalExecutor(
        program, memory.copy() if memory is not None else Memory()
    )
    executor.run_prefix(count)
    return executor
