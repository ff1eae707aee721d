"""Pure value semantics of the model ISA.

Every engine (the golden functional executor and all timing simulators)
computes results through these functions, so architectural equivalence
between engines is a property of the *issue logic*, not of duplicated
arithmetic code.

Width discipline follows the CRAY-1: A-register results wrap to 24-bit
two's complement, S-register integer results wrap to 64-bit two's
complement, floating results are IEEE doubles.  Arithmetic faults
(reciprocal of zero, float overflow to infinity) raise
:class:`ArithmeticFault` -- the timing engines convert these into the
paper's "instruction-generated traps".
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

from .opcodes import Opcode
from .registers import RegBank, Register

A_BITS = 24
S_BITS = 64


class ArithmeticFault(Exception):
    """An instruction-generated arithmetic trap (paper, section 1)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def wrap_signed(value: int, bits: int) -> int:
    """Wrap an integer to ``bits``-bit two's complement."""
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def wrap_a(value: int) -> int:
    """Wrap to the 24-bit A-register width."""
    return wrap_signed(int(value), A_BITS)


def wrap_s_int(value: int) -> int:
    """Wrap to the 64-bit S-register integer width."""
    return wrap_signed(int(value), S_BITS)


def _as_int(value) -> int:
    """Coerce an operand to an integer for logical/integer ops."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ArithmeticFault(f"integer operation on non-integer value {value!r}")


def _as_float(value) -> float:
    return float(value)


_A_MASK = (1 << A_BITS) - 1
_A_SIGN = 1 << (A_BITS - 1)


def coerce_a(value) -> int:
    """The A and B banks' width discipline: an integer wrapped to 24
    bits.  An exact ``int`` skips the conversions."""
    if type(value) is not int:
        value = int(_as_int(value))
    value &= _A_MASK
    if value >= _A_SIGN:
        value -= 1 << A_BITS
    return value


def coerce_s(value):
    """The S and T banks' width discipline: a float passes through, an
    integer wraps to 64 bits."""
    if isinstance(value, float):
        return value
    return wrap_s_int(_as_int(value))


def bank_coercion(bank: RegBank) -> Callable[[object], object]:
    """The width discipline of register bank ``bank``."""
    return coerce_a if bank in (RegBank.A, RegBank.B) else coerce_s


def coerce_for_bank(reg: Register, value):
    """Apply the destination register file's width discipline."""
    return bank_coercion(reg.bank)(value)


def evaluate(opcode: Opcode, operands: Sequence, imm=None):
    """Compute the raw result of an ALU/immediate opcode.

    ``operands`` are the source register values in order.  The result is
    *not* yet width-coerced; callers pass it through
    :func:`coerce_for_bank` with the destination register (this keeps MOV
    between banks well-defined).
    """
    operation = ALU_OPERATIONS.get(opcode)
    if operation is None:
        raise ValueError(f"{opcode.mnemonic} has no ALU semantics")
    return operation(operands, imm)


def _shift(value, amount: int):
    """Logical shift on the 64-bit pattern (positive = left)."""
    pattern = _as_int(value) & ((1 << S_BITS) - 1)
    if amount >= 0:
        pattern = (pattern << amount) & ((1 << S_BITS) - 1)
    else:
        pattern >>= -amount
    return wrap_s_int(pattern)


def _check_float(value: float) -> float:
    if math.isinf(value) or math.isnan(value):
        raise ArithmeticFault(f"floating-point range error ({value})")
    return value


def _recip(operands, imm):
    denom = _as_float(operands[0])
    if denom == 0.0:
        raise ArithmeticFault("reciprocal of zero")
    return _check_float(1.0 / denom)


def _int_add(operands, imm):
    return _as_int(operands[0]) + _as_int(operands[1])


def _int_sub(operands, imm):
    return _as_int(operands[0]) - _as_int(operands[1])


def _immediate(operands, imm):
    return imm


#: ``(operands, imm) -> raw result`` for every ALU and immediate opcode;
#: :func:`evaluate` looks the opcode up here.
ALU_OPERATIONS: Dict[Opcode, Callable[[Sequence, object], object]] = {
    Opcode.A_ADD: _int_add,
    Opcode.S_ADD: _int_add,
    Opcode.A_SUB: _int_sub,
    Opcode.S_SUB: _int_sub,
    Opcode.A_MUL: lambda ops, imm: _as_int(ops[0]) * _as_int(ops[1]),
    Opcode.A_ADDI: lambda ops, imm: _as_int(ops[0]) + int(imm),
    Opcode.A_IMM: _immediate,
    Opcode.S_IMM: _immediate,
    Opcode.S_AND: lambda ops, imm: _as_int(ops[0]) & _as_int(ops[1]),
    Opcode.S_OR: lambda ops, imm: _as_int(ops[0]) | _as_int(ops[1]),
    Opcode.S_XOR: lambda ops, imm: _as_int(ops[0]) ^ _as_int(ops[1]),
    Opcode.S_SHL: lambda ops, imm: _shift(ops[0], int(imm)),
    Opcode.S_SHR: lambda ops, imm: _shift(ops[0], -int(imm)),
    Opcode.F_ADD: lambda ops, imm: _check_float(
        _as_float(ops[0]) + _as_float(ops[1])),
    Opcode.F_SUB: lambda ops, imm: _check_float(
        _as_float(ops[0]) - _as_float(ops[1])),
    Opcode.F_MUL: lambda ops, imm: _check_float(
        _as_float(ops[0]) * _as_float(ops[1])),
    Opcode.F_RECIP: _recip,
    Opcode.MOV: lambda ops, imm: ops[0],
}


def branch_taken(opcode: Opcode, value) -> bool:
    """Evaluate a conditional branch's condition on the tested value."""
    if opcode is Opcode.BR_ZERO:
        return value == 0
    if opcode is Opcode.BR_NONZERO:
        return value != 0
    if opcode is Opcode.BR_PLUS:
        return value >= 0
    if opcode is Opcode.BR_MINUS:
        return value < 0
    raise ValueError(f"{opcode.mnemonic} is not a conditional branch")


def effective_address(base_value, imm) -> int:
    """Compute a memory address (word-addressed, wrapped to A width)."""
    return coerce_a(_as_int(base_value) + int(imm))
