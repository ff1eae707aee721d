"""Unit tests for the shared ISA value semantics."""

import pytest

from repro.isa import (
    A,
    ArithmeticFault,
    B,
    Instruction,
    Opcode,
    RegBank,
    S,
    T,
    branch_taken,
    coerce_for_bank,
    effective_address,
    evaluate,
    wrap_a,
    wrap_s_int,
)
from repro.isa.opcodes import OpKind
from repro.isa.semantics import ALU_OPERATIONS, _as_int, wrap_signed

_VALUE_KINDS = (OpKind.ALU, OpKind.IMMEDIATE)


class TestWrapping:
    @pytest.mark.parametrize("value,bits,expected", [
        (0, 8, 0),
        (127, 8, 127),
        (128, 8, -128),
        (255, 8, -1),
        (256, 8, 0),
        (-129, 8, 127),
    ])
    def test_wrap_signed(self, value, bits, expected):
        assert wrap_signed(value, bits) == expected

    def test_wrap_a_is_24_bit(self):
        assert wrap_a((1 << 23) - 1) == (1 << 23) - 1
        assert wrap_a(1 << 23) == -(1 << 23)
        assert wrap_a(1 << 24) == 0

    def test_wrap_s_int_is_64_bit(self):
        assert wrap_s_int((1 << 63) - 1) == (1 << 63) - 1
        assert wrap_s_int(1 << 63) == -(1 << 63)

    def test_wrap_idempotent(self):
        for value in (-100, 0, 99, 12345):
            assert wrap_a(wrap_a(value)) == wrap_a(value)


class TestEvaluate:
    @pytest.mark.parametrize("op,operands,imm,expected", [
        (Opcode.A_ADD, [3, 4], None, 7),
        (Opcode.A_SUB, [3, 4], None, -1),
        (Opcode.A_MUL, [3, 4], None, 12),
        (Opcode.A_ADDI, [10], -3, 7),
        (Opcode.A_IMM, [], 42, 42),
        (Opcode.S_IMM, [], 2.5, 2.5),
        (Opcode.S_ADD, [5, 9], None, 14),
        (Opcode.S_SUB, [5, 9], None, -4),
        (Opcode.S_AND, [0b1100, 0b1010], None, 0b1000),
        (Opcode.S_OR, [0b1100, 0b1010], None, 0b1110),
        (Opcode.S_XOR, [0b1100, 0b1010], None, 0b0110),
        (Opcode.S_SHL, [1], 4, 16),
        (Opcode.S_SHR, [16], 4, 1),
        (Opcode.F_ADD, [1.5, 2.25], None, 3.75),
        (Opcode.F_SUB, [1.5, 2.25], None, -0.75),
        (Opcode.F_MUL, [1.5, 2.0], None, 3.0),
        (Opcode.F_RECIP, [4.0], None, 0.25),
        (Opcode.MOV, [99], None, 99),
    ])
    def test_basic_results(self, op, operands, imm, expected):
        assert evaluate(op, operands, imm) == expected

    def test_recip_of_zero_faults(self):
        with pytest.raises(ArithmeticFault):
            evaluate(Opcode.F_RECIP, [0.0])

    def test_float_overflow_faults(self):
        with pytest.raises(ArithmeticFault):
            evaluate(Opcode.F_MUL, [1e308, 1e308])

    def test_integer_op_on_fraction_faults(self):
        with pytest.raises(ArithmeticFault):
            evaluate(Opcode.A_ADD, [1.5, 2])

    def test_integer_op_on_integral_float_ok(self):
        assert evaluate(Opcode.A_ADD, [2.0, 3]) == 5

    def test_shift_is_logical_on_64_bit_pattern(self):
        # -1 has all 64 bits set; shifting right by 60 leaves 0b1111.
        assert evaluate(Opcode.S_SHR, [-1], 60) == 0b1111

    def test_branch_has_no_alu_semantics(self):
        with pytest.raises(ValueError):
            evaluate(Opcode.BR_ZERO, [0])


class TestOperationTable:
    """``evaluate`` dispatches through one table entry per opcode."""

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.mnemonic)
    def test_every_opcode_is_covered_or_rejected(self, op):
        if op.kind in _VALUE_KINDS:
            assert op in ALU_OPERATIONS
        else:
            assert op not in ALU_OPERATIONS
            with pytest.raises(ValueError, match=f"^{op.mnemonic} has no"):
                evaluate(op, [0], 0)

    def test_table_holds_only_value_opcodes(self):
        assert all(op.kind in _VALUE_KINDS for op in ALU_OPERATIONS)


class TestCoercion:
    def test_a_bank_wraps_24_bit(self):
        assert coerce_for_bank(A(0), 1 << 24) == 0

    def test_b_bank_matches_a(self):
        assert coerce_for_bank(B(0), -1) == -1

    def test_s_bank_keeps_floats(self):
        assert coerce_for_bank(S(0), 2.75) == 2.75

    def test_t_bank_wraps_int(self):
        assert coerce_for_bank(T(0), (1 << 64) + 5) == 5

    def test_a_bank_rejects_fractions(self):
        with pytest.raises(ArithmeticFault):
            coerce_for_bank(A(0), 2.5)


class TestBranches:
    @pytest.mark.parametrize("op,value,expected", [
        (Opcode.BR_ZERO, 0, True),
        (Opcode.BR_ZERO, 1, False),
        (Opcode.BR_NONZERO, 0, False),
        (Opcode.BR_NONZERO, -3, True),
        (Opcode.BR_PLUS, 0, True),
        (Opcode.BR_PLUS, 5, True),
        (Opcode.BR_PLUS, -1, False),
        (Opcode.BR_MINUS, -1, True),
        (Opcode.BR_MINUS, 0, False),
    ])
    def test_conditions(self, op, value, expected):
        assert branch_taken(op, value) is expected

    def test_non_branch_rejected(self):
        with pytest.raises(ValueError):
            branch_taken(Opcode.A_ADD, 0)


class TestEffectiveAddress:
    def test_base_plus_offset(self):
        assert effective_address(100, 11) == 111
        assert effective_address(100, -1) == 99

    def test_wraps_to_a_width(self):
        assert effective_address((1 << 23) - 1, 1) == -(1 << 23)


def _outcome(function, *args):
    """``(type name, repr)`` of a result, or the fault's message."""
    try:
        result = function(*args)
    except ArithmeticFault as fault:
        return ("fault", str(fault))
    return (type(result).__name__, repr(result))


def _old_coerce(bank, value):
    """The four-call composition the decoded coercion replaces."""
    if bank in (RegBank.A, RegBank.B):
        return wrap_a(_as_int(value))
    if isinstance(value, float):
        return value
    return wrap_s_int(_as_int(value))


_COERCION_VALUES = [
    0, 1, -1,
    1 << 23, (1 << 23) - 1, (1 << 23) + 1,
    -(1 << 23), -(1 << 23) - 1, -(1 << 23) + 1,
    1 << 24, -(1 << 24), 1 << 63, -(1 << 63), 1 << 64, -(1 << 64),
    True, False,
    0.0, 3.0, -7.0, float(1 << 23), float(1 << 63), 2.5, -0.0, 1e300,
]


class TestDecodedCoercion:
    """``Instruction.coerce`` equals the composition it replaced."""

    @pytest.mark.parametrize("reg", [A(1), B(1), S(1), T(1)])
    @pytest.mark.parametrize("value", _COERCION_VALUES, ids=repr)
    def test_matches_the_old_composition(self, reg, value):
        inst = Instruction(Opcode.MOV, dest=reg, srcs=(S(2),))
        want = _outcome(_old_coerce, reg.bank, value)
        assert _outcome(inst.coerce, value) == want
        assert _outcome(coerce_for_bank, reg, value) == want

    @pytest.mark.parametrize("imm", [0, 5, -7, 1 << 23, 2.0])
    @pytest.mark.parametrize("base", _COERCION_VALUES, ids=repr)
    def test_effective_address_matches(self, base, imm):
        assert _outcome(effective_address, base, imm) == _outcome(
            lambda b, i: wrap_a(_as_int(b) + int(i)), base, imm)
