"""Binary encoding of the model ISA (CRAY-style 16-bit parcels).

The CRAY-1 packs instructions into 16-bit *parcels*; simple register
operations occupy one parcel and instructions carrying a large constant
or address occupy two (the paper notes that its model machine issues
either kind in a single cycle).  This module gives the model ISA a
concrete parcel-level encoding so programs can be stored, hashed and
round-tripped, and so the instruction-buffer model in
:mod:`repro.machine.fetch` has real instruction sizes to work with.

Format (parcel 0)::

    15        9 8      6 5      3 2      0
    +----------+--------+--------+--------+
    |  opcode  |  dest  |  src1  |  src2  |
    +----------+--------+--------+--------+

* ``opcode`` -- 7 bits, the :class:`~repro.isa.opcodes.Opcode` ordinal;
* register fields are 3-bit indices into the bank implied by the
  opcode; B/T indices (6 bits) borrow the low bits of neighbouring
  fields as described below.

Instructions with an immediate, a memory offset, or a branch target
carry a second 16-bit parcel holding the 16-bit two's-complement value
(floating immediates are indexed into a per-program literal pool, as a
real assembler would place them in memory).

The encoder/decoder pair is exact: ``decode(encode(p)) == p`` for every
encodable program, which the property tests enforce.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from .instruction import Instruction
from .opcodes import OpKind, Opcode
from .program import Program, build_program
from .registers import RegBank, Register

#: Parcel width in bits.
PARCEL_BITS = 16

_OPCODES = list(Opcode)
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}

#: Opcode ordinals must fit the 7-bit field.
assert len(_OPCODES) < 128


class EncodingError(ValueError):
    """Instruction or program cannot be encoded/decoded."""


def parcel_count(inst: Instruction) -> int:
    """Static size of an instruction in 16-bit parcels (1 or 2)."""
    if inst.opcode.kind in (
        OpKind.IMMEDIATE, OpKind.LOAD, OpKind.STORE,
        OpKind.BRANCH, OpKind.JUMP,
    ):
        return 2
    if inst.opcode is Opcode.MOV:
        return 2  # carries explicit bank codes in its second parcel
    if inst.imm is not None:
        return 2
    return 1


def _pack_reg(reg: Optional[Register]) -> Tuple[int, int]:
    """Return (3-bit low field, 3-bit high extension) for a register.

    A/S indices fit 3 bits directly; B/T indices (0..63) split into a
    low 3-bit field and a 3-bit extension carried in an otherwise unused
    neighbouring field.
    """
    if reg is None:
        return 0, 0
    return reg.index & 0b111, (reg.index >> 3) & 0b111


class _LiteralPool:
    """Deduplicated constants that do not fit a 16-bit immediate."""

    def __init__(self) -> None:
        self.values: List[object] = []
        self._index: Dict[object, int] = {}

    def intern(self, value) -> int:
        key = (type(value).__name__, value)
        if key not in self._index:
            self._index[key] = len(self.values)
            self.values.append(value)
        return self._index[key]


def _fits_imm16(value) -> bool:
    return isinstance(value, int) and -(1 << 15) <= value < (1 << 15)


# Encoded operand-register banks are implied by the opcode for A_/S_/F_
# ops; MOV and the loads/stores need explicit bank bits, carried in a
# 4-bit bank descriptor packed into the first parcel's unused space for
# those opcodes.  To keep the format simple and fully reversible we
# instead encode MOV's banks in the *second* parcel (MOV is therefore
# always 2 parcels) -- a modest size cost the CRAY also pays for some
# transmit forms.

_BANK_CODES = {RegBank.A: 0, RegBank.S: 1, RegBank.B: 2, RegBank.T: 3}
_BANKS_BY_CODE = {code: bank for bank, code in _BANK_CODES.items()}


def instruction_parcels(inst: Instruction,
                        pool: _LiteralPool) -> List[int]:
    """Encode one instruction into 1 or 2 parcel values."""
    opcode = inst.opcode
    op_bits = _OPCODE_INDEX[opcode] << 9

    dest_lo, dest_hi = _pack_reg(inst.dest)
    srcs = list(inst.srcs)
    src1 = srcs[0] if srcs else None
    src2 = srcs[1] if len(srcs) > 1 else None

    if opcode is Opcode.MOV:
        # parcel 0: opcode | dest-low | src-low | bank codes
        # parcel 1: dest-high(3) src-high(3) destbank(2) srcbank(2)
        s_lo, s_hi = _pack_reg(src1)
        word0 = op_bits | (dest_lo << 6) | (s_lo << 3)
        word1 = (
            (dest_hi << 13) | (s_hi << 10)
            | (_BANK_CODES[inst.dest.bank] << 8)
            | (_BANK_CODES[src1.bank] << 6)
        )
        return [word0, word1]

    if opcode.kind in (OpKind.LOAD, OpKind.STORE):
        # register field carries dest (load) or datum (store); the base
        # A register sits in src2's slot; parcel 1 is the offset.
        data_reg = inst.dest if opcode.kind is OpKind.LOAD else src1
        d_lo, d_hi = _pack_reg(data_reg)
        base_lo, _ = _pack_reg(inst.base)
        word0 = op_bits | (d_lo << 6) | (d_hi << 3) | base_lo
        if not _fits_imm16(inst.imm):
            raise EncodingError(f"memory offset {inst.imm!r} too large")
        return [word0, inst.imm & 0xFFFF]

    if opcode.kind is OpKind.BRANCH:
        s_lo, _ = _pack_reg(src1)
        bank_bit = 1 if src1.bank is RegBank.S else 0
        word0 = op_bits | (s_lo << 6) | bank_bit
        return [word0, int(inst.target) & 0xFFFF]

    if opcode.kind is OpKind.JUMP:
        return [op_bits, int(inst.target) & 0xFFFF]

    if opcode.kind is OpKind.IMMEDIATE:
        word0 = op_bits | (dest_lo << 6) | (dest_hi << 3)
        if _fits_imm16(inst.imm):
            return [word0, inst.imm & 0xFFFF]
        # constant pool reference, flagged by the low bit of parcel 0
        word0 |= 1
        return [word0, pool.intern(inst.imm) & 0xFFFF]

    # plain ALU forms
    s1_lo, _ = _pack_reg(src1)
    s2_lo, _ = _pack_reg(src2)
    word0 = op_bits | (dest_lo << 6) | (s1_lo << 3) | s2_lo
    if inst.imm is not None:  # A_ADDI and shifts
        if not _fits_imm16(inst.imm):
            raise EncodingError(f"immediate {inst.imm!r} too large")
        return [word0, inst.imm & 0xFFFF]
    return [word0]


def _reg_for(opcode: Opcode, field: str, index: int) -> Register:
    """Resolve a register index to a bank implied by the opcode."""
    mnemonic = opcode.mnemonic
    if mnemonic.startswith("A_") or mnemonic.startswith("LOAD_A") \
            or mnemonic.startswith("STORE_A") or opcode.kind is OpKind.BRANCH:
        bank = RegBank.A
    else:
        bank = RegBank.S
    if mnemonic.endswith("_B"):
        bank = RegBank.B
    if mnemonic.endswith("_T"):
        bank = RegBank.T
    return Register(bank, index)


def _signed16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value >= 0x8000 else value


def decode_instruction(
    parcels: Sequence[int], offset: int, pool_values: Sequence[object],
) -> Tuple[Instruction, int]:
    """Decode one instruction at ``offset``; returns (inst, parcels used)."""
    word0 = parcels[offset]
    opcode = _OPCODES[(word0 >> 9) & 0x7F]

    def second() -> int:
        return parcels[offset + 1]

    if opcode is Opcode.MOV:
        word1 = second()
        dest_bank = _BANKS_BY_CODE[(word1 >> 8) & 0b11]
        src_bank = _BANKS_BY_CODE[(word1 >> 6) & 0b11]
        dest = Register(
            dest_bank, ((word1 >> 13) << 3) | ((word0 >> 6) & 0b111)
        )
        src = Register(
            src_bank, (((word1 >> 10) & 0b111) << 3) | ((word0 >> 3) & 0b111)
        )
        return Instruction(opcode, dest=dest, srcs=(src,)), 2

    if opcode.kind in (OpKind.LOAD, OpKind.STORE):
        index = ((word0 >> 3) & 0b111) << 3 | ((word0 >> 6) & 0b111)
        bank = {
            "A": RegBank.A, "S": RegBank.S, "B": RegBank.B, "T": RegBank.T,
        }[opcode.mnemonic.rsplit("_", 1)[1]]
        data_reg = Register(bank, index)
        base = Register(RegBank.A, word0 & 0b111)
        imm = _signed16(second())
        if opcode.kind is OpKind.LOAD:
            return Instruction(opcode, dest=data_reg, base=base, imm=imm), 2
        return Instruction(opcode, srcs=(data_reg,), base=base, imm=imm), 2

    if opcode.kind is OpKind.BRANCH:
        bank = RegBank.S if word0 & 1 else RegBank.A
        reg = Register(bank, (word0 >> 6) & 0b111)
        return Instruction(opcode, srcs=(reg,), target=second()), 2

    if opcode.kind is OpKind.JUMP:
        return Instruction(opcode, target=second()), 2

    if opcode.kind is OpKind.IMMEDIATE:
        dest_idx = (((word0 >> 3) & 0b111) << 3) | ((word0 >> 6) & 0b111)
        dest = _reg_for(opcode, "dest", dest_idx & 0b111)
        if word0 & 1:
            return Instruction(
                opcode, dest=dest, imm=pool_values[second()]
            ), 2
        return Instruction(opcode, dest=dest, imm=_signed16(second())), 2

    if opcode.kind in (OpKind.NOP, OpKind.HALT):
        return Instruction(opcode), 1

    dest = _reg_for(opcode, "dest", (word0 >> 6) & 0b111)
    src1 = _reg_for(opcode, "src", (word0 >> 3) & 0b111)
    src2 = _reg_for(opcode, "src", word0 & 0b111)
    if opcode.n_srcs == 1:
        srcs: Tuple[Register, ...] = (src1,)
    else:
        srcs = (src1, src2)
    if opcode.uses_immediate:
        return Instruction(
            opcode, dest=dest, srcs=srcs, imm=_signed16(second())
        ), 2
    return Instruction(opcode, dest=dest, srcs=srcs), 1


MAGIC = b"RUU1"


def encode_program(program: Program) -> bytes:
    """Serialize a program to bytes (parcels + literal pool)."""
    pool = _LiteralPool()
    parcels: List[int] = []
    for inst in program:
        parcels.extend(instruction_parcels(inst, pool))
    blob = bytearray(MAGIC)
    blob += struct.pack("<II", len(parcels), len(pool.values))
    for parcel in parcels:
        blob += struct.pack("<H", parcel & 0xFFFF)
    for value in pool.values:
        if isinstance(value, float):
            blob += b"F" + struct.pack("<d", value)
        else:
            blob += b"I" + struct.pack("<q", int(value))
    return bytes(blob)


def decode_program(blob: bytes, name: str = "decoded") -> Program:
    """Deserialize a program produced by :func:`encode_program`."""
    if blob[:4] != MAGIC:
        raise EncodingError("bad magic")
    n_parcels, n_pool = struct.unpack_from("<II", blob, 4)
    offset = 12
    parcels = [
        struct.unpack_from("<H", blob, offset + 2 * i)[0]
        for i in range(n_parcels)
    ]
    offset += 2 * n_parcels
    pool_values: List[object] = []
    for _ in range(n_pool):
        kind = blob[offset:offset + 1]
        offset += 1
        if kind == b"F":
            pool_values.append(struct.unpack_from("<d", blob, offset)[0])
        else:
            pool_values.append(struct.unpack_from("<q", blob, offset)[0])
        offset += 8
    instructions: List[Instruction] = []
    cursor = 0
    while cursor < n_parcels:
        inst, used = decode_instruction(parcels, cursor, pool_values)
        instructions.append(inst)
        cursor += used
    return build_program(instructions, name=name)


def program_parcel_size(program: Program) -> int:
    """Total static code size in parcels."""
    return sum(parcel_count(inst) for inst in program)
