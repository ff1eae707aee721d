"""Register model for the CRAY-1-flavoured scalar ISA.

The model architecture (paper, section 2) has four register files:

* ``A`` -- 8 address registers (24-bit integers; loop counters, addresses)
* ``S`` -- 8 scalar registers (64-bit; integers and floating-point data)
* ``B`` -- 64 backup registers for A (transmit-only)
* ``T`` -- 64 backup registers for S (transmit-only)

for a total of 144 registers.  The size of the register file is the whole
motivation for the Tag Unit / RSTU / RUU line of designs: tagging every
register in Tomasulo's style would need 144 tag-matching units.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Tuple


class RegBank(enum.Enum):
    """The four register files of the model architecture."""

    A = "A"
    S = "S"
    B = "B"
    T = "T"

    @property
    def size(self) -> int:
        """Number of registers in this bank (8 for A/S, 64 for B/T)."""
        return _BANK_SIZES[self]


_BANK_SIZES = {RegBank.A: 8, RegBank.S: 8, RegBank.B: 64, RegBank.T: 64}

#: Total number of architectural registers (8 + 8 + 64 + 64).
TOTAL_REGISTERS = sum(bank.size for bank in RegBank)


class Register:
    """An architectural register: a bank plus an index within the bank.

    Registers are interned: ``Register(bank, index)`` always returns the
    same object, so equality and hashing are identity and ``flat_index``
    (the register id, 0..143) is a plain attribute.  Engines index their
    per-register state by that id and never key it by ``Register``.
    """

    __slots__ = ("bank", "index", "flat_index", "name")

    bank: RegBank
    index: int
    #: Index into a flat 0..143 register numbering (the register id).
    flat_index: int
    #: Assembly name, e.g. ``A0``, ``S7``, ``B63``.
    name: str

    def __new__(cls, bank: RegBank, index: int) -> "Register":
        try:
            return _INTERNED[bank, index]
        except (KeyError, TypeError):
            raise ValueError(
                f"register index {index} out of range for bank "
                f"{getattr(bank, 'value', bank)} "
                f"(size {getattr(bank, 'size', '?')})"
            ) from None

    @classmethod
    def _intern(cls, bank: RegBank, index: int, flat_index: int) -> "Register":
        reg = object.__new__(cls)
        for slot, value in (("bank", bank), ("index", index),
                            ("flat_index", flat_index),
                            ("name", f"{bank.value}{index}")):
            object.__setattr__(reg, slot, value)
        return reg

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Register is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Register is immutable")

    def __reduce__(self):
        # Unpickling (and copy/deepcopy) go back through the intern table.
        return (Register, (self.bank, self.index))

    def __lt__(self, other: "Register") -> bool:
        if not isinstance(other, Register):
            return NotImplemented
        return self.flat_index < other.flat_index

    def __repr__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> "Register":
        """Parse an assembly register name such as ``A3`` or ``T17``."""
        text = text.strip().upper()
        if len(text) < 2 or text[0] not in "ASBT":
            raise ValueError(f"not a register name: {text!r}")
        try:
            index = int(text[1:])
        except ValueError as exc:
            raise ValueError(f"not a register name: {text!r}") from exc
        return cls(RegBank(text[0]), index)


_BANK_OFFSETS = {RegBank.A: 0, RegBank.S: 8, RegBank.B: 16, RegBank.T: 80}

#: Every register, indexed by its id (``flat_index``).
REGISTERS: Tuple[Register, ...] = tuple(
    Register._intern(bank, index, _BANK_OFFSETS[bank] + index)
    for bank in RegBank
    for index in range(bank.size)
)
_INTERNED: Dict[Tuple[RegBank, int], Register] = {
    (reg.bank, reg.index): reg for reg in REGISTERS
}


def A(index: int) -> Register:
    """Address register ``A<index>``."""
    return Register(RegBank.A, index)


def S(index: int) -> Register:
    """Scalar register ``S<index>``."""
    return Register(RegBank.S, index)


def B(index: int) -> Register:
    """Backup address register ``B<index>``."""
    return Register(RegBank.B, index)


def T(index: int) -> Register:
    """Backup scalar register ``T<index>``."""
    return Register(RegBank.T, index)


def all_registers() -> Iterator[Register]:
    """Iterate over every architectural register (144 of them)."""
    return iter(REGISTERS)


class RegisterFile:
    """Architectural register values for all four banks.

    A registers hold 24-bit integers and S registers hold 64-bit values
    (ints or floats); B mirrors A's width and T mirrors S's.  All values
    are plain Python numbers; width discipline is applied by the ISA
    semantics (:mod:`repro.isa.semantics`), not by storage.

    ``values`` is the storage itself: a list indexed by register id
    (``Register.flat_index``), which the engines read and write directly.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[object] = [0] * TOTAL_REGISTERS

    def read(self, reg: Register):
        """Return the current value of ``reg``."""
        return self.values[reg.flat_index]

    def write(self, reg: Register, value) -> None:
        """Set the value of ``reg``."""
        self.values[reg.flat_index] = value

    def copy(self) -> "RegisterFile":
        """Return an independent snapshot of this register file."""
        clone = RegisterFile.__new__(RegisterFile)
        clone.values = list(self.values)
        return clone

    def snapshot(self) -> Dict[str, object]:
        """Return ``{name: value}`` for every register (for comparisons)."""
        return {reg.name: value for reg, value in zip(REGISTERS, self.values)}

    def nonzero(self) -> Dict[str, object]:
        """Return ``{name: value}`` restricted to non-zero registers."""
        return {
            reg.name: value
            for reg, value in zip(REGISTERS, self.values) if value
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self.values == other.values

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def diff(self, other: "RegisterFile") -> Dict[str, Tuple[object, object]]:
        """Return ``{name: (self_value, other_value)}`` where they differ."""
        return {
            reg.name: (mine, theirs)
            for reg, mine, theirs in zip(REGISTERS, self.values, other.values)
            if mine != theirs
        }
