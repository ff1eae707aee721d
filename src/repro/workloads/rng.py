"""A pure-Python ``numpy.random.default_rng(seed)``, bit for bit.

The workloads' input data was first drawn with NumPy's default
generator: PCG64 (XSL-RR 128/64) seeded through ``SeedSequence``.  This
module reproduces that stream, and the two ``Generator`` methods the
workloads call, without importing NumPy.  NumPy keeps the raw bit
streams stable across releases but not the algorithms behind
``uniform`` and ``integers`` (NEP 19), so carrying the generator here
also pins the data, and every result derived from it, to this file.

``tests/test_rng.py`` checks it draw for draw against NumPy where NumPy
is installed.
"""

from __future__ import annotations

from typing import List

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_2_TO_MINUS_53 = 1.0 / 9007199254740992.0

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state32 = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state32.append(value ^ (value >> 16))
    return [state32[i] | state32[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """``numpy.random.default_rng(seed)`` for a non-negative int seed,
    with the two ``Generator`` methods the workloads use."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        words = _seed_words(seed)
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (words[0] << 64 | words[1])) & _MASK128
        self._next64()
        #: the high half of a 64-bit draw, kept for the next 32-bit one
        self._half = None

    def _next64(self) -> int:
        state = self._state = (
            self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        value = (state >> 64) ^ (state & _MASK64)
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def uniform(self, low: float, high: float, size: int) -> List[float]:
        """``size`` floats in [low, high), each from the top 53 bits of
        one 64-bit draw."""
        span = high - low
        return [low + span * ((self._next64() >> 11) * _2_TO_MINUS_53)
                for _ in range(size)]

    def integers(self, low: int, high: int, size: int) -> List[int]:
        """``size`` ints in [low, high), by Lemire's rejection method."""
        rng = high - 1 - low
        if not 0 <= rng <= _MASK32:
            raise ValueError("integers supports ranges of 1 to 2**32")
        if rng == 0:
            return [low] * size   # NumPy draws nothing for one value
        excl = rng + 1
        threshold = (1 << 32) % excl
        out = []
        for _ in range(size):
            product = self._next32() * excl
            while product & _MASK32 < threshold:
                product = self._next32() * excl
            out.append(low + (product >> 32))
        return out
