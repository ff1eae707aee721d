"""Instruction buffers (CRAY-1 style) for the fetch stage.

The paper assumes "all instruction references are serviced by the
instruction buffers" (§2.2) and notes this barely affects the results.
This module lets that assumption be *checked* rather than taken on
faith: the CRAY-1's four instruction buffers of 64 parcels each are
modelled with LRU replacement and a configurable miss penalty, using
the real parcel sizes from :mod:`repro.isa.encoding` (1 or 2 parcels
per instruction).

Attach to any engine before running::

    engine.fetch_unit = InstructionBuffers.for_program(program)

With the default CRAY-1 geometry every Livermore loop body fits in one
buffer, so after the cold miss the machine behaves exactly as the
paper's always-hit model -- the ablation benchmark quantifies this.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.encoding import parcel_count
from ..isa.program import Program

#: CRAY-1 geometry: 4 buffers x 64 parcels.
DEFAULT_BUFFERS = 4
DEFAULT_PARCELS_PER_BUFFER = 64
#: CRAY-1 instruction-fetch from memory takes ~14 CPs for a buffer fill.
DEFAULT_MISS_PENALTY = 14


class InstructionBuffers:
    """An LRU set of instruction buffers over the program's parcels."""

    def __init__(
        self,
        program: Program,
        n_buffers: int = DEFAULT_BUFFERS,
        parcels_per_buffer: int = DEFAULT_PARCELS_PER_BUFFER,
        miss_penalty: int = DEFAULT_MISS_PENALTY,
    ) -> None:
        if n_buffers < 1 or parcels_per_buffer < 2:
            raise ValueError("need >= 1 buffer of >= 2 parcels")
        self.n_buffers = n_buffers
        self.parcels_per_buffer = parcels_per_buffer
        self.miss_penalty = miss_penalty
        #: parcel address of each instruction (by pc)
        self._parcel_of: List[int] = []
        offset = 0
        for inst in program:
            self._parcel_of.append(offset)
            offset += parcel_count(inst)
        self.total_parcels = offset
        #: resident blocks: block number -> last-use stamp
        self._resident: Dict[int, int] = {}
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_program(cls, program: Program, **kwargs) -> "InstructionBuffers":
        return cls(program, **kwargs)

    def block_of(self, pc: int) -> int:
        """Which buffer-sized block holds instruction ``pc``?"""
        return self._parcel_of[pc] // self.parcels_per_buffer

    def access(self, pc: int, cycle: int) -> int:
        """Fetch the instruction at ``pc``; returns the delay in cycles
        (0 on a buffer hit, ``miss_penalty`` on a fill)."""
        block = self.block_of(pc)
        self._stamp += 1
        if block in self._resident:
            self._resident[block] = self._stamp
            self.hits += 1
            return 0
        self.misses += 1
        if len(self._resident) >= self.n_buffers:
            victim = min(self._resident, key=self._resident.get)
            del self._resident[victim]
        self._resident[block] = self._stamp
        return self.miss_penalty

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def fits_entirely(self) -> bool:
        """Does the whole program fit in the buffers at once?"""
        blocks = -(-self.total_parcels // self.parcels_per_buffer)
        return blocks <= self.n_buffers
