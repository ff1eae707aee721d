"""Tests for the instruction-buffer fetch model."""

import pytest

from repro.core import RUUEngine
from repro.isa import assemble
from repro.issue import SimpleEngine
from repro.machine import MachineConfig, StallReason
from repro.machine.fetch import InstructionBuffers
from repro.trace import reference_state
from repro.workloads import all_loops

LOOP = """
    A_IMM A0, 10
loop:
    A_ADDI A0, A0, -1
    BR_NONZERO A0, loop
    HALT
"""


class TestBufferModel:
    def test_parcel_layout(self):
        program = assemble("NOP\nA_IMM A1, 1\nNOP\nHALT")
        buffers = InstructionBuffers(program, parcels_per_buffer=4)
        # parcels: NOP=1, A_IMM=2, NOP=1, HALT=1 -> offsets 0,1,3,4
        assert buffers.block_of(0) == 0
        assert buffers.block_of(2) == 0
        assert buffers.block_of(3) == 1

    def test_cold_miss_then_hits(self):
        program = assemble(LOOP)
        buffers = InstructionBuffers(program)
        assert buffers.access(0, 0) == buffers.miss_penalty
        assert buffers.access(1, 20) == 0
        assert buffers.access(2, 21) == 0
        assert buffers.misses == 1

    def test_lru_replacement(self):
        program = assemble("\n".join(["NOP"] * 8) + "\nHALT")
        buffers = InstructionBuffers(
            program, n_buffers=2, parcels_per_buffer=2
        )
        buffers.access(0, 0)   # block 0
        buffers.access(2, 1)   # block 1
        buffers.access(4, 2)   # block 2 evicts block 0 (LRU)
        assert buffers.access(2, 3) == 0       # block 1 still resident
        assert buffers.access(0, 4) > 0        # block 0 was evicted

    def test_geometry_validation(self):
        program = assemble("HALT")
        with pytest.raises(ValueError):
            InstructionBuffers(program, n_buffers=0)

    def test_hit_rate(self):
        program = assemble(LOOP)
        buffers = InstructionBuffers(program)
        for pc in (0, 1, 2, 1, 2, 1, 2):
            buffers.access(pc, 0)
        assert buffers.hit_rate == pytest.approx(6 / 7)


class TestEngineIntegration:
    def test_cold_miss_stalls_decode(self):
        program = assemble(LOOP)
        engine = SimpleEngine(program, MachineConfig())
        engine.fetch_unit = InstructionBuffers(program)
        result = engine.run()
        assert result.stalls[StallReason.FETCH_MISS] >= 1
        assert engine.fetch_unit.misses == 1  # loop fits one buffer

    def test_results_unchanged_with_buffers(self):
        program = assemble(LOOP)
        golden = reference_state(program)
        engine = RUUEngine(program, MachineConfig(window_size=8))
        engine.fetch_unit = InstructionBuffers(program)
        result = engine.run()
        assert engine.regs == golden.regs
        assert result.instructions == golden.executed

    def test_cost_is_just_the_cold_fills(self):
        program = assemble(LOOP)
        plain = SimpleEngine(program, MachineConfig()).run()
        engine = SimpleEngine(program, MachineConfig())
        engine.fetch_unit = InstructionBuffers(program)
        buffered = engine.run()
        fills = engine.fetch_unit.misses
        assert buffered.cycles == plain.cycles + \
            fills * engine.fetch_unit.miss_penalty

    def test_paper_assumption_holds_for_livermore(self):
        """Every Livermore loop's code fits the CRAY-1 buffers, so the
        always-hit assumption (§2.2) costs nothing but cold fills."""
        for workload in all_loops():
            buffers = InstructionBuffers(workload.program)
            engine = SimpleEngine(
                workload.program, MachineConfig(),
                memory=workload.make_memory(),
            )
            engine.fetch_unit = buffers
            engine.run()
            # only cold fills: the code is resident for the whole run
            assert buffers.misses <= 3, workload.name
            assert buffers.hit_rate > 0.995, workload.name

    def test_thrashing_program_pays(self):
        # A long straight-line body inside a loop, too big for tiny
        # buffers: every iteration re-fills.
        body = "\n".join(["A_ADDI A1, A1, 1"] * 40)
        source = f"""
            A_IMM A0, 5
        loop:
            {body}
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """
        program = assemble(source)
        engine = SimpleEngine(program, MachineConfig())
        engine.fetch_unit = InstructionBuffers(
            program, n_buffers=1, parcels_per_buffer=16
        )
        engine.run()
        assert engine.fetch_unit.misses > 10
