"""Unit tests for the load registers (memory dependency unit)."""

import pytest

from repro.machine import SimulationError
from repro.memdep import FROM_MEMORY, MemoryDependencyUnit


@pytest.fixture
def mdu():
    return MemoryDependencyUnit(capacity=4)


class TestCapacity:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            MemoryDependencyUnit(0)

    def test_blocks_when_full(self, mdu):
        for seq in range(4):
            assert mdu.can_accept()
            mdu.add(seq, is_store=False)
        assert not mdu.can_accept()

    def test_finish_frees_a_register(self, mdu):
        for seq in range(4):
            mdu.add(seq, is_store=False)
            mdu.resolve(seq, 100 + seq)
        mdu.finish(0)
        assert mdu.can_accept()
        assert mdu.in_flight() == 3


class TestProgramOrderRules:
    def test_adds_must_be_ordered(self, mdu):
        mdu.add(5, is_store=False)
        with pytest.raises(SimulationError):
            mdu.add(3, is_store=False)

    def test_resolution_in_order_only(self, mdu):
        mdu.add(0, is_store=True)
        mdu.add(1, is_store=False)
        with pytest.raises(SimulationError):
            mdu.resolve(1, 200)

    def test_oldest_unresolved_tracks(self, mdu):
        mdu.add(0, is_store=False)
        mdu.add(1, is_store=False)
        assert mdu.oldest_unresolved() == 0
        mdu.resolve(0, 10)
        assert mdu.oldest_unresolved() == 1
        mdu.resolve(1, 11)
        assert mdu.oldest_unresolved() is None

    def test_double_resolution_rejected(self, mdu):
        mdu.add(0, is_store=False)
        mdu.resolve(0, 10)
        with pytest.raises(SimulationError):
            mdu.resolve(0, 10)


class TestBinding:
    def test_load_with_no_match_reads_memory(self, mdu):
        mdu.add(0, is_store=False)
        assert mdu.resolve(0, 100) is FROM_MEMORY
        assert mdu.load_source_ready(0)

    def test_load_forwards_from_pending_store(self, mdu):
        mdu.add(0, is_store=True)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=False)
        assert mdu.resolve(1, 100) == 0
        assert not mdu.load_source_ready(1)
        mdu.publish(0, 42.0)
        assert mdu.load_source_ready(1)
        assert mdu.forwarded_value(1) == 42.0
        assert mdu.forwards == 1

    def test_load_merges_with_pending_load(self, mdu):
        mdu.add(0, is_store=False)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=False)
        assert mdu.resolve(1, 100) == 0

    def test_load_binds_to_youngest_older_producer(self, mdu):
        mdu.add(0, is_store=True)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=True)
        mdu.resolve(1, 100)
        mdu.add(2, is_store=False)
        assert mdu.resolve(2, 100) == 1

    def test_different_addresses_do_not_bind(self, mdu):
        mdu.add(0, is_store=True)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=False)
        assert mdu.resolve(1, 101) is FROM_MEMORY

    def test_finished_store_is_not_a_forward_source(self, mdu):
        mdu.add(0, is_store=True)
        mdu.resolve(0, 100)
        mdu.mark_dispatched(0)
        mdu.finish(0)
        mdu.add(1, is_store=False)
        assert mdu.resolve(1, 100) is FROM_MEMORY

    def test_forwarded_value_on_memory_load_rejected(self, mdu):
        mdu.add(0, is_store=False)
        mdu.resolve(0, 10)
        with pytest.raises(SimulationError):
            mdu.forwarded_value(0)


class TestStoreOrdering:
    def test_store_waits_for_older_same_address_ops(self, mdu):
        mdu.add(0, is_store=False)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=True)
        mdu.resolve(1, 100)
        assert not mdu.store_may_dispatch(1)
        mdu.mark_dispatched(0)
        assert mdu.store_may_dispatch(1)

    def test_store_free_when_addresses_differ(self, mdu):
        mdu.add(0, is_store=False)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=True)
        mdu.resolve(1, 200)
        assert mdu.store_may_dispatch(1)


class TestLifecycle:
    def test_published_value_survives_producer_finish(self, mdu):
        mdu.add(0, is_store=True)
        mdu.resolve(0, 100)
        mdu.publish(0, 9.0)
        mdu.add(1, is_store=False)
        mdu.resolve(1, 100)
        mdu.mark_dispatched(0)
        mdu.finish(0)
        # the consumer can still forward
        assert mdu.forwarded_value(1) == 9.0
        mdu.mark_dispatched(1)
        mdu.finish(1)
        assert mdu.in_flight() == 0
        assert not mdu._by_address

    def test_double_finish_rejected(self, mdu):
        mdu.add(0, is_store=False)
        mdu.resolve(0, 1)
        mdu.finish(0)
        with pytest.raises(SimulationError):
            mdu.finish(0)

    def test_squash_from(self, mdu):
        mdu.add(0, is_store=True)
        mdu.resolve(0, 100)
        mdu.add(1, is_store=False)
        mdu.resolve(1, 100)
        mdu.add(2, is_store=False)
        mdu.squash_from(1)
        assert mdu.in_flight() == 1
        assert mdu.can_accept()
        # the survivor is still bound and publishable
        mdu.publish(0, 3.0)
        mdu.mark_dispatched(0)
        mdu.finish(0)
        assert mdu.in_flight() == 0

    def test_squash_everything(self, mdu):
        for seq in range(3):
            mdu.add(seq, is_store=seq == 0)
        mdu.resolve(0, 5)
        mdu.squash_from(0)
        assert mdu.in_flight() == 0
        assert not mdu._by_address
