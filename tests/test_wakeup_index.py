"""Unit tests for the windowed engines' wake-up index and the station
slots it fills (``WindowEntry.values`` / ``tags``)."""

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.isa import A, Instruction, Opcode, S, assemble
from repro.issue.common import WakeupIndex, WindowEntry
from repro.machine import MachineConfig, Memory
from repro.trace import reference_state

from tests.support import run_checked

WINDOWED_ENGINES = [
    "tomasulo", "tagunit", "rspool", "rstu",
    "ruu-bypass", "ruu-nobypass", "ruu-limited", "spec-ruu",
]


class _PublishLog:
    """Stands in for the memory dependency unit: records publications."""

    def __init__(self):
        self.published = []

    def publish(self, seq, value):
        self.published.append((seq, value))


def _entry(seq, inst, slots):
    """A station whose slots are ``(value, tag)`` pairs, as
    ``_source_operand`` returns them."""
    values = [value for value, _ in slots]
    tags = [tag for _, tag in slots]
    missing = sum(tag is not None for tag in tags)
    return WindowEntry(seq, inst, values, tags, missing)


SQUARE = Instruction(Opcode.F_MUL, dest=S(3), srcs=(S(2), S(2)))
ADD = Instruction(Opcode.F_ADD, dest=S(4), srcs=(S(1), S(5)))
STORE = Instruction(Opcode.STORE_S, srcs=(S(1),), base=A(1), imm=0)


class TestWakeupIndex:
    def test_one_wake_fills_both_slots_of_one_tag(self):
        index = WakeupIndex(_PublishLog())
        older = _entry(1, ADD, [(1.0, None), (2.0, None)])
        index.add(older)
        square = _entry(2, SQUARE, [(None, 7), (None, 7)])
        index.add(square)
        younger = _entry(3, ADD, [(1.0, None), (2.0, None)])
        index.add(younger)
        assert square.missing == 2
        assert index[7] == [(square, 0), (square, 1)]
        assert index.ready == [older, younger]

        index.wake(7, 1.5)
        assert square.values == [1.5, 1.5]
        assert square.tags == [None, None]
        assert square.missing == 0
        assert square.waiting_tags == []
        assert 7 not in index
        assert index.ready == [older, square, younger]

    def test_entry_with_nothing_missing_is_ready_at_add(self):
        index = WakeupIndex(_PublishLog())
        first = _entry(1, ADD, [(1.0, None), (2.0, None)])
        second = _entry(2, ADD, [(3.0, None), (4.0, None)])
        index.add(first)
        index.add(second)
        assert index.ready == [first, second]
        assert not index

    def test_wake_of_an_unknown_tag_changes_nothing(self):
        index = WakeupIndex(_PublishLog())
        entry = _entry(1, SQUARE, [(None, 3), (None, 3)])
        index.add(entry)
        index.wake(4, 9.0)
        assert entry.missing == 2
        assert entry.values == [None, None]
        assert index.ready == []

    def test_store_publishes_its_datum_when_it_becomes_ready(self):
        log = _PublishLog()
        index = WakeupIndex(log)
        store = _entry(5, STORE, [(None, 2), (100, None)])
        index.add(store)
        assert log.published == []
        index.wake(2, 6.25)
        assert store.datum == 6.25
        assert log.published == [(5, 6.25)]
        assert index.ready == [store]

    def test_store_ready_at_issue_publishes_at_add(self):
        log = _PublishLog()
        index = WakeupIndex(log)
        index.add(_entry(5, STORE, [(2.5, None), (100, None)]))
        assert log.published == [(5, 2.5)]

    def test_drop_squashed_keeps_only_live_pairs(self):
        index = WakeupIndex(_PublishLog())
        live = _entry(1, SQUARE, [(None, 7), (None, 8)])
        doomed = _entry(2, SQUARE, [(None, 7), (None, 7)])
        gone = _entry(3, SQUARE, [(None, 9), (None, 9)])
        ready_doomed = _entry(4, ADD, [(1.0, None), (2.0, None)])
        ready_live = _entry(5, ADD, [(1.0, None), (2.0, None)])
        for entry in (live, doomed, gone, ready_doomed, ready_live):
            index.add(entry)
        for entry in (doomed, gone, ready_doomed):
            entry.squashed = True
        index.drop_squashed()
        assert dict(index) == {7: [(live, 0)], 8: [(live, 1)]}
        assert index.ready == [ready_live]

    def test_address_reads_the_base_slot(self):
        load = Instruction(Opcode.LOAD_S, dest=S(1), base=A(2), imm=3)
        entry = _entry(1, load, [(None, 4)])
        assert entry.waiting_tags == [4]
        entry.values[-1], entry.tags[-1] = 10, None
        assert entry.compute_address() == 13


REPEATED_SOURCE = """
    S_IMM S1, 2.0
    F_RECIP S2, S1          ; long latency: S2 stays pending
    F_MUL S3, S2, S2        ; one tag in both slots
    A_IMM A1, 4
    A_IMM A2, 1
    A_MUL A3, A1, A2        ; A3 pending for a few cycles
    A_ADD A4, A3, A3
    STORE_S A4[5], S3       ; base and datum both pending
    F_ADD S4, S3, S3
    HALT
"""


@pytest.mark.parametrize("window", [4, 12])
@pytest.mark.parametrize("engine_name", WINDOWED_ENGINES)
def test_reading_one_pending_register_twice(engine_name, window):
    program = assemble(REPEATED_SOURCE)
    golden = reference_state(program)
    memory = Memory()
    engine = ENGINE_FACTORIES[engine_name](
        program, MachineConfig(window_size=window), memory,
    )
    result, checker = run_checked(engine)
    assert checker.window_cycles_checked == result.cycles
    assert engine.interrupt_record is None
    assert not engine.regs.diff(golden.regs)
    assert not memory.diff(golden.memory)
    assert result.instructions == golden.executed
