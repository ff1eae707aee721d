"""The engine instance layout the hot path relies on.

CPython 3.11 keeps an instance dict in its fast inline layout only up
to 29 keys.  ``Engine.__slots__`` holds the base fields so that every
concrete engine stays under that limit with its own fields.
"""

import pytest

from repro.analysis import ENGINE_FACTORIES
from repro.machine import MachineConfig
from repro.machine.engine import Engine
from repro.workloads import all_loops

#: The most keys an instance dict may hold and keep the fast layout.
FAST_LAYOUT_KEYS = 29


class _Bare(Engine):
    """A concrete engine with no instance dict at all: setting any
    field that ``Engine.__slots__`` misses raises AttributeError."""

    __slots__ = ()

    def _phase_complete(self):
        pass

    def _register_pending(self, reg_id):
        return False

    def _try_issue(self, inst, seq):
        return True

    def _drained(self):
        return True


def test_slots_cover_every_field_engine_init_sets():
    workload = all_loops()[0]
    engine = _Bare(workload.program)
    assert not hasattr(engine, "__dict__")
    for name in Engine.__slots__:
        getattr(engine, name)  # every slot was initialised


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
def test_engine_instance_dict_stays_in_the_fast_layout(engine_name):
    workload = all_loops()[0]
    engine = ENGINE_FACTORIES[engine_name](
        workload.program, MachineConfig(window_size=12),
        workload.make_memory(),
    )
    engine.run()
    keys = sorted(vars(engine))
    assert len(keys) <= FAST_LAYOUT_KEYS, keys
    assert not set(keys) & set(Engine.__slots__)


@pytest.mark.parametrize("phase", ["complete", "commit", "dispatch",
                                   "issue"])
def test_instance_overrides_of_phases_still_apply(phase):
    """perfbench's phase timers wrap these per instance.  The complete
    phase runs once per cycle with a result due, the others once per
    cycle."""
    workload = all_loops()[0]
    engine = ENGINE_FACTORIES["ruu-bypass"](
        workload.program, MachineConfig(window_size=12),
        workload.make_memory(),
    )
    due = engine._completions = ScheduledCycles()
    calls = []
    original = getattr(engine, f"_phase_{phase}")

    def counted():
        calls.append(engine.cycle)
        original()

    setattr(engine, f"_phase_{phase}", counted)
    result = engine.run()
    if phase == "complete":
        assert calls == sorted(due.scheduled)
    else:
        assert calls == list(range(result.cycles))


class ScheduledCycles(dict):
    """A completion queue that remembers every cycle it was given."""

    def __init__(self):
        super().__init__()
        self.scheduled = set()

    def __setitem__(self, cycle, payloads):
        self.scheduled.add(cycle)
        super().__setitem__(cycle, payloads)
