"""Property-based tests (hypothesis) for the core invariants.

The headline property: on any type-safe random program, every engine
finishes with exactly the golden model's architectural state.  The
precision property: whenever the RUU takes an interrupt, the visible
state is exactly the sequential prefix state.  The schema property:
every exported Chrome trace validates, and any one corrupted event of
it is reported at its index.

Example budgets are written for the default Hypothesis profile and
scale with the loaded one: ``--hypothesis-profile=ci`` (registered in
``tests/conftest.py``) runs them derandomized with 5x the examples.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import ENGINE_FACTORIES
from repro.core import BypassMode, RUUEngine, SpeculativeRUUEngine
from repro.isa import ArithmeticFault, assemble, wrap_a, wrap_s_int
from repro.isa.semantics import wrap_signed
from repro.machine import MachineConfig, Memory
from repro.obs import TraceRecorder, chrome_trace, validate_chrome_trace
from repro.trace import FunctionalExecutor, prefix_state

from tests.strategies import (
    FLOAT_REGION,
    INT_REGION,
    REGION_SIZE,
    initial_data,
    program_text,
)

CONFIG = MachineConfig(window_size=6)

#: The loaded profile's example count over the default profile's.
SCALE = settings.default.max_examples / settings.get_profile(
    "default").max_examples


def examples(count: int) -> settings:
    """Settings for a property with ``count`` examples by default."""
    return settings(
        max_examples=round(count * SCALE),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


PROGRAM_SETTINGS = examples(40)


def _build_memory(data):
    floats, ints = data
    memory = Memory()
    memory.write_array(FLOAT_REGION, floats)
    memory.write_array(INT_REGION, ints)
    return memory


def _golden(program, memory):
    """Run the ISS; returns None if the program arithmetic-faults."""
    executor = FunctionalExecutor(program, memory.copy())
    try:
        executor.run(max_instructions=100_000)
    except ArithmeticFault:
        return None
    return executor


class TestArchitecturalEquivalence:
    @PROGRAM_SETTINGS
    @given(source=program_text(), data=initial_data(),
           window=st.sampled_from([4, 12, 50]))
    def test_fixed_engines_match_golden(self, source, data, window):
        """Every engine of the zoo, the dispatch stack and the
        Smith & Pleszkun engines included."""
        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        config = MachineConfig(window_size=window)
        for name, factory in sorted(ENGINE_FACTORIES.items()):
            if name.startswith("chaos-"):
                continue
            run_memory = memory.copy()
            engine = factory(program, config, run_memory)
            result = engine.run()
            assert engine.interrupt_record is None, name
            assert engine.regs.diff(golden.regs) == {}, name
            assert run_memory.diff(golden.memory) == {}, name
            assert result.instructions == golden.executed, name

    @PROGRAM_SETTINGS
    @given(
        source=program_text(),
        data=initial_data(),
        bypass=st.sampled_from(list(BypassMode)),
        window=st.integers(3, 12),
    )
    def test_ruu_matches_golden(self, source, data, bypass, window):
        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        run_memory = memory.copy()
        engine = RUUEngine(
            program, MachineConfig(window_size=window),
            memory=run_memory, bypass=bypass,
        )
        result = engine.run()
        assert engine.regs.diff(golden.regs) == {}
        assert run_memory.diff(golden.memory) == {}
        assert result.instructions == golden.executed
        assert not any(engine._ni)

    @PROGRAM_SETTINGS
    @given(source=program_text(), data=initial_data())
    def test_speculative_ruu_matches_golden(self, source, data):
        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        run_memory = memory.copy()
        engine = SpeculativeRUUEngine(program, CONFIG, memory=run_memory)
        result = engine.run()
        assert engine.regs.diff(golden.regs) == {}
        assert run_memory.diff(golden.memory) == {}
        assert result.instructions == golden.executed
        assert not engine._pending_branches

    @examples(20)
    @given(source=program_text(), data=initial_data())
    def test_internal_invariants_on_random_programs(self, source, data):
        """Attach the per-cycle invariant checker to the RUU on random
        programs: the NI/LI counters, queue order, and waiter liveness
        must hold on every cycle, not just at the end."""
        from repro.machine.invariants import run_checked
        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        engine = RUUEngine(program, CONFIG, memory=memory.copy())
        result, checker = run_checked(engine)
        assert checker.cycles_checked == result.cycles

    @PROGRAM_SETTINGS
    @given(source=program_text(), data=initial_data())
    def test_determinism(self, source, data):
        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        results = [
            RUUEngine(program, CONFIG, memory=memory.copy()).run().cycles
            for _ in range(2)
        ]
        assert results[0] == results[1]


class TestConfigFuzz:
    @examples(25)
    @given(
        window=st.integers(2, 30),
        counter_bits=st.integers(1, 4),
        load_regs=st.integers(1, 8),
        dispatch=st.integers(1, 2),
        commit=st.integers(1, 2),
        width=st.integers(1, 2),
        taken_penalty=st.integers(0, 5),
    )
    def test_any_config_preserves_architecture(
        self, window, counter_bits, load_regs, dispatch, commit, width,
        taken_penalty,
    ):
        """Sizing and bandwidth knobs change timing, never results."""
        from repro.workloads import lll5, memory_alias_kernel

        config = MachineConfig(
            window_size=window,
            counter_bits=counter_bits,
            n_load_registers=load_regs,
            dispatch_paths=dispatch,
            commit_paths=commit,
            issue_width=width,
            branch_taken_penalty=taken_penalty,
        )
        for workload in (lll5(n=20), memory_alias_kernel(iterations=8)):
            golden = FunctionalExecutor(
                workload.program, workload.make_memory()
            )
            golden.run()
            memory = workload.make_memory()
            engine = RUUEngine(workload.program, config, memory=memory)
            result = engine.run()
            assert engine.regs.diff(golden.regs) == {}
            assert memory.diff(golden.memory) == {}
            assert result.instructions == golden.executed


class TestPrecisionProperty:
    @examples(30)
    @given(
        source=program_text(),
        data=initial_data(),
        fault_offset=st.integers(0, REGION_SIZE - 1),
        region=st.sampled_from([FLOAT_REGION, INT_REGION]),
    )
    def test_ruu_interrupts_are_precise(self, source, data, fault_offset,
                                        region):
        """Inject a page fault at a random data address: if the RUU
        traps, its state must equal the golden prefix; if it does not,
        the final state must be the golden final state."""
        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        run_memory = memory.copy()
        run_memory.inject_fault(region + fault_offset)
        engine = RUUEngine(program, CONFIG, memory=run_memory)
        engine.run()
        record = engine.interrupt_record
        if record is None:
            assert engine.regs.diff(golden.regs) == {}
        else:
            assert record.claims_precise
            prefix = prefix_state(program, record.seq, memory=memory)
            assert prefix.regs.diff(engine.regs) == {}
            assert prefix.memory.diff(engine.memory) == {}
            # ...and servicing the fault resumes to the golden end state.
            run_memory.service_fault(region + fault_offset)
            while engine.interrupt_record is not None:
                engine.continue_run()
            assert engine.regs.diff(golden.regs) == {}
            assert run_memory.diff(golden.memory) == {}


class TestCheckpointProperty:
    @examples(25)
    @given(
        source=program_text(),
        data=initial_data(),
        fault_offset=st.integers(0, REGION_SIZE - 1),
        region=st.sampled_from([FLOAT_REGION, INT_REGION]),
        target=st.sampled_from([
            "ruu-bypass", "spec-ruu", "reorder-buffer", "history-buffer",
            "future-file",
        ]),
    )
    def test_checkpoint_restore_resume_equals_uninterrupted(
        self, source, data, fault_offset, region, target,
    ):
        """On a random program with a random injected page fault:
        trap -> checkpoint -> serialize -> restore into a random precise
        engine -> resume must reach exactly the state an uninterrupted
        run reaches.  (If the program never touches the faulting
        address, the drained engine must checkpoint/restore too.)"""
        import json as json_module

        from repro.machine import Checkpoint

        program = assemble(source)
        memory = _build_memory(data)
        golden = _golden(program, memory)
        assume(golden is not None)
        run_memory = memory.copy()
        run_memory.inject_fault(region + fault_offset)
        engine = ENGINE_FACTORIES["ruu-bypass"](
            program, CONFIG, run_memory
        )
        engine.run()
        record = engine.interrupt_record
        if record is not None:
            assert record.claims_precise
        # Serialize through JSON text: the restore must work from the
        # document alone, not from live object references.
        document = json_module.loads(
            json_module.dumps(Checkpoint.capture(engine).to_json())
        )
        del engine, run_memory
        machine = Checkpoint.from_json(document).restore(engine=target)
        if record is not None:
            prefix = prefix_state(program, record.seq, memory=memory)
            assert prefix.regs.diff(machine.regs) == {}
            machine.memory.service_fault(region + fault_offset)
            machine.continue_run()
        assert machine.regs.diff(golden.regs) == {}
        assert machine.memory.diff(golden.memory) == {}
        assert machine.retired == golden.executed


def _set(key, value):
    def mutate(events, index):
        event = dict(events[index])
        event[key] = value
        return events[:index] + [event] + events[index + 1:], index
    return mutate


def _drop(key):
    def mutate(events, index):
        event = dict(events[index])
        del event[key]
        return events[:index] + [event] + events[index + 1:], index
    return mutate


def _replace(value):
    def mutate(events, index):
        return events[:index] + [value] + events[index + 1:], index
    return mutate


def _reopen(events, index):
    """A second begin with the same async id, right after the first."""
    return events[:index + 1] + [dict(events[index])] \
        + events[index + 1:], index + 1


#: Corruptions of one event, by the phase they apply to ("*": any);
#: each returns (mutated events, index the problem must be reported at).
MUTATIONS = {
    "*": {
        "bool pid": _set("pid", True),
        "float pid": _set("pid", 0.0),
        "no name": _drop("name"),
        "empty name": _set("name", ""),
        "no pid": _drop("pid"),
        "unknown phase": _set("ph", "Q"),
        "no phase": _drop("ph"),
        "list event": _replace([]),
        "str event": _replace("event"),
        "null event": _replace(None),
    },
    "timed": {
        "bool ts": _set("ts", True),
        "NaN ts": _set("ts", float("nan")),
        "infinite ts": _set("ts", float("inf")),
        "negative ts": _set("ts", -1),
        "no ts": _drop("ts"),
    },
    "C": {"no args": _drop("args"), "list args": _set("args", [])},
    "X": {
        "bool dur": _set("dur", True),
        "NaN dur": _set("dur", float("nan")),
        "zero dur": _set("dur", 0),
        "no dur": _drop("dur"),
    },
    "b": {"reopened id": _reopen, "null id": _set("id", None),
          "no id": _drop("id")},
    "e": {"unmatched id": _set("id", "unmatched"),
          "null id": _set("id", None), "no id": _drop("id")},
}

TRACED_ENGINES = sorted(name for name in ENGINE_FACTORIES
                        if not name.startswith("chaos-"))


class TestChromeSchemaProperty:
    @examples(25)
    @given(source=program_text(), data=initial_data(),
           name=st.sampled_from(TRACED_ENGINES), choice=st.data())
    def test_exports_validate_and_one_bad_event_is_reported(
            self, source, data, name, choice):
        """Guards the validator's exact-type fast path: an event it
        lets through must be one the full checks find nothing in.  Each
        corruption that applies to the drawn event is tried on its
        own."""
        engine = ENGINE_FACTORIES[name](
            assemble(source), CONFIG, _build_memory(data))
        engine.recorder = TraceRecorder()
        result = engine.run()
        events = chrome_trace(engine.recorder)["traceEvents"]
        assert validate_chrome_trace(
            {"traceEvents": events}, cycles=result.cycles) == []
        # Phase first, so the rarer phases get drawn as often.
        phase = choice.draw(st.sampled_from(
            sorted({event["ph"] for event in events})), label="phase")
        index = choice.draw(st.sampled_from(
            [at for at, event in enumerate(events) if event["ph"] == phase]),
            label="index")
        mutations = dict(MUTATIONS["*"])
        if phase != "M":
            mutations.update(MUTATIONS["timed"])
        mutations.update(MUTATIONS.get(phase, {}))
        for label, mutate in sorted(mutations.items()):
            mutated, at = mutate(events, index)
            problems = validate_chrome_trace(
                {"traceEvents": mutated}, cycles=result.cycles)
            assert any(problem.startswith(f"traceEvents[{at}]: ")
                       for problem in problems), (label, problems)


class TestSemanticsProperties:
    @given(st.integers(-(1 << 40), 1 << 40))
    def test_wrap_a_range(self, value):
        wrapped = wrap_a(value)
        assert -(1 << 23) <= wrapped < (1 << 23)
        assert (wrapped - value) % (1 << 24) == 0

    @given(st.integers(-(1 << 80), 1 << 80))
    def test_wrap_s_range(self, value):
        wrapped = wrap_s_int(value)
        assert -(1 << 63) <= wrapped < (1 << 63)

    @given(st.integers(-1000, 1000), st.integers(2, 30))
    def test_wrap_signed_identity_in_range(self, value, bits):
        assume(-(1 << (bits - 1)) <= value < (1 << (bits - 1)))
        assert wrap_signed(value, bits) == value

    @given(st.integers(), st.integers(2, 64))
    def test_wrap_signed_idempotent(self, value, bits):
        once = wrap_signed(value, bits)
        assert wrap_signed(once, bits) == once


class TestMemoryProperties:
    @given(st.dictionaries(st.integers(0, 1000),
                           st.integers(-100, 100), max_size=20))
    def test_roundtrip(self, contents):
        memory = Memory()
        for address, value in contents.items():
            memory.poke(address, value)
        for address, value in contents.items():
            assert memory.peek(address) == value

    @given(st.dictionaries(st.integers(0, 50), st.integers(1, 9),
                           max_size=10),
           st.dictionaries(st.integers(0, 50), st.integers(1, 9),
                           max_size=10))
    def test_diff_empty_iff_equal(self, a_contents, b_contents):
        a, b = Memory(), Memory()
        for address, value in a_contents.items():
            a.poke(address, value)
        for address, value in b_contents.items():
            b.poke(address, value)
        assert (a.diff(b) == {}) == (a == b)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), max_size=16))
    def test_array_roundtrip(self, values):
        memory = Memory()
        memory.write_array(77, values)
        assert memory.read_array(77, len(values)) == values
