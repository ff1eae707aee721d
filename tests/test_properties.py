"""Property-based tests (hypothesis) for the core invariants.

The headline property: on any type-safe random program, every engine
finishes with exactly the golden model's architectural state.  The
precision property: whenever the RUU takes an interrupt, the visible
state is exactly the sequential prefix state.

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
