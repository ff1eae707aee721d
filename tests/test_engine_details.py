"""Deeper engine-internal tests: bus exclusivity, commit-bus timing,
backup-file memory traffic, occupancy accounting, TU slot hygiene."""

import pytest

from repro.core import BypassMode, RUUEngine
from repro.isa import A, S, assemble
from repro.issue import RSTUEngine, TagUnitEngine, TomasuloEngine
from repro.machine import MachineConfig, Memory
from repro.machine.result_bus import ResultBus
from repro.trace import reference_state


class _StrictBus(ResultBus):
    """A result bus that fails the test on any double booking."""

    def reserve(self, cycle):
        assert self.is_free(cycle), f"result bus double-booked at {cycle}"
        return super().reserve(cycle)


@pytest.mark.parametrize("cls", [TomasuloEngine, RSTUEngine, RUUEngine])
def test_result_bus_never_double_booked(cls):
    from repro.workloads import lll1
    workload = lll1(n=30)
    engine = cls(workload.program, MachineConfig(window_size=10),
                 memory=workload.make_memory())
    engine.result_bus = _StrictBus()
    engine.run()


class TestBackupFileMemoryTraffic:
    SOURCE = """
        A_IMM A1, 300
        A_IMM A2, 7
        MOV   B9, A2
        STORE_B A1[0], B9
        LOAD_B  B10, A1[0]
        MOV   A3, B10
        S_IMM S1, 9
        MOV   T5, S1
        STORE_T A1[1], T5
        LOAD_T  T6, A1[1]
        MOV   S2, T6
        HALT
    """

    @pytest.mark.parametrize("cls", [TomasuloEngine, RSTUEngine, RUUEngine])
    def test_b_and_t_loads_stores(self, cls):
        program = assemble(self.SOURCE)
        golden = reference_state(program)
        engine = cls(program, MachineConfig(window_size=10))
        engine.run()
        assert engine.regs == golden.regs
        assert engine.regs.read(A(3)) == 7
        assert engine.regs.read(S(2)) == 9
        assert engine.memory.peek(300) == 7


class TestCommitBusTiming:
    def test_nobypass_consumer_waits_for_commit(self):
        """The §6.2 scenario: a slow instruction at the head of the RUU
        keeps the producer executed-but-uncommitted while the consumer
        issues.  With bypass the consumer reads the RUU; without it the
        value only arrives on the commit bus."""
        source = """
            S_IMM S1, 1.0        ; seq 0
            S_IMM S4, 2.0        ; seq 1
            F_RECIP S5, S4       ; seq 2: 14-cycle head-of-queue blocker
            F_ADD S2, S1, S1     ; seq 3: producer, completes early
            A_IMM A1, 1          ; seqs 4..11: issue-slot fillers
            A_IMM A2, 1
            A_IMM A3, 1
            A_IMM A4, 1
            A_IMM A5, 1
            A_IMM A6, 1
            A_IMM A7, 1
            A_IMM A1, 2
            F_MUL S3, S2, S2     ; seq 12: consumer
            HALT
        """
        program = assemble(source)
        from repro.machine import Timeline
        from repro.obs import TraceRecorder
        runs = {}
        for mode in (BypassMode.FULL, BypassMode.NONE):
            engine = RUUEngine(program, MachineConfig(window_size=16),
                               bypass=mode)
            engine.recorder = TraceRecorder()
            engine.run()
            runs[mode] = Timeline.of(engine.recorder)
        seq_producer, seq_consumer = 3, 12
        for mode, timeline in runs.items():
            # the scenario is real: producer executed before the
            # consumer issued, but committed after
            assert timeline.events_for(seq_producer)["complete"] \
                < timeline.events_for(seq_consumer)["issue"]
            assert timeline.events_for(seq_producer)["commit"] \
                > timeline.events_for(seq_consumer)["issue"]
        full_dispatch = runs[BypassMode.FULL].events_for(
            seq_consumer)["dispatch"]
        none_dispatch = runs[BypassMode.NONE].events_for(
            seq_consumer)["dispatch"]
        assert none_dispatch > full_dispatch
        # the no-bypass wait ends at the producer's commit broadcast
        producer_commit = runs[BypassMode.NONE].events_for(
            seq_producer)["commit"]
        assert none_dispatch >= producer_commit

    def test_full_bypass_reads_executed_result_at_issue(self):
        source = """
            S_IMM S1, 3.0
            F_MUL S2, S1, S1
            NOP
            NOP
            NOP
            NOP
            NOP
            NOP
            NOP
            NOP
            F_ADD S3, S2, S1
            HALT
        """
        engine = RUUEngine(assemble(source), MachineConfig(window_size=16),
                           bypass=BypassMode.FULL)
        engine.run()
        assert engine.regs.read(S(3)) == 12.0


class TestTagUnitHygiene:
    def test_all_tags_freed_at_the_end(self):
        from repro.workloads import lll3
        workload = lll3(n=40)
        engine = TagUnitEngine(workload.program,
                               MachineConfig(window_size=4, n_tags=8),
                               memory=workload.make_memory())
        engine.run()
        assert engine.tags_in_use() == 0
        for entry in engine._tag_unit:
            assert entry.free and entry.register is None

    def test_superseded_tag_does_not_write_register(self):
        # WAW: slow write then fast write to S2; when the slow result
        # arrives its tag is stale and must not touch the register.
        source = """
            S_IMM S1, 4.0
            F_RECIP S2, S1       ; 0.25, arrives late
            S_IMM  S2, 9.0       ; supersedes
            HALT
        """
        engine = TagUnitEngine(assemble(source),
                               MachineConfig(window_size=4))
        engine.run()
        assert engine.regs.read(S(2)) == 9.0


class TestOccupancyStats:
    def test_avg_occupancy_reported(self):
        from repro.workloads import lll5
        workload = lll5(n=40)
        engine = RUUEngine(workload.program, MachineConfig(window_size=10),
                           memory=workload.make_memory())
        result = engine.run()
        occupancy = result.extra["avg_window_occupancy"]
        assert 0.0 < occupancy <= 10.0

    def test_occupancy_grows_with_window(self):
        from repro.workloads import lll7
        values = []
        for size in (4, 16):
            workload = lll7(n=40)
            engine = RUUEngine(workload.program,
                               MachineConfig(window_size=size),
                               memory=workload.make_memory())
            result = engine.run()
            values.append(result.extra["avg_window_occupancy"])
        assert values[1] > values[0]


class TestMemoryForwardingCorners:
    @pytest.mark.parametrize("cls", [RSTUEngine, RUUEngine])
    def test_load_load_merge_value(self, cls):
        source = """
            A_IMM A1, 500
            LOAD_S S1, A1[0]
            LOAD_S S2, A1[0]     ; merges with the pending load
            F_ADD S3, S1, S2
            HALT
        """
        memory = Memory()
        memory.poke(500, 2.5)
        engine = cls(assemble(source), MachineConfig(window_size=8),
                     memory=memory)
        engine.run()
        assert engine.regs.read(S(3)) == 5.0
        assert engine.mdu.forwards >= 1

    @pytest.mark.parametrize("cls", [RSTUEngine, RUUEngine])
    def test_store_forward_chain(self, cls):
        # store -> load -> store -> load on one address
        source = """
            A_IMM A1, 500
            S_IMM S1, 1.0
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            F_ADD S3, S2, S2
            STORE_S A1[0], S3
            LOAD_S S4, A1[0]
            HALT
        """
        engine = cls(assemble(source), MachineConfig(window_size=10))
        engine.run()
        assert engine.regs.read(S(4)) == 2.0
        assert engine.memory.peek(500) == 2.0
