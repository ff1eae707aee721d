"""Tests for the dispatch-stack engine (OoO issue without renaming)."""

from repro.issue import (
    DispatchStackEngine,
    RSTUEngine,
    SimpleEngine,
    TomasuloEngine,
)
from repro.isa import S, assemble
from repro.machine import MachineConfig, Memory
from repro.machine.timeline import STAGES
from repro.obs import TraceRecorder
from repro.trace import reference_state
from repro.workloads import all_loops

from tests.support import run_checked

CONFIG = MachineConfig(window_size=10)


def run(source, config=CONFIG):
    program = assemble(source)
    engine = DispatchStackEngine(program, config)
    result = engine.run()
    return engine, result


class TestCorrectness:
    def test_livermore_equivalence(self):
        for workload in all_loops():
            golden = reference_state(workload.program,
                                     workload.initial_memory)
            memory = workload.make_memory()
            engine = DispatchStackEngine(workload.program, CONFIG,
                                         memory=memory)
            result = engine.run()
            assert engine.regs == golden.regs, workload.name
            assert memory == golden.memory, workload.name
            assert result.instructions == golden.executed, workload.name

    def test_war_respected(self):
        # older reader of S2 must get the old value even though the
        # younger writer is latency-1
        engine, _ = run("""
            S_IMM S1, 1.0
            S_IMM S2, 5.0
            F_ADD S3, S2, S1     ; reads S2 == 5.0
            S_IMM S2, 100.0      ; younger fast write
            HALT
        """)
        assert engine.regs.read(S(3)) == 6.0
        assert engine.regs.read(S(2)) == 100.0

    def test_waw_respected(self):
        engine, _ = run("""
            S_IMM S1, 4.0
            F_RECIP S2, S1       ; slow write of S2
            S_IMM  S2, 9.0       ; younger write must land last
            HALT
        """)
        assert engine.regs.read(S(2)) == 9.0


class TestOrderingBehaviour:
    def test_out_of_order_issue_happens(self):
        # Independent work flows around a stalled dependent chain.
        source = """
            S_IMM S1, 1.0
            F_RECIP S2, S1
            F_ADD S3, S2, S2
            A_IMM A1, 1
            A_IMM A2, 2
            A_ADD A3, A1, A2
            A_IMM A4, 4
            A_IMM A5, 5
            A_ADD A6, A4, A5
            HALT
        """
        _, stack = run(source)
        simple = SimpleEngine(assemble(source), CONFIG).run()
        assert stack.cycles < simple.cycles

    def test_renaming_beats_no_renaming_under_waw_pressure(self):
        """The point of putting [18] in the ladder: recycle one
        register hard and the dispatch stack serializes where
        Tomasulo's tags rename."""
        lines = ["S_IMM S1, 1.0"]
        for _ in range(10):
            lines.append("F_ADD S2, S1, S1")   # same dest every time
            lines.append("F_MUL S3, S2, S1")   # reader between writes
        lines.append("HALT")
        source = "\n".join(lines)
        stack = DispatchStackEngine(assemble(source), CONFIG).run()
        tomasulo = TomasuloEngine(assemble(source), CONFIG).run()
        assert tomasulo.cycles < stack.cycles

    def test_ladder_position_on_loops(self):
        """simple <= dispatch-stack <= rstu in cycles (renaming wins)."""
        total = {"simple": 0, "stack": 0, "rstu": 0}
        for workload in all_loops()[:8]:
            total["simple"] += SimpleEngine(
                workload.program, CONFIG, memory=workload.make_memory()
            ).run().cycles
            total["stack"] += DispatchStackEngine(
                workload.program, CONFIG, memory=workload.make_memory()
            ).run().cycles
            total["rstu"] += RSTUEngine(
                workload.program, CONFIG, memory=workload.make_memory()
            ).run().cycles
        assert total["stack"] < total["simple"]
        assert total["rstu"] < total["stack"]

    def test_imprecise(self):
        engine, result = run("""
            S_IMM S1, 0.0
            F_RECIP S2, S1
            A_IMM A1, 3
            HALT
        """)
        assert engine.interrupt_record is not None
        assert not engine.interrupt_record.claims_precise

    def test_memory_forwarding_works(self):
        engine, _ = run("""
            A_IMM A1, 100
            S_IMM S1, 7.0
            STORE_S A1[0], S1
            LOAD_S S2, A1[0]
            HALT
        """)
        assert engine.regs.read(S(2)) == 7.0


class TestRescanTriggers:
    """Dispatch walks the stack only after an append, a completion, or a
    walk that offered a candidate to its unit.  In each program below
    one event is the only thing that lets the last instruction
    dispatch; its dispatch cycle is pinned to the value of the
    always-walking engine, under the per-cycle invariant checker."""

    @staticmethod
    def dispatch_cycles(source, config=MachineConfig(window_size=8)):
        engine = DispatchStackEngine(assemble(source), config,
                                     memory=Memory())
        engine.recorder = TraceRecorder()
        result, checker = run_checked(engine)
        assert checker.cycles_checked == result.cycles
        column = engine.recorder.stage_cycles[STAGES.index("dispatch")]
        return column[:engine.recorder.seqs]

    def test_result_bus_refusal_walks_again_next_cycle(self):
        # F_ADD is ready at cycle 4, but F_MUL holds the bus at cycle
        # 10; nothing is appended or completes at cycle 5.
        assert self.dispatch_cycles("""
            S_IMM S1, 2.0
            S_IMM S4, 3.0
            F_MUL S2, S1, S1
            F_ADD S3, S4, S4
            HALT
        """) == [1, 2, 3, 5, -1]

    def test_address_resolution_dispatches_in_the_same_walk(self):
        # The load's base A2 arrives at cycle 8: the walk resolves the
        # address and then dispatches the load.
        assert self.dispatch_cycles("""
            A_IMM A1, 3
            A_MUL A2, A1, A1
            LOAD_S S1, A2[0]
            HALT
        """) == [1, 2, 8, -1]

    def test_completion_clearing_a_waw_hazard(self):
        # S_IMM S2 waits for the older F_RECIP S2 to complete (cycle 16).
        assert self.dispatch_cycles("""
            S_IMM S1, 4.0
            F_RECIP S2, S1
            S_IMM S2, 9.0
            HALT
        """) == [1, 2, 16, -1]

    def test_war_hazard_clears_when_the_reader_dispatches(self):
        # F_ADD reads S1 at dispatch, once F_RECIP S2 completes (cycle
        # 16).  The younger S_IMM S1 goes next cycle: a walk that
        # dispatched leaves the next cycle dirty.
        assert self.dispatch_cycles("""
            S_IMM S1, 4.0
            F_RECIP S2, S1
            F_ADD S3, S2, S1
            S_IMM S1, 9.0
            HALT
        """) == [1, 2, 16, 17, -1]

    def test_freed_load_register_issues_then_dispatches(self):
        # One load register: the second load issues when the first
        # completes (cycle 13) and dispatches on the next cycle.
        assert self.dispatch_cycles("""
            A_IMM A1, 5
            LOAD_S S1, A1[0]
            LOAD_S S2, A1[1]
            HALT
        """, MachineConfig(window_size=8, n_load_registers=1)) \
            == [1, 2, 14, -1]
