"""Tests for the static program verifier (`repro.lint`).

One test class per rule, a sweep asserting every bundled workload and
example program lints without errors, and the oracle tests: the static
critical-path lower bound must never exceed the dynamic dataflow limit
nor any engine's simulated cycle count.
"""

import pathlib
import runpy

import pytest

from repro.analysis import ENGINE_FACTORIES, dataflow_limit
from repro.isa import Instruction, Opcode, Program, assemble
from repro.isa.opcodes import FUClass
from repro.lint import (
    Severity,
    StaticCFG,
    lint_program,
    static_critical_path,
)
from repro.machine import CRAY1_LIKE, MachineConfig
from repro.trace import FunctionalExecutor

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def rules_of(report):
    return {d.rule for d in report.diagnostics}


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------

class TestStaticCFG:
    def test_blocks_and_edges_of_a_loop(self):
        program = assemble("""
            A_IMM A0, 3
        loop:
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """)
        cfg = StaticCFG(program)
        assert [block.start for block in cfg.blocks] == [0, 1, 3]
        body = cfg.blocks[1]
        assert sorted(body.successors) == [1, 2]  # back edge + fall-through
        assert cfg.blocks[2].is_exit

    def test_branch_targets_are_always_leaders(self):
        # A jump into the middle of a straight-line run must split it.
        program = assemble("""
            A_IMM A1, 1
            A_IMM A2, 2
            JMP mid
            NOP
        mid:
            A_IMM A3, 3
            HALT
        """)
        cfg = StaticCFG(program)
        starts = {block.start for block in cfg.blocks}
        assert program.labels["mid"] in starts

    def test_must_execute_includes_entry_and_postdominators(self):
        program = assemble("""
            A_IMM A0, 1
            BR_ZERO A0, skip
            S_IMM S1, 1.0
        skip:
            S_IMM S2, 2.0
            HALT
        """)
        cfg = StaticCFG(program)
        mandatory = {cfg.blocks[i].start for i in cfg.must_execute()}
        assert 0 in mandatory                       # entry
        assert program.labels["skip"] in mandatory  # joins both arms
        # The conditional arm is avoidable.
        assert 2 not in mandatory


# ----------------------------------------------------------------------
# one class per rule
# ----------------------------------------------------------------------

class TestUndefinedRead:
    def test_read_before_any_write_warns_with_source_line(self):
        program = assemble("""
            S_IMM S1, 2.0
            F_ADD S2, S1, S3
            HALT
        """)
        report = lint_program(program)
        findings = report.by_rule("undefined-read")
        assert len(findings) == 1
        diagnostic = findings[0]
        assert diagnostic.severity is Severity.WARNING
        assert "S3" in diagnostic.message
        assert diagnostic.pc == 1
        assert diagnostic.line == 3  # source line of the F_ADD

    def test_write_on_only_one_path_still_warns(self):
        program = assemble("""
            A_IMM A0, 1
            BR_ZERO A0, use
            S_IMM S1, 1.0
        use:
            F_ADD S2, S1, S1
            HALT
        """)
        report = lint_program(program)
        assert report.by_rule("undefined-read")

    def test_fully_initialized_program_is_clean(self):
        program = assemble("""
            S_IMM S1, 1.0
            F_ADD S2, S1, S1
            HALT
        """)
        assert not lint_program(program).by_rule("undefined-read")


class TestDeadWrite:
    def test_overwritten_before_read_warns(self):
        program = assemble("""
            A_IMM A1, 5
            A_IMM A1, 6
            STORE_A A1[100], A1
            HALT
        """)
        report = lint_program(program)
        findings = report.by_rule("dead-write")
        assert len(findings) == 1
        assert findings[0].pc == 0
        assert findings[0].line == 2

    def test_value_surviving_to_halt_is_not_dead(self):
        # Never read, but architecturally observable final state.
        program = assemble("""
            A_IMM A1, 5
            HALT
        """)
        assert not lint_program(program).by_rule("dead-write")

    def test_read_on_loop_back_edge_is_not_dead(self):
        program = assemble("""
            A_IMM A0, 3
        loop:
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """)
        assert not lint_program(program).by_rule("dead-write")


class TestUnreachableCode:
    def test_code_after_jump_warns(self):
        program = assemble("""
            S_IMM S1, 1.0
            JMP end
            F_ADD S2, S1, S1
        end:
            HALT
        """)
        report = lint_program(program)
        findings = report.by_rule("unreachable-code")
        assert len(findings) == 1
        assert findings[0].pc == 2
        assert findings[0].severity is Severity.WARNING


class TestNoExitPath:
    def test_inescapable_loop_is_an_error(self):
        program = assemble("""
            A_IMM A0, 1
        spin:
            JMP spin
            HALT
        """)
        report = lint_program(program)
        findings = report.by_rule("no-exit-path")
        assert findings and findings[0].severity is Severity.ERROR
        assert not report.ok

    def test_loop_with_exit_branch_is_clean(self):
        program = assemble("""
            A_IMM A0, 3
        loop:
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """)
        assert not lint_program(program).by_rule("no-exit-path")


class TestBadBranchTarget:
    def test_out_of_range_target_is_an_error(self):
        # build_program() would reject this, so forge a Program directly
        # the way a buggy tool (or deserializer) could.
        program = Program(
            (
                Instruction(Opcode.JMP, target=99, pc=0),
                Instruction(Opcode.HALT, pc=1),
            ),
            {},
            "forged",
        )
        report = lint_program(program)
        findings = report.by_rule("bad-branch-target")
        assert findings and findings[0].severity is Severity.ERROR

    def test_unresolved_label_is_an_error(self):
        program = Program(
            (
                Instruction(Opcode.JMP, target="nowhere", pc=0),
                Instruction(Opcode.HALT, pc=1),
            ),
            {},
            "forged",
        )
        assert lint_program(program).by_rule("unresolved-target")


class TestMissingHalt:
    def test_falling_off_the_end_is_an_error(self):
        program = Program(
            (Instruction(Opcode.NOP, pc=0),), {}, "no-halt"
        )
        report = lint_program(program)
        assert report.by_rule("missing-halt")
        assert not report.ok

    def test_empty_program_is_an_error(self):
        assert lint_program(Program((), {}, "empty")).by_rule(
            "missing-halt"
        )


class TestAddressBounds:
    def test_statically_negative_address_warns(self):
        program = assemble("""
            A_IMM A1, 2
            LOAD_S S1, A1[-5]
            HALT
        """)
        findings = lint_program(program).by_rule("address-bounds")
        assert len(findings) == 1
        assert "-3" in findings[0].message

    def test_unknown_base_is_not_flagged(self):
        program = assemble("""
            LOAD_A A1, A0[100]
            LOAD_S S1, A1[-5]
            HALT
        """)
        assert not lint_program(program).by_rule("address-bounds")


class TestConfigChecks:
    def test_missing_latency_for_used_unit(self):
        program = assemble("""
            S_IMM S1, 1.0
            F_MUL S2, S1, S1
            HALT
        """)
        latencies = dict(CRAY1_LIKE.latencies)
        del latencies[FUClass.FLOAT_MUL]
        config = CRAY1_LIKE.with_(latencies=latencies)
        report = lint_program(program, config)
        assert report.by_rule("config-missing-latency")
        assert not report.ok

    def test_nonpositive_latency(self):
        program = assemble("S_IMM S1, 1.0\nHALT")
        config = CRAY1_LIKE.with_(
            latencies={**CRAY1_LIKE.latencies, FUClass.TRANSMIT: 0}
        )
        assert lint_program(program, config).by_rule("config-bad-latency")

    def test_counter_width_cannot_cover_window(self):
        # One destination register, 1-bit counters: one live instance.
        program = assemble("""
            A_IMM A0, 5
        loop:
            A_ADDI A0, A0, -1
            BR_NONZERO A0, loop
            HALT
        """)
        config = MachineConfig(window_size=16, counter_bits=1)
        findings = lint_program(program, config).by_rule(
            "config-counter-window"
        )
        assert findings and findings[0].severity is Severity.WARNING

    def test_bad_sizing_is_an_error(self):
        program = assemble("HALT")
        config = MachineConfig(issue_width=0)
        assert lint_program(program, config).by_rule("config-bad-sizing")

    def test_memory_program_needs_load_registers(self):
        program = assemble("""
            LOAD_S S1, A0[100]
            HALT
        """)
        config = MachineConfig(n_load_registers=0)
        [error] = lint_program(program, config).errors
        assert error.rule == "config-bad-sizing"
        assert "n_load_registers" in error.message

    def test_default_config_is_clean_on_real_kernels(self, livermore_loops):
        for workload in livermore_loops[:3]:
            report = lint_program(workload.program, CRAY1_LIKE)
            assert not [
                d for d in report.diagnostics if d.rule.startswith("config-")
            ]


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

class TestReport:
    def test_describe_and_json_are_consistent(self):
        program = assemble("""
            S_IMM S1, 2.0
            F_ADD S2, S1, S3
            HALT
        """, name="demo")
        report = lint_program(program)
        text = report.describe()
        assert "undefined-read" in text and "demo:3" in text
        payload = report.to_dict()
        assert payload["program"] == "demo"
        assert payload["ok"] is True
        assert payload["diagnostics"][0]["line"] == 3
        assert payload["critical_path"]["cycles"] >= 1

    def test_fatal_structure_skips_deeper_passes(self):
        program = Program(
            (
                Instruction(Opcode.JMP, target=99, pc=0),
                Instruction(Opcode.HALT, pc=1),
            ),
            {},
            "forged",
        )
        report = lint_program(program)
        assert report.critical_path is None


# ----------------------------------------------------------------------
# the sweep: everything bundled must lint without errors
# ----------------------------------------------------------------------

class TestSweep:
    def test_all_bundled_workloads_lint_clean(self, all_workloads):
        for workload in all_workloads:
            report = lint_program(workload.program)
            assert report.ok, (
                f"{workload.name} has lint errors:\n{report.describe()}"
            )

    def test_all_workloads_have_line_numbers(self, all_workloads):
        for workload in all_workloads:
            missing = [
                inst.pc for inst in workload.program
                if inst.line is None and not inst.is_halt
            ]
            assert not missing, (
                f"{workload.name}: instructions without source lines at "
                f"pcs {missing}"
            )

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in EXAMPLES.glob("*.py"))
    )
    def test_example_programs_lint_clean(self, name):
        """Assemble every module-level SOURCE string the examples define
        and lint it; examples needing unavailable plotting backends are
        skipped, not failed."""
        try:
            namespace = runpy.run_path(
                str(EXAMPLES / name), run_name="lint_sweep"
            )
        except ImportError as exc:  # pragma: no cover - optional deps
            pytest.skip(f"{name}: {exc}")
        sources = {
            key: value for key, value in namespace.items()
            if isinstance(value, str) and key.isupper()
            and "SOURCE" in key
        }
        programs = [
            value for value in namespace.values()
            if isinstance(value, Program)
        ]
        for key, source in sources.items():
            programs.append(assemble(source, name=f"{name}:{key}"))
        for program in programs:
            report = lint_program(program)
            assert report.ok, (
                f"{name}/{program.name}:\n{report.describe()}"
            )


# ----------------------------------------------------------------------
# the oracle: static bound <= dynamic dataflow limit <= engine cycles
# ----------------------------------------------------------------------

class TestCriticalPathOracle:
    def test_bound_is_positive_on_real_kernels(self, livermore_loops):
        for workload in livermore_loops:
            assert static_critical_path(workload.program).cycles >= 1

    def test_static_bound_below_dataflow_limit(self, all_workloads):
        for workload in all_workloads:
            static = static_critical_path(workload.program, CRAY1_LIKE)
            trace = FunctionalExecutor(
                workload.program, workload.make_memory()
            ).run()
            dynamic = dataflow_limit(trace, CRAY1_LIKE)
            assert static.cycles <= dynamic.critical_path_cycles, (
                f"{workload.name}: static bound {static.cycles} exceeds "
                f"dynamic dataflow limit {dynamic.critical_path_cycles}"
            )

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
    def test_static_bound_below_every_engine(
        self, engine_name, all_workloads
    ):
        config = MachineConfig(window_size=10)
        builder = ENGINE_FACTORIES[engine_name]
        # Three structurally different kernels keep the matrix fast.
        picks = [all_workloads[0], all_workloads[8], all_workloads[14]]
        for workload in picks:
            static = static_critical_path(workload.program, config)
            result = builder(
                workload.program, config, workload.make_memory()
            ).run()
            assert static.cycles <= result.cycles, (
                f"{engine_name} finished {workload.name} in "
                f"{result.cycles} cycles, below the static lower bound "
                f"{static.cycles}: timing bug"
            )

    def test_fu_class_breakdown_sums_to_bound(self, livermore_loops):
        for workload in livermore_loops[:5]:
            static = static_critical_path(workload.program)
            assert sum(static.fu_cycles.values()) == static.cycles
