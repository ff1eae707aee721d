"""Tests for the self-verification module and its CLI command."""

import pytest

from repro.__main__ import main
from repro.analysis import verify_all
from repro.machine import MachineConfig
from repro.workloads import dependency_chain, livermore_suite


@pytest.fixture(scope="module")
def quick():
    return livermore_suite("quick")


class TestVerifyEngine:
    def test_good_engine_passes(self, quick):
        checks = verify_all(quick, MachineConfig(window_size=8),
                            engines=["ruu-bypass"])
        assert len(checks) == 14
        assert all(check.passed for check in checks)
        assert all(check.describe().startswith("[ok] ruu-bypass on ")
                   for check in checks)

    def test_all_engines_pass(self, quick):
        checks = verify_all(quick[:3], MachineConfig(window_size=8))
        assert len(checks) == 14 * 3  # all registered engines
        assert all(check.passed for check in checks)

    def test_subset_of_engines(self, quick):
        checks = verify_all(quick[:2], engines=["simple", "rstu"])
        assert [check.engine for check in checks] == \
            ["simple", "simple", "rstu", "rstu"]
        assert [check.workload for check in checks] == \
            [quick[0].name, quick[1].name] * 2

    def test_unknown_engine_raises(self, quick):
        with pytest.raises(KeyError):
            verify_all(quick[:1], engines=["nope"])

    def test_failure_detected(self, quick, monkeypatch):
        """Sabotage an engine's result and check the report catches it."""
        from repro.analysis.sweeps import ENGINE_FACTORIES
        from repro.isa import A

        real = ENGINE_FACTORIES["simple"]

        def broken(program, config, memory):
            engine = real(program, config, memory)
            original_run = engine.run

            def run(*args, **kwargs):
                result = original_run(*args, **kwargs)
                engine.regs.write(A(6), 123456)  # corrupt a register
                return result

            engine.run = run
            return engine

        monkeypatch.setitem(ENGINE_FACTORIES, "simple", broken)
        [check] = verify_all([dependency_chain(30)], engines=["simple"])
        assert not check.passed
        assert "registers diverge from the golden run" in check.describe()

    def test_golden_trap_fails_every_engine(self):
        """A program whose golden run traps has nothing to check the
        engines against: one failed check per engine, naming the trap,
        instead of the trap escaping."""
        from repro.isa import assemble
        from repro.machine import Memory
        from repro.workloads.base import Workload

        program = assemble("S_IMM S1, 0.0\nF_RECIP S2, S1\nHALT\n",
                           "recip0")
        workload = Workload(name="recip0", program=program,
                            initial_memory=Memory())
        checks = verify_all([workload], engines=["simple", "ruu-bypass"])
        assert [check.engine for check in checks] == \
            ["simple", "ruu-bypass"]
        for check in checks:
            assert not check.passed and not check.completed
            assert check.workload == "recip0"
            assert "golden model trapped: ArithmeticFault: " \
                "reciprocal of zero" in check.describe()


class TestVerifyCLI:
    def test_verify_ok(self, capsys):
        rc = main(["verify", "ruu-bypass", "--suite", "synthetic"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_unknown_engine(self, capsys):
        rc = main(["verify", "not-an-engine"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().out


class TestDrillCLI:
    def test_drill_passes_with_cross_engine_points(self, tmp_path, capsys):
        import json

        report = tmp_path / "drill.json"
        rc = main(["drill", "ruu-bypass", "history-buffer",
                   "--suite", "synthetic", "--json", str(report)])
        assert rc == 0, capsys.readouterr().out
        document = json.loads(report.read_text())
        assert document["passed"] is True
        points = document["points"]
        routes = {(p["engine"], p["restored_into"]) for p in points}
        assert routes == {
            ("ruu-bypass", "ruu-bypass"), ("ruu-bypass", "ruu-nobypass"),
            ("history-buffer", "history-buffer"),
            ("history-buffer", "future-file"),
        }
        assert all(p["passed"] for p in points)
        assert any(p["trap_seq"] is not None for p in points)

    def test_drill_of_imprecise_engine_fails(self, capsys):
        rc = main(["drill", "simple", "--suite", "synthetic"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "trap was imprecise" in out
