"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import main


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text("""
        A_IMM A0, 3
    loop:
        A_ADDI A0, A0, -1
        BR_NONZERO A0, loop
        HALT
    """)
    return str(path)


class TestRunCommand:
    def test_run_default_engine(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        out = capsys.readouterr().out
        assert "ruu-bypass" in out
        assert "instructions" in out

    def test_run_each_engine(self, asm_file, capsys):
        for engine in ("simple", "rstu", "spec-ruu", "history-buffer"):
            assert main(["run", asm_file, "--engine", engine]) == 0

    def test_run_with_registers(self, asm_file, capsys, tmp_path):
        path = tmp_path / "regs.asm"
        path.write_text("A_IMM A5, 42\nHALT")
        assert main(["run", str(path), "--registers"]) == 0
        assert "A5 = 42" in capsys.readouterr().out

    def test_window_flag(self, asm_file):
        assert main(["run", asm_file, "--window", "4"]) == 0

    @pytest.mark.parametrize("command, window", [
        ("run", "0"), ("run", "-2"), ("lint", "0"),
    ])
    def test_window_below_minimum_refused(self, asm_file, capsys,
                                          command, window):
        assert main([command, asm_file, "--window", window]) == 2
        err = capsys.readouterr().err
        assert "'window_size' must be at least 1" in err

    def test_timeline_flag_prints_gantt(self, asm_file, capsys):
        assert main(["run", asm_file, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "D=decode I=issue X=dispatch C=complete R=commit" in out
        assert "average stage delays" in out
        assert "cycles 0.." in out

    def test_no_timeline_by_default(self, asm_file, capsys):
        assert main(["run", asm_file]) == 0
        assert "D=decode" not in capsys.readouterr().out


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_version_matches_package(self, capsys):
        from repro.version import get_version

        with pytest.raises(SystemExit):
            main(["--version"])
        assert get_version() in capsys.readouterr().out


class TestLoopsCommand:
    def test_lists_all_fourteen(self, capsys):
        assert main(["loops"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 15):
            assert f"LLL{number}" in out


class TestCompareCommand:
    def test_compare_subset(self, capsys):
        assert main(["compare", "3", "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "simple" in out and "ruu-bypass" in out
        assert "speedup" in out


class TestTablesCommand:
    def test_cache_dir_serves_the_second_run(self, tmp_path, monkeypatch,
                                             capsys):
        """``--cache-dir`` is honoured at the default ``--jobs 1``: a
        repeat run answers every point from the cache."""
        from repro.workloads import lll1, lll3

        monkeypatch.setattr("repro.__main__.all_loops",
                            lambda: [lll1(n=20), lll3(n=20)])
        cache_dir = str(tmp_path / "cache")
        summaries = []
        for _ in range(2):
            assert main(["tables", "--cache-dir", cache_dir]) == 0
            summaries.append(capsys.readouterr().out.splitlines()[-1])
        points = re.match(r"\[(\d+) points", summaries[1]).group(1)
        assert f"cache 0 hits / {points} misses]" in summaries[0]
        assert f"cache {points} hits / 0 misses]" in summaries[1]


class TestArgErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_engine(self, asm_file):
        with pytest.raises(SystemExit):
            main(["run", asm_file, "--engine", "nope"])


class TestHelpListsCommands:
    def test_help_lists_trace_and_diff(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("run", "trace", "diff", "serve"):
            assert command in out


class TestTimelineJson:
    def test_timeline_json_round_trips(self, asm_file, tmp_path, capsys):
        import json

        from repro.machine import Timeline

        path = tmp_path / "timeline.json"
        assert main(["run", asm_file, "--timeline-json", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        timeline = Timeline.from_json(payload)
        assert timeline.sequences()
        assert timeline.to_json() == payload

    def test_timeline_json_without_gantt(self, asm_file, tmp_path,
                                         capsys):
        path = tmp_path / "timeline.json"
        assert main(["run", asm_file, "--timeline-json", str(path)]) == 0
        assert "D=decode" not in capsys.readouterr().out

    def test_first_last_window_the_gantt(self, asm_file, capsys):
        assert main(["run", asm_file, "--timeline",
                     "--first", "2", "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert "#2" in out and "#3" in out
        assert "#0 " not in out and "#4 " not in out


class TestTraceCommand:
    def test_trace_writes_valid_chrome_json(self, asm_file, tmp_path,
                                            capsys):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        assert main(["trace", asm_file, "--engine", "tomasulo",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "committed" in out
        document = json.loads(out_path.read_text())
        assert validate_chrome_trace(document) == []

    def test_trace_accepts_workload_names(self, capsys):
        assert main(["trace", "LLL1", "--engine", "simple",
                     "--window", "8"]) == 0
        assert "LLL1" in capsys.readouterr().out

    def test_trace_unknown_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            main(["trace", str(tmp_path / "missing.asm")])


class TestDiffCommand:
    def test_self_diff_reports_no_divergence(self, asm_file, capsys):
        assert main(["diff", asm_file,
                     "--engines", "ruu-bypass,ruu-bypass"]) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out
        assert "commit stream: identical" in out

    def test_cross_engine_diff_on_workload(self, capsys):
        assert main(["diff", "LLL3", "--engines", "ruu-bypass,tomasulo",
                     "--window", "8", "--iss"]) == 0
        out = capsys.readouterr().out
        assert "ruu-bypass vs tomasulo" in out
        assert "matches the golden ISS commit order" in out
        assert "diverges from the golden ISS" in out

    def test_diff_json_output(self, asm_file, tmp_path, capsys):
        import json

        path = tmp_path / "diff.json"
        assert main(["diff", asm_file, "--engines", "simple,rstu",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["engine_a"] == "simple"
        assert payload["engine_b"] == "rstu"
        assert isinstance(payload["identical"], bool)

    def test_diff_needs_exactly_two_engines(self, asm_file, capsys):
        assert main(["diff", asm_file, "--engines", "simple"]) == 2
        assert main(["diff", asm_file,
                     "--engines", "simple,rstu,ruu-bypass"]) == 2

    def test_diff_rejects_unknown_engine(self, asm_file, capsys):
        assert main(["diff", asm_file, "--engines", "simple,nope"]) == 2
        assert "unknown engine" in capsys.readouterr().out
