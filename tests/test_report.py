"""Tests for the campaign report generator."""

from collections import Counter

import pytest

from repro.analysis import ENGINE_FACTORIES, ReportSpec, build_report
from repro.workloads import dependency_chain, independent_streams


@pytest.fixture(scope="module")
def report_text():
    spec = ReportSpec(
        engines=("simple", "rstu", "ruu-bypass"),
        window_size=8,
        sweep_engines=("rstu",),
        sweep_sizes=(3, 8),
    )
    return build_report(
        [dependency_chain(60), independent_streams(40)], spec
    )


class TestReport:
    def test_sections_present(self, report_text):
        assert "# RUU reproduction" in report_text
        assert "## Per-loop issue rates" in report_text
        assert "## Aggregate comparison" in report_text
        assert "## Stall breakdown" in report_text
        assert "## Window sweep: rstu" in report_text

    def test_workloads_listed(self, report_text):
        assert "chain" in report_text
        assert "streams" in report_text

    def test_markdown_tables_wellformed(self, report_text):
        for line in report_text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|"), line

    def test_baseline_speedup_is_one(self, report_text):
        agg = report_text.split("## Aggregate comparison")[1]
        first_row = [
            line for line in agg.splitlines() if line.startswith("| simple")
        ][0]
        assert "| 1.000 |" in first_row

    def test_paper_column_in_sweep(self, report_text):
        sweep = report_text.split("## Window sweep: rstu")[1]
        # size 3 and 8 are in TABLE2, so paper cells are numeric
        assert "0.965" in sweep or "1.553" in sweep

    def test_optional_sections_toggle(self):
        spec = ReportSpec(
            engines=("simple",), sweep_engines=(),
            include_per_loop=False, include_stalls=False,
        )
        text = build_report([dependency_chain(40)], spec)
        assert "Per-loop" not in text
        assert "Stall breakdown" not in text
        assert "Aggregate comparison" in text

    def test_deterministic(self):
        spec = ReportSpec(engines=("simple",), sweep_engines=())
        workloads = [dependency_chain(40)]
        assert build_report(workloads, spec) == build_report(workloads, spec)

    def test_each_pair_simulated_once(self, monkeypatch):
        """The per-loop table and the aggregate comparison share one
        run of every (engine, workload) pair."""
        built = Counter()

        def counting(name, real):
            def build(program, config, memory):
                built[(name, program.name)] += 1
                return real(program, config, memory)
            return build

        for name in ("simple", "rstu"):
            monkeypatch.setitem(
                ENGINE_FACTORIES, name,
                counting(name, ENGINE_FACTORIES[name]),
            )
        workloads = [dependency_chain(40), independent_streams(30)]
        spec = ReportSpec(engines=("simple", "rstu"), sweep_engines=())
        build_report(workloads, spec)
        assert built == {
            (name, workload.name): 1
            for name in ("simple", "rstu") for workload in workloads
        }
