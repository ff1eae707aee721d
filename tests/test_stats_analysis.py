"""Tests for SimResult arithmetic, sweeps, tables and shape metrics."""

import pytest

from repro.analysis import (
    ENGINE_FACTORIES,
    format_comparison,
    format_sweep_table,
    format_table1,
    monotonic_fraction,
    normalized_curve,
    ordering_holds,
    paper_data,
    per_loop_baseline,
    run_suite,
    saturation_size,
    shape_report,
    spearman,
    sweep_sizes,
)
from repro.machine import MachineConfig, SimResult, aggregate, speedup
from repro.workloads import dependency_chain, independent_streams


class TestSimResult:
    def test_issue_rate(self):
        result = SimResult("e", "w", cycles=200, instructions=100)
        assert result.issue_rate == 0.5

    def test_issue_rate_zero_cycles(self):
        assert SimResult("e", "w", 0, 0).issue_rate == 0.0

    def test_describe(self):
        text = SimResult("ruu", "LLL1", 100, 50).describe()
        assert "ruu" in text and "0.500" in text

    def test_speedup(self):
        base = SimResult("simple", "w", cycles=300, instructions=100)
        fast = SimResult("ruu", "w", cycles=150, instructions=100)
        assert speedup(base, fast) == 2.0

    def test_speedup_rejects_mismatched_workloads(self):
        with pytest.raises(ValueError):
            speedup(SimResult("a", "w1", 1, 1), SimResult("b", "w2", 1, 1))

    def test_aggregate_totals_not_mean_of_rates(self):
        # Paper: total instructions / total cycles.
        a = SimResult("e", "w1", cycles=100, instructions=100)  # rate 1.0
        b = SimResult("e", "w2", cycles=300, instructions=30)   # rate 0.1
        agg = aggregate([a, b])
        assert agg.issue_rate == pytest.approx(130 / 400)

    def test_aggregate_rejects_mixed_engines(self):
        with pytest.raises(ValueError):
            aggregate([SimResult("a", "w", 1, 1), SimResult("b", "w", 1, 1)])

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestShapeMetrics:
    def test_monotonic_fraction(self):
        assert monotonic_fraction({1: 1.0, 2: 2.0, 3: 3.0}) == 1.0
        assert monotonic_fraction({1: 3.0, 2: 2.0, 3: 1.0}) == 0.0
        assert monotonic_fraction({1: 1.0, 2: 0.995, 3: 2.0}) == 1.0

    def test_saturation_size(self):
        curve = {3: 1.0, 10: 1.72, 20: 1.79, 30: 1.8}
        assert saturation_size(curve, threshold=0.95) == 10
        assert saturation_size(curve, threshold=0.99) == 20

    def test_spearman_perfect(self):
        a = {1: 1.0, 2: 2.0, 3: 3.0}
        b = {1: 10.0, 2: 20.0, 3: 30.0}
        assert spearman(a, b) == pytest.approx(1.0)

    def test_spearman_inverted(self):
        a = {1: 1.0, 2: 2.0, 3: 3.0}
        b = {1: 3.0, 2: 2.0, 3: 1.0}
        assert spearman(a, b) == pytest.approx(-1.0)

    def test_spearman_needs_overlap(self):
        with pytest.raises(ValueError):
            spearman({1: 1.0}, {2: 2.0})

    def test_normalized_curve(self):
        curve = normalized_curve({1: 2.0, 2: 4.0})
        assert curve == {1: 0.5, 2: 1.0}

    def test_ordering_holds(self):
        curves = {
            "fast": {10: 2.0},
            "mid": {10: 1.5},
            "slow": {10: 1.0},
        }
        assert ordering_holds(curves, ["fast", "mid", "slow"], at_size=10)
        assert not ordering_holds(curves, ["slow", "fast", "mid"],
                                  at_size=10, tolerance=0.0)

    def test_shape_report_keys(self):
        report = shape_report({1: 1.0, 2: 2.0}, {1: 1.1, 2: 2.2}, "x")
        assert set(report) >= {
            "spearman", "monotonic_fraction", "saturation_measured",
        }


class TestPaperData:
    def test_table1_total_consistent(self):
        instructions = sum(v[0] for v in paper_data.TABLE1_BASELINE.values())
        cycles = sum(v[1] for v in paper_data.TABLE1_BASELINE.values())
        assert instructions == paper_data.TABLE1_TOTAL[0]
        assert cycles == paper_data.TABLE1_TOTAL[1]
        assert instructions / cycles == pytest.approx(
            paper_data.TABLE1_TOTAL[2], abs=5e-4
        )

    def test_speedup_and_rate_consistent_within_tables(self):
        # speedup / issue-rate should be a constant per table (both are
        # normalized by the same baseline cycles).
        for table in (
            paper_data.TABLE2_RSTU,
            paper_data.TABLE4_RUU_BYPASS,
            paper_data.TABLE5_RUU_NOBYPASS,
            paper_data.TABLE6_RUU_LIMITED,
        ):
            ratios = [spd / rate for spd, rate in table.values()]
            assert max(ratios) - min(ratios) < 0.02

    def test_paper_orderings(self):
        # At size 30, the paper's own ordering.
        assert (
            paper_data.TABLE3_RSTU_2PATH[30][0]
            > paper_data.TABLE2_RSTU[30][0]
        )
        assert (
            paper_data.TABLE4_RUU_BYPASS[30][0]
            > paper_data.TABLE6_RUU_LIMITED[30][0]
            > paper_data.TABLE5_RUU_NOBYPASS[30][0]
        )


class TestSweepHarness:
    @pytest.fixture(scope="class")
    def tiny_suite(self):
        return [dependency_chain(80), independent_streams(40)]

    def test_run_suite_aggregates(self, tiny_suite):
        result = run_suite("simple", tiny_suite)
        assert result.instructions > 0
        assert "+" in result.workload

    def test_sweep_produces_rows(self, tiny_suite):
        sweep = sweep_sizes("ruu-bypass", [3, 8], workloads=tiny_suite)
        assert [row.size for row in sweep.rows] == [3, 8]
        assert sweep.rows[1].speedup >= sweep.rows[0].speedup - 0.01

    def test_sweep_config_overrides(self, tiny_suite):
        one = sweep_sizes("rstu", [6], workloads=tiny_suite)
        two = sweep_sizes("rstu", [6], workloads=tiny_suite,
                          dispatch_paths=2)
        assert two.rows[0].cycles <= one.rows[0].cycles

    def test_shared_baseline_reused(self, tiny_suite):
        base = run_suite("simple", tiny_suite)
        sweep = sweep_sizes("rstu", [4], workloads=tiny_suite, baseline=base)
        assert sweep.baseline is base

    def test_per_loop_baseline(self, tiny_suite):
        results = per_loop_baseline(tiny_suite)
        assert [r.workload for r in results] == ["chain", "streams"]

    def test_every_factory_runs(self, tiny_suite):
        config = MachineConfig(window_size=6)
        for name in ENGINE_FACTORIES:
            result = run_suite(name, tiny_suite, config)
            assert result.instructions > 0, name


class TestTables:
    def test_format_table1(self, ):
        results = [
            SimResult("simple", "LLL1", cycles=100, instructions=42),
            SimResult("simple", "LLL2", cycles=200, instructions=84),
        ]
        text = format_table1(results, paper_data.TABLE1_BASELINE)
        assert "LLL1" in text and "Total" in text and "Paper" in text

    def test_format_sweep_table(self):
        from repro.analysis import Sweep, SweepRow
        sweep = Sweep(
            engine="rstu",
            baseline=SimResult("simple", "w", 100, 50),
            rows=[SweepRow(3, 1.0, 0.4, 100), SweepRow(10, 1.5, 0.6, 66)],
        )
        text = format_sweep_table(sweep, paper_data.TABLE2_RSTU, "Table 2")
        assert "Table 2" in text
        assert "0.965" in text  # paper column for size 3

    def test_format_comparison(self):
        text = format_comparison(
            {"a": {3: 1.0, 10: 2.0}, "b": {3: 0.9, 10: 1.8}},
            sizes=[3, 10],
        )
        assert "a" in text and "10" in text

    def test_format_table1_without_paper_columns(self):
        results = [SimResult("simple", "LLL1", cycles=100, instructions=42)]
        text = format_table1(results)
        assert "Paper" not in text
        assert "LLL1" in text and "Total" in text

    def test_format_sweep_table_without_paper(self):
        from repro.analysis import Sweep, SweepRow
        sweep = Sweep(
            engine="rstu",
            baseline=SimResult("simple", "w", 100, 50),
            rows=[SweepRow(3, 1.0, 0.4, 100)],
        )
        text = format_sweep_table(sweep)
        assert "Paper" not in text
        assert "1.000" in text

    def test_format_comparison_missing_size_is_nan(self):
        text = format_comparison(
            {"a": {3: 1.0}, "b": {10: 2.0}}, sizes=[3, 10]
        )
        assert "nan" in text
