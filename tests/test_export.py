"""Tests for CSV export and ASCII charts."""

import csv
import io

import pytest

from repro.analysis import (
    ascii_chart,
    sweep_to_csv,
    sweep_to_rows,
    sweep_sizes,
)
from repro.workloads import dependency_chain


@pytest.fixture(scope="module")
def sweep():
    return sweep_sizes(
        "ruu-bypass", [3, 8], workloads=[dependency_chain(60)]
    )


class TestSweepExport:
    def test_rows(self, sweep):
        rows = sweep_to_rows(sweep)
        assert [row["size"] for row in rows] == [3, 8]
        assert all(row["engine"] == "ruu-bypass" for row in rows)
        assert all(row["baseline_cycles"] > 0 for row in rows)

    def test_csv_parses_back(self, sweep):
        text = sweep_to_csv(sweep)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 2
        assert float(parsed[0]["speedup"]) == pytest.approx(
            sweep.rows[0].speedup
        )


class TestAsciiChart:
    CURVES = {
        "rstu": {3: 1.1, 10: 2.2, 30: 2.4},
        "ruu": {3: 1.0, 10: 1.8, 30: 2.1},
    }

    def test_renders_axes_and_legend(self):
        chart = ascii_chart(self.CURVES, title="speedups")
        assert "speedups" in chart
        assert "*=rstu" in chart or "*=ruu" in chart
        assert "+--" in chart or "+-" in chart

    def test_empty(self):
        assert ascii_chart({}) == "(no curves)"

    def test_peak_on_top_row(self):
        chart = ascii_chart({"one": {1: 4.0, 2: 2.0}}, height=8)
        top_row = chart.splitlines()[0]
        assert "4.00" in top_row

    def test_single_point(self):
        chart = ascii_chart({"p": {5: 1.0}})
        assert "p" in chart

    def test_distinct_glyphs(self):
        chart = ascii_chart(self.CURVES)
        body = "\n".join(chart.splitlines()[:-2])
        assert "*" in body and "o" in body
