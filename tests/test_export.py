"""Tests for ASCII charts."""

from repro.analysis import ascii_chart


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
