"""The stdlib Prometheus registry: instruments and text exposition.

The exposition format is a wire contract (scraped by real Prometheus),
so the tests pin exact line shapes: HELP/TYPE headers, label
rendering and escaping, cumulative ``le`` buckets, ``_sum``/``_count``
series, and the duplicate-name guard.
"""

import threading

import pytest

from repro.serve.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("t_total", "things")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labels_partition_the_series(self, registry):
        counter = registry.counter("t_total", "things", ("code",))
        counter.inc(code="200")
        counter.inc(code="200")
        counter.inc(code="429")
        assert counter.value(code="200") == 2
        assert counter.value(code="429") == 1

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("t_total", "things")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        counter = registry.counter("t_total", "things", ("code",))
        with pytest.raises(ValueError):
            counter.inc(status="200")

    def test_render_shape(self, registry):
        counter = registry.counter("t_total", "things", ("code",))
        counter.inc(code="200")
        lines = counter.render()
        assert "# HELP t_total things" in lines
        assert "# TYPE t_total counter" in lines
        assert 't_total{code="200"} 1' in lines

    def test_unlabelled_counter_renders_zero(self, registry):
        lines = registry.counter("t_total", "things").render()
        assert "t_total 0" in lines


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(5)
        gauge.inc()
        gauge.inc(-2)
        assert gauge.value() == 4

    def test_render(self, registry):
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(3)
        assert "depth 3" in gauge.render()


class TestHistogram:
    def test_cumulative_buckets(self, registry):
        histogram = registry.histogram(
            "lat_seconds", "latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        lines = histogram.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1.0"} 3' in lines
        assert 'lat_seconds_bucket{le="10.0"} 4' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 5' in lines
        assert "lat_seconds_count 5" in lines
        assert any(line.startswith("lat_seconds_sum ")
                   for line in lines)
        assert histogram.count() == 5

    def test_boundary_lands_in_its_bucket(self, registry):
        histogram = registry.histogram(
            "lat_seconds", "latency", buckets=(1.0, 2.0)
        )
        histogram.observe(1.0)  # le="1.0" is inclusive
        assert 'lat_seconds_bucket{le="1.0"} 1' in histogram.render()

    def test_labelled_histogram(self, registry):
        histogram = registry.histogram(
            "lat_seconds", "latency", ("endpoint",), buckets=(1.0,)
        )
        histogram.observe(0.5, endpoint="/run")
        lines = histogram.render()
        assert any('endpoint="/run"' in line and 'le="1.0"' in line
                   for line in lines)


class TestRegistry:
    def test_duplicate_name_rejected(self, registry):
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x again")

    def test_render_concatenates_all(self, registry):
        registry.counter("a_total", "a").inc()
        registry.gauge("b", "b").set(2)
        text = registry.render()
        assert "a_total 1" in text
        assert "b 2" in text
        assert text.endswith("\n")

    def test_label_value_escaping(self, registry):
        counter = registry.counter("x_total", "x", ("v",))
        counter.inc(v='say "hi"\nthere')
        line = [ln for ln in counter.render()
                if ln.startswith("x_total{")][0]
        assert '\\"hi\\"' in line
        assert "\\n" in line

    def test_concurrent_increments_do_not_lose_counts(self, registry):
        counter = registry.counter("x_total", "x")
        n, per_thread = 8, 1000

        def spin():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == n * per_thread
