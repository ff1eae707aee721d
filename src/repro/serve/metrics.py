"""A minimal Prometheus text-format metrics registry (stdlib only).

Exactly the three instrument kinds the serving layer needs -- counters,
gauges, and cumulative histograms -- rendered in the Prometheus
exposition text format (version 0.0.4) by :meth:`MetricsRegistry.render`.
All instruments are thread-safe: request handlers run on the event
loop while the dispatcher settles points from its own thread.

Labels are passed as keyword arguments at observation time::

    registry = MetricsRegistry()
    requests = registry.counter(
        "repro_serve_requests_total", "HTTP requests", ("endpoint", "code")
    )
    requests.inc(endpoint="/run", code="200")
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond cache hits up to
#: multi-minute cold simulations.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(label_names: Sequence[str],
               labels: Dict[str, str]) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple((name, str(labels[name])) for name in label_names)


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None
                   ) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\")
                         .replace('"', '\\"').replace("\n", "\\n"))
        for name, value in pairs
    )
    return "{" + body + "}"


def _render_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


class _Instrument:
    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(
                f"{self.name}{_render_labels(key)} {_render_value(value)}"
            )
        return lines


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, in-flight points)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(
                f"{self.name}{_render_labels(key)} {_render_value(value)}"
            )
        return lines


class Histogram(_Instrument):
    """A cumulative histogram of observations (request latency)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.label_names, labels)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.setdefault(
                key, [0] * len(self.buckets)
            )
            if slot < len(counts):
                counts[slot] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._totals.get(key, 0)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            keys = sorted(self._totals) or (
                [()] if not self.label_names else []
            )
            for key in keys:
                counts = self._counts.get(key, [0] * len(self.buckets))
                cumulative = 0
                for bound, count in zip(self.buckets, counts):
                    cumulative += count
                    lines.append(
                        f"{self.name}_bucket"
                        f"{_render_labels(key, ('le', repr(bound)))} "
                        f"{cumulative}"
                    )
                total = self._totals.get(key, 0)
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, ('le', '+Inf'))} {total}"
                )
                lines.append(
                    f"{self.name}_sum{_render_labels(key)} "
                    f"{_render_value(self._sums.get(key, 0.0))}"
                )
                lines.append(
                    f"{self.name}_count{_render_labels(key)} {total}"
                )
        return lines


class MetricsRegistry:
    """Ordered collection of instruments with one text rendering."""

    def __init__(self) -> None:
        self._instruments: List[_Instrument] = []
        self._lock = threading.Lock()

    def _register(self, instrument: _Instrument) -> None:
        with self._lock:
            if any(i.name == instrument.name for i in self._instruments):
                raise ValueError(
                    f"duplicate metric name {instrument.name!r}"
                )
            self._instruments.append(instrument)

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> Counter:
        instrument = Counter(name, help_text, label_names)
        self._register(instrument)
        return instrument

    def gauge(self, name: str, help_text: str,
              label_names: Sequence[str] = ()) -> Gauge:
        instrument = Gauge(name, help_text, label_names)
        self._register(instrument)
        return instrument

    def histogram(self, name: str, help_text: str,
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        instrument = Histogram(name, help_text, label_names, buckets)
        self._register(instrument)
        return instrument

    def render(self) -> str:
        """The full exposition document (trailing newline included)."""
        with self._lock:
            instruments = list(self._instruments)
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"
