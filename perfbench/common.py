"""Plumbing shared by the perfbench workloads.

Spans, host-speed calibration, percentiles, the golden results digest,
scratch directories, host metadata and peak RSS.  Nothing here imports
``repro`` at module level, so ``run.py`` can refuse to start (non-zero
exit, no result line) when the working directory holds no
``src/repro`` tree.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The benchmark runs from the repository root and keeps every file it
#: writes below it.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_PATH = os.path.join(HERE, "digest.json")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

clock = time.perf_counter


def require_repro() -> None:
    """Put ``src`` first on the import path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no src/repro below the working directory; "
            "run from the repository root"
        )
    sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few reasons.

    A *mismatch* (digest, golden ISS, attribution or trace schema) is a
    failed operation that also makes the run incorrect; a refused or
    errored operation only fails.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, why: str, mismatch: bool = False) -> None:
        self.failed += 1
        if mismatch:
            self.mismatches += 1
        if len(self.problems) < 20:
            self.problems.append(why)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.problems.extend(other.problems[:20 - len(self.problems)])

    @property
    def correct(self) -> bool:
        return self.mismatches == 0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, request id]``.

    ``parent`` is the index of the enclosing span.  Spans may be opened
    from several threads; each caller passes its parent explicitly.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()

    def open(self, name: str, parent: Optional[int] = None,
             rid: Optional[int] = None) -> int:
        return self.add(name, clock(), None, parent, rid)

    def close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = clock()
        return span[2] - span[1]

    def add(self, name: str, start: float, end: Optional[float],
            parent: Optional[int] = None, rid: Optional[int] = None) -> int:
        with self._lock:
            self.spans.append([name, start, end, parent, rid])
            return len(self.spans) - 1

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed duration minus its direct children's."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) \
                - child_time[index]
        return totals

    def remainder_share(self, op_name: str) -> float:
        """Share of the ``op_name`` spans' time that no child span covers."""
        op_ids = {index for index, span in enumerate(self.spans)
                  if span[0] == op_name}
        covered = sum(end - start for _, start, end, parent, _ in self.spans
                      if parent in op_ids)
        total = self.total(op_name)
        return (total - covered) / total if total else 0.0


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: Rate of :func:`calibration_kernel` (calls per second) that defines
#: one *reference second*: its rate on an unloaded reference host (one
#: core of a 2-core x86-64 VM at full clock, CPython 3.11).
REFERENCE_RATE = 20_000.0
CALIBRATION_SECONDS = 0.03
#: The simulator slows by the kernel's slowdown to this power: the
#: log-log slope of simulator time against kernel time, fitted on 847
#: interleaved samples (engines x quick loops) on a 2-core sandbox.
SLOWDOWN_EXPONENT = 0.67


class _Cell:
    __slots__ = ("key", "value")


def calibration_kernel() -> int:
    """A fixed pure-Python mix of allocation, attribute and dict work,
    independent of the simulator, so no change to it can move it."""
    table: Dict[int, int] = {}
    cells = []
    for i in range(256):
        cell = _Cell()
        cell.key = i % 37
        cell.value = i
        cells.append(cell)
        table[cell.key] = table.get(cell.key, 0) + cell.value
    return len(cells) + len(table)


#: An interval whose two speed samples differ by more than this share
#: ran across a change of host speed, which scaling corrects worst.
SPEED_CHANGE = 0.2
#: Times :meth:`HostSpeed.measure` repeats work that hit a change.
MAX_REPEATS = 2


class HostSpeed:
    """Calibration samples interleaved with the measured work.

    The sandbox's CPU speed drops by up to half, for spells of a
    fraction of a second to minutes, for the simulator and the kernel
    alike.  Work is timed in intervals, each ended by a sample
    (:meth:`end_interval`).  :meth:`reference` scales each kept
    duration by the kernel's rate around its interval (see
    ``SLOWDOWN_EXPONENT``), turning host seconds into reference seconds.
    An interval across which the speed changed can be discarded, to be
    repeated (:meth:`measure`) or left out.  A running median of three
    samples keeps a one-sample dip from rescaling the work on either
    side.
    """

    def __init__(self) -> None:
        self.rates: List[float] = []
        #: (durations, index of the sample just before them)
        self.kept: List[Tuple[List[float], int]] = []
        self.discarded = 0

    def sample(self) -> float:
        started = clock()
        calls = 0
        while True:
            calibration_kernel()
            calls += 1
            elapsed = clock() - started
            if elapsed >= CALIBRATION_SECONDS:
                break
        rate = calls / elapsed
        self.rates.append(rate)
        return rate

    def end_interval(self, durations: List[float],
                     may_discard: bool = False) -> bool:
        """Close an interval of measured durations (host seconds).

        Returns False, dropping the durations, when ``may_discard`` is
        set and the host's speed changed across the interval.
        """
        if not self.rates:
            raise RuntimeError("sample() before the first interval")
        before = len(self.rates) - 1
        self.sample()
        pair = self.rates[before:]
        if may_discard and min(pair) < (1.0 - SPEED_CHANGE) * max(pair):
            self.discarded += 1
            return False
        self.kept.append((durations, before))
        return True

    def measure(self, work: Callable[[], tuple]) -> tuple:
        """Run ``work`` (returning ``(durations, ...)``) as one interval,
        repeating it while the host's speed changes across it, at most
        ``MAX_REPEATS`` times; returns what the kept run returned."""
        for attempt in range(MAX_REPEATS + 1):
            done = work()
            if self.end_interval(done[0], attempt < MAX_REPEATS):
                return done
        raise AssertionError("unreachable: the last attempt is kept")

    def reference_intervals(self) -> List[List[float]]:
        """Each kept interval's durations, in reference seconds."""
        smooth = [median(self.rates[max(0, i - 1):i + 2])
                  for i in range(len(self.rates))]
        out = []
        for durations, before in self.kept:
            factor = ((smooth[before] + smooth[before + 1]) / 2.0
                      / REFERENCE_RATE) ** SLOWDOWN_EXPONENT
            out.append([seconds * factor for seconds in durations])
        return out

    def reference(self) -> List[float]:
        """Every kept duration, in reference seconds, in order."""
        return [seconds for interval in self.reference_intervals()
                for seconds in interval]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# golden digest
# ----------------------------------------------------------------------


def point_key(engine: str, workload: str, config) -> str:
    """Digest key of one (engine, workload, window[, paths]) point."""
    key = f"{engine}|{workload}|w{config.window_size}"
    if config.dispatch_paths != 1:
        key += f"|p{config.dispatch_paths}"
    return key


def result_sha(result) -> str:
    """sha256 of a result's canonical (deterministic) bytes."""
    from repro.serve.protocol import canonical_result_bytes

    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


def load_digest(path: str = DIGEST_PATH) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def iss_mismatch(engine, result, golden) -> Optional[str]:
    """Why an engine's final state differs from the golden ISS, if it does."""
    registers = engine.regs.diff(golden.regs)
    memory = engine.memory.diff(golden.memory)
    if engine.interrupt_record is not None:
        return "interrupted"
    if registers or memory or result.instructions != golden.executed:
        return (f"{len(registers)} register(s), {len(memory)} word(s) "
                f"differ; retired {result.instructions} of "
                f"{golden.executed}")
    return None


# ----------------------------------------------------------------------
# scratch space, host facts
# ----------------------------------------------------------------------


class Scratch:
    """Directories under ``.perfbench_tmp`` owned by this process."""

    def __init__(self) -> None:
        self.base = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
        self._ids = itertools.count()

    def new_dir(self, label: str) -> str:
        path = os.path.join(self.base, f"{label}-{next(self._ids)}")
        os.makedirs(path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:  # another run still uses it, or already gone
            pass


def host_metadata() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def spec() -> Dict[str, object]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in spec()[kind]}


def write_result(name: str, payload: Dict[str, object]) -> str:
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
