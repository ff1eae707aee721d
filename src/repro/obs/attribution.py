"""Top-down cycle accounting: where did every cycle go?

The paper's comparisons are cycle-level ("the RUU costs N cycles over
Tomasulo on loop 7"), but ``SimResult.stalls`` only counts *events*.
This module turns a :class:`~repro.obs.events.TraceRecorder` run into a
:class:`CycleAttribution`: a partition of **every** simulated cycle into
exactly one bucket --

* ``committed``  -- at least one instruction architecturally retired;
* ``issued``     -- no retirement, but an instruction left decode;
* one bucket per :class:`~repro.machine.stats.StallReason` -- the first
  stall recorded in a cycle with no forward progress;
* ``interrupt``  -- the cycle that took a machine interrupt;
* ``drain``      -- nothing left to fetch and decode empty (pipeline
  emptying at the end of the program);
* ``unaccounted`` -- a cycle the recorder could not explain.  The
  invariant sweep asserts this bucket is **zero** for every engine on
  every bundled loop, which is what makes attribution a correctness
  oracle rather than a best-effort report.

Construction *asserts* that the buckets sum to ``SimResult.cycles`` --
a recorder attached late (or detached early) cannot silently produce a
plausible-looking partial accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..machine.stats import SimResult, StallReason
from .events import COMMITTED, DRAIN, INTERRUPT, ISSUED, TraceRecorder, \
    UNACCOUNTED

#: Canonical bucket order for reports: progress first, then each stall
#: cause, then the terminal states.
BUCKET_ORDER: Tuple[str, ...] = (
    COMMITTED,
    ISSUED,
    StallReason.SOURCE_BUSY,
    StallReason.DEST_BUSY,
    StallReason.FU_BUSY,
    StallReason.RESULT_BUS,
    StallReason.WINDOW_FULL,
    StallReason.NO_TAG,
    StallReason.NO_LOAD_REGISTER,
    StallReason.INSTANCE_LIMIT,
    StallReason.BRANCH_WAIT,
    StallReason.BRANCH_DEAD,
    StallReason.FETCH_MISS,
    StallReason.FETCH_DONE,
    INTERRUPT,
    DRAIN,
    UNACCOUNTED,
)


class AttributionError(AssertionError):
    """The recorder's accounting does not cover the run."""


@dataclass
class CycleAttribution:
    """A complete partition of one run's cycles."""

    engine: str
    workload: str
    cycles: int
    instructions: int
    buckets: Dict[str, int] = field(default_factory=dict)
    #: Raw stall-event counts (events, not cycles; reconciles with
    #: ``SimResult.stalls``).
    stall_events: Dict[str, int] = field(default_factory=dict)

    @property
    def progress_cycles(self) -> int:
        return self.buckets.get(COMMITTED, 0) + self.buckets.get(ISSUED, 0)

    @property
    def utilization(self) -> float:
        """Fraction of cycles with forward progress."""
        if not self.cycles:
            return 0.0
        return self.progress_cycles / self.cycles

    @property
    def unaccounted(self) -> int:
        return self.buckets.get(UNACCOUNTED, 0)

    def ordered(self) -> List[Tuple[str, int]]:
        """(bucket, cycles) in canonical order, non-zero buckets only."""
        out = [
            (bucket, self.buckets[bucket])
            for bucket in BUCKET_ORDER
            if self.buckets.get(bucket)
        ]
        known = set(BUCKET_ORDER)
        out.extend(
            (bucket, count)
            for bucket, count in sorted(self.buckets.items())
            if bucket not in known and count
        )
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "utilization": round(self.utilization, 6),
            "buckets": dict(self.ordered()),
            "stall_events": dict(sorted(self.stall_events.items())),
        }

    def describe(self) -> str:
        lines = [
            f"cycle attribution: {self.engine} on {self.workload} "
            f"({self.instructions} instructions / {self.cycles} cycles, "
            f"utilization {self.utilization:.1%})"
        ]
        total = self.cycles or 1
        for bucket, count in self.ordered():
            bar = "#" * max(1, round(40 * count / total))
            lines.append(
                f"  {bucket:>16s} {count:8d} {count / total:6.1%} {bar}"
            )
        return "\n".join(lines)


def attribute_cycles(result: SimResult,
                     recorder: TraceRecorder) -> CycleAttribution:
    """Fold a recorded run into a :class:`CycleAttribution`.

    Raises :class:`AttributionError` unless the recorder saw *every*
    cycle of the run (attached before ``run()``) and its stall events
    reconcile exactly with ``result.stalls``.
    """
    buckets = dict(recorder.buckets)
    total = sum(buckets.values())
    if total != result.cycles or recorder.cycles_seen != result.cycles:
        raise AttributionError(
            f"{result.engine} on {result.workload}: recorder classified "
            f"{total} cycles (saw {recorder.cycles_seen}) but the run "
            f"took {result.cycles}; was the recorder attached before "
            f"run()?"
        )
    if dict(recorder.stall_counts) != dict(result.stalls):
        raise AttributionError(
            f"{result.engine} on {result.workload}: recorded stall "
            f"events {dict(recorder.stall_counts)} do not reconcile "
            f"with SimResult.stalls {dict(result.stalls)}"
        )
    return CycleAttribution(
        engine=result.engine,
        workload=result.workload,
        cycles=result.cycles,
        instructions=result.instructions,
        buckets=buckets,
        stall_events=dict(recorder.stall_counts),
    )


def attribution_delta(a: CycleAttribution,
                      b: CycleAttribution) -> Dict[str, Tuple[int, int]]:
    """Per-bucket (cycles_a, cycles_b) for every bucket either run hit."""
    keys = set(a.buckets) | set(b.buckets)
    ordered = [k for k in BUCKET_ORDER if k in keys]
    ordered += sorted(keys - set(BUCKET_ORDER))
    return {
        key: (a.buckets.get(key, 0), b.buckets.get(key, 0))
        for key in ordered
    }
