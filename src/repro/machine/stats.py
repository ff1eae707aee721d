"""Simulation statistics and results.

Every engine's ``run()`` returns a :class:`SimResult`.  The two numbers
the paper reports are ``cycles`` and the derived ``issue_rate``
(instructions per cycle); speedups are computed between results by
:func:`speedup`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


class StallReason:
    """Canonical names for issue-stall causes (keys of ``stalls``)."""

    SOURCE_BUSY = "source_busy"          # waiting for a source register
    DEST_BUSY = "dest_busy"              # destination register busy
    FU_BUSY = "fu_busy"                  # functional unit cannot accept
    RESULT_BUS = "result_bus"            # no result-bus slot
    WINDOW_FULL = "window_full"          # RS pool / RSTU / RUU full
    NO_TAG = "no_tag"                    # tag unit exhausted
    NO_LOAD_REGISTER = "no_load_register"
    INSTANCE_LIMIT = "instance_limit"    # NI counter saturated (2^n - 1)
    BRANCH_WAIT = "branch_wait"          # branch waiting for its condition
    BRANCH_DEAD = "branch_dead"          # dead cycles after a branch
    FETCH_MISS = "fetch_miss"            # instruction-buffer fill
    FETCH_DONE = "fetch_done"            # nothing left to fetch (drain)


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    engine: str
    workload: str
    cycles: int
    instructions: int
    stalls: Counter = field(default_factory=Counter)
    branches: int = 0
    branches_taken: int = 0
    interrupts: int = 0
    mispredictions: int = 0
    squashed: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def issue_rate(self) -> float:
        """Average instructions executed per clock cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def describe(self) -> str:
        """A one-line human-readable summary."""
        return (
            f"{self.engine:>14s} on {self.workload}: "
            f"{self.instructions} instructions in {self.cycles} cycles "
            f"(issue rate {self.issue_rate:.3f})"
        )


def speedup(baseline: SimResult, candidate: SimResult) -> float:
    """Relative speedup of ``candidate`` over ``baseline`` (same workload).

    Matches the paper's definition: baseline cycles / candidate cycles.
    """
    if baseline.workload != candidate.workload:
        raise ValueError(
            f"speedup across different workloads: {baseline.workload!r} "
            f"vs {candidate.workload!r}"
        )
    if candidate.cycles == 0:
        raise ValueError("candidate ran for zero cycles")
    return baseline.cycles / candidate.cycles


def aggregate(results) -> SimResult:
    """Combine per-loop results the way the paper aggregates Table 1.

    Total instructions divided by total cycles -- *not* the mean of the
    individual rates (the paper is explicit about this).
    """
    results = list(results)
    if not results:
        raise ValueError("nothing to aggregate")
    engines = {result.engine for result in results}
    if len(engines) != 1:
        raise ValueError(f"mixed engines in aggregate: {sorted(engines)}")
    total = SimResult(
        engine=results[0].engine,
        workload="+".join(result.workload for result in results),
        cycles=sum(result.cycles for result in results),
        instructions=sum(result.instructions for result in results),
    )
    for result in results:
        total.stalls.update(result.stalls)
        total.branches += result.branches
        total.branches_taken += result.branches_taken
        total.interrupts += result.interrupts
        total.mispredictions += result.mispredictions
        total.squashed += result.squashed
    return total
