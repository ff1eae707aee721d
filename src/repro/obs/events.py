"""Structured per-cycle event recording for any engine in the zoo.

Attach a :class:`TraceRecorder` to an engine before running::

    engine = RUUEngine(program, config)
    engine.recorder = TraceRecorder()
    result = engine.run()

With no recorder attached (the default) the engine pays one attribute
test per event -- perfbench's ``trace`` workload times that path.

The recorder listens to the four hook streams every engine already
emits -- stage transitions (``Engine.note``), stall causes
(``Engine.stall``), architectural retirement (``_note_retired``) and
decode metadata -- plus one end-of-tick callback per cycle
(``on_cycle``).  The per-cycle callback is what makes *full-cycle*
accounting possible: it folds the cycle's events into exactly one
attribution bucket (see :mod:`repro.obs.attribution`) and, in detail
mode, samples the engine's own ``occupancy()``.  A detail recorder's
stage map is also what :class:`~repro.machine.timeline.Timeline`
renders and what deadlock diagnostics quote as recent history.

Two modes:

* ``detail=True`` (default): keeps per-instruction stage maps,
  instruction metadata, the per-cycle bucket tape and occupancy samples
  -- everything :mod:`repro.obs.chrome` and :mod:`repro.obs.diff` need.
  Memory is O(cycles).
* ``detail=False``: streaming counters only (bucket totals + stall
  totals), O(1) memory -- what the serve workers attach for
  ``"trace": true`` requests.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..isa.opcodes import FUClass

#: Synthetic bucket names (everything else is a ``StallReason`` key).
COMMITTED = "committed"
ISSUED = "issued"
INTERRUPT = "interrupt"
DRAIN = "drain"
UNACCOUNTED = "unaccounted"


class TraceRecorder:
    """Typed per-cycle event capture with streaming cycle attribution."""

    def __init__(self, detail: bool = True, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.detail = detail
        self.sample_every = sample_every

        # -- streaming accounting (both modes) -------------------------
        #: Attribution bucket -> cycles spent there.  Every simulated
        #: cycle lands in exactly one bucket.
        self.buckets: Counter = Counter()
        #: Stall-event counts; mirrors ``SimResult.stalls`` exactly.
        self.stall_counts: Counter = Counter()
        #: Cycles this recorder classified (== engine cycles when the
        #: recorder was attached before the first ``run()``).
        self.cycles_seen = 0
        self.start_cycle: Optional[int] = None

        # -- finalized by on_run_end -----------------------------------
        self.engine_name: Optional[str] = None
        self.workload: Optional[str] = None
        self.final_cycles: Optional[int] = None
        self.instructions: Optional[int] = None
        self.interrupted = False
        #: Final architectural retirement order (post misprediction /
        #: interrupt rollback) -- the commit stream diffs compare.
        self.commit_order: List[int] = []

        # -- detail mode -----------------------------------------------
        #: seq -> {stage: first cycle} (what ``Timeline.of`` renders).
        self.stages: Dict[int, Dict[str, int]] = {}
        #: seq -> (pc, fu name or None, disassembly text).
        self.insts: Dict[int, Tuple[int, Optional[str], str]] = {}
        #: seq -> cycle of the *last* retirement (re-execution wins).
        self.retire_cycles: Dict[int, int] = {}
        #: One bucket name per classified cycle, in cycle order.
        self.cycle_buckets: List[str] = []
        #: (cycle, occupancy dict, result-bus reservations, in-flight).
        self.samples: List[Tuple[int, Dict[str, int], int, int]] = []

        # -- current-cycle scratch -------------------------------------
        self._cycle_retired = False
        self._cycle_issued = False
        self._cycle_stall: Optional[str] = None

    # ------------------------------------------------------------------
    # engine hooks (hot path -- keep them tiny)
    # ------------------------------------------------------------------

    def on_stage(self, seq: int, stage: str, cycle: int) -> None:
        if stage == "issue":
            self._cycle_issued = True
        if self.detail:
            self.stages.setdefault(seq, {}).setdefault(stage, cycle)

    def on_stall(self, reason: str, cycle: int) -> None:
        self.stall_counts[reason] += 1
        if self._cycle_stall is None:
            self._cycle_stall = reason

    def on_retire(self, seq: int, cycle: int) -> None:
        self._cycle_retired = True
        if self.detail:
            self.retire_cycles[seq] = cycle

    def on_inst(self, seq: int, inst) -> None:
        if self.detail:
            # Control flow and NOPs never enter the machine's window
            # (they retire in decode); record no functional unit.
            fu = None if inst.is_control_flow \
                or inst.fu is FUClass.CONTROL else inst.fu.value
            self.insts[seq] = (inst.pc, fu, str(inst))

    def on_cycle(self, engine) -> None:
        """End-of-tick: attribute the cycle just simulated.

        Priority: architectural progress (committed) beats issue beats
        the first stall recorded in the cycle; a cycle with none of
        those is either the one that took an interrupt, a drain cycle
        (nothing left to fetch, decode empty, window emptying), or --
        the invariant the test-suite enforces never happens --
        unaccounted.
        """
        if self.start_cycle is None:
            self.start_cycle = engine.cycle
        if self._cycle_retired:
            bucket = COMMITTED
        elif self._cycle_issued:
            bucket = ISSUED
        elif self._cycle_stall is not None:
            bucket = self._cycle_stall
        elif engine.interrupt_record is not None:
            bucket = INTERRUPT
        elif engine.fetch_done and engine.decode_slot is None:
            bucket = DRAIN
        else:
            bucket = UNACCOUNTED
        self.buckets[bucket] += 1
        self.cycles_seen += 1
        self._cycle_retired = False
        self._cycle_issued = False
        self._cycle_stall = None
        if not self.detail:
            return
        self.cycle_buckets.append(bucket)
        if engine.cycle % self.sample_every == 0:
            self.samples.append((
                engine.cycle,
                engine.occupancy(),
                engine.result_bus.reservations(),
                engine.next_seq - engine.retired,
            ))

    def on_run_end(self, engine) -> None:
        """Snapshot the run's final architectural facts (called by
        ``Engine.run()``; a resumed run overwrites with the new state).
        """
        self.engine_name = engine.name
        self.workload = engine.program.name
        self.final_cycles = engine.cycle
        self.instructions = engine.retired
        self.interrupted = engine.interrupt_record is not None
        self.commit_order = list(engine.retire_log)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def lifetime(self, seq: int) -> Optional[Tuple[int, int]]:
        """(first-stage cycle, retire-or-last-stage cycle) for ``seq``."""
        stages = self.stages.get(seq)
        if not stages:
            return None
        first = min(stages.values())
        last = self.retire_cycles.get(seq, max(stages.values()))
        return first, max(first, last)

    def describe(self) -> str:
        total = sum(self.buckets.values()) or 1
        lines = [
            f"trace: {self.engine_name or '?'} on "
            f"{self.workload or '?'} -- {self.cycles_seen} cycles, "
            f"{len(self.commit_order)} retired"
        ]
        for bucket, count in self.buckets.most_common():
            lines.append(
                f"  {bucket:>16s}: {count:8d}  ({count / total:6.1%})"
            )
        return "\n".join(lines)
