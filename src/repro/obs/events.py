"""Structured per-cycle event recording for any engine in the zoo.

Attach a :class:`TraceRecorder` to an engine before running::

    engine = RUUEngine(program, config)
    engine.recorder = TraceRecorder()
    result = engine.run()

With no recorder attached (the default) the engine pays one attribute
test per event -- perfbench's ``zoo`` workload times that path; its
``trace`` workload attaches a detail recorder.

The recorder listens to the four hook streams every engine already
emits -- stage transitions (``on_stage``, called where each stage
happens, behind an ``if self.recorder is not None`` test), stall causes
(``Engine.stall``), architectural retirement (``_note_retired``) and
decode metadata -- plus one end-of-tick callback per cycle
(``on_cycle``), or one per idle span an engine jumps over
(``on_idle``).  The per-cycle callback is what makes *full-cycle*
accounting possible: it folds the cycle's events into exactly one
attribution bucket (see :mod:`repro.obs.attribution`) and, in detail
mode, samples the engine's own occupancy counts.  A detail recorder's
stage map is also what :class:`~repro.machine.timeline.Timeline`
renders and what deadlock diagnostics quote as recent history.

Two modes:

* ``detail=True`` (default): keeps per-instruction stage cycles,
  instruction metadata, the per-cycle bucket tape and occupancy samples
  -- everything :mod:`repro.obs.chrome` and :mod:`repro.obs.diff` need.
  Memory is O(cycles).
* ``detail=False``: streaming counters only (bucket totals + stall
  totals), O(1) memory -- what the serve workers attach for
  ``"trace": true`` requests.

Detail storage is flat and append-only, so recording allocates no
container per instruction or per cycle:

* one int column per stage (:data:`STAGES` order), indexed by seq, -1
  where the instruction never reached that stage, plus a retire-cycle
  column and a column of the static ``Instruction`` decoded under each
  seq (its ``(pc, fu, text)`` is built once per static instruction);
* the bucket tape, a ``bytearray`` of bucket ids (``bucket_names``
  maps them back); a detail recorder's ``buckets`` and
  ``cycles_seen`` are counted from it;
* occupancy samples as flat int rows -- cycle, result-bus
  reservations outstanding after it, in-flight instructions, then the
  occupancy values --
  with the occupancy keys kept once per run of samples that share
  them.  A sample appends the ints of the engine's
  ``occupancy_counts()``; its ``occupancy_keys`` are fixed per engine
  class, so a run has one key set (a change of keys starts a new run).

``stage_maps()`` (seq -> {stage: first cycle}), ``inst_info`` (a
static instruction's ``(pc, fu, text)``), ``cycle_buckets`` and
``samples`` are built from the columns on demand.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..isa.opcodes import FUClass
from ..machine.timeline import STAGES

#: Synthetic bucket names (everything else is a ``StallReason`` key).
COMMITTED = "committed"
ISSUED = "issued"
INTERRUPT = "interrupt"
DRAIN = "drain"
UNACCOUNTED = "unaccounted"

#: (pc, functional-unit name or None, disassembly text).
InstInfo = Tuple[int, Optional[str], str]

#: (occupancy keys, flat sample rows of ``SAMPLE_FIELDS + len(keys)``
#: ints: cycle, result-bus reservations after that cycle, in-flight,
#: occupancy values).
SampleRun = Tuple[Tuple[str, ...], List[int]]

#: Leading fields of every sample row (cycle, bus, in-flight).
SAMPLE_FIELDS = 3

_CYCLE = itemgetter(1)


class TraceRecorder:
    """Typed per-cycle event capture with streaming cycle attribution."""

    def __init__(self, detail: bool = True, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.detail = detail
        self.sample_every = sample_every

        # -- streaming accounting (both modes) -------------------------
        #: Stall-event counts; mirrors ``SimResult.stalls`` exactly.
        self.stall_counts: Counter = Counter()
        self.start_cycle: Optional[int] = None
        # Bucket totals and classified cycles without detail (a detail
        # recorder counts both from its tape).
        self._buckets: Counter = Counter()
        self._cycles = 0

        # -- finalized by on_run_end -----------------------------------
        self.engine_name: Optional[str] = None
        self.workload: Optional[str] = None
        self.final_cycles: Optional[int] = None
        self.instructions: Optional[int] = None
        self.interrupted = False
        #: Final architectural retirement order (post misprediction /
        #: interrupt rollback) -- the commit stream diffs compare.
        self.commit_order: List[int] = []

        # -- detail mode: flat columns (read-only to consumers) ---------
        #: The seq columns cover seqs ``0 .. seqs - 1``; they may hold
        #: spare capacity past that.
        self.seqs = 0
        #: One column per stage in :data:`STAGES` order: seq -> first
        #: cycle the instruction reached that stage, -1 if never.
        self.stage_cycles: Tuple[List[int], ...] = tuple(
            [] for _ in STAGES)
        #: seq -> cycle of the *last* retirement (re-execution wins),
        #: -1 if never retired.
        self.retire_cycle: List[int] = []
        #: seq -> the static instruction last decoded under it, or None.
        self.inst_of: List[object] = []
        #: One bucket id per classified cycle, in cycle order.
        self.bucket_tape = bytearray()
        #: bucket id -> bucket name, in order of first appearance.
        self.bucket_names: List[str] = []
        #: Samples, one run per stretch of identical occupancy keys.
        self.sample_runs: List[SampleRun] = []

        self._stage_column = dict(zip(STAGES, self.stage_cycles))
        self._bucket_ids: Dict[str, int] = {}
        self._sample_keys: Optional[Tuple[str, ...]] = None
        self._sample_rows: List[int] = []
        #: id(inst) -> (inst, info); holding the instruction keeps its
        #: id from being reused.
        self._described: Dict[int, Tuple[object, InstInfo]] = {}

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
            if seq >= self.seqs:
                self._cover(seq)
            column = self._stage_column[stage]
            if column[seq] < 0:
                column[seq] = cycle

    def on_stall(self, reason: str, cycle: int) -> None:
        self.stall_counts[reason] += 1
        if self._cycle_stall is None:
            self._cycle_stall = reason

    def on_retire(self, seq: int, cycle: int) -> None:
        self._cycle_retired = True
        if self.detail:
            if seq >= self.seqs:
                self._cover(seq)
            self.retire_cycle[seq] = cycle

    def on_inst(self, seq: int, inst) -> None:
        if self.detail:
            if seq >= self.seqs:
                self._cover(seq)
            self.inst_of[seq] = inst

    def on_cycle(self, engine) -> None:
        """End-of-tick: attribute the cycle just simulated.

        Priority: architectural progress (committed) beats issue beats
        the first stall recorded in the cycle; a cycle with none of
        those is either the one that took an interrupt, a drain cycle
        (nothing left to fetch, decode empty, window emptying), or --
        the invariant the test-suite enforces never happens --
        unaccounted.  Each branch clears the scratch flags it read.
        """
        if self._cycle_retired:
            bucket = COMMITTED
            self._cycle_retired = self._cycle_issued = False
            self._cycle_stall = None
        elif self._cycle_issued:
            bucket = ISSUED
            self._cycle_issued = False
            self._cycle_stall = None
        elif self._cycle_stall is not None:
            bucket = self._cycle_stall
            self._cycle_stall = None
        elif engine.interrupt_record is not None:
            bucket = INTERRUPT
        elif engine.fetch_done and engine.decode_slot is None:
            bucket = DRAIN
        else:
            bucket = UNACCOUNTED
        if self.start_cycle is None:
            self.start_cycle = engine.cycle
        if not self.detail:
            self._buckets[bucket] += 1
            self._cycles += 1
            return
        try:
            self.bucket_tape.append(self._bucket_ids[bucket])
        except KeyError:
            self.bucket_tape.append(self._new_bucket(bucket))
        cycle = engine.cycle
        if cycle % self.sample_every:
            return
        keys = engine.occupancy_keys
        if keys is not self._sample_keys:
            self._sample_run(keys)
        rows = self._sample_rows
        rows += (cycle, engine.result_bus.reservations(cycle),
                 engine.next_seq - engine.retired)
        rows += engine.occupancy_counts()

    def on_idle(self, engine, reason: str, count: int) -> None:
        """``count`` cycles from ``engine.cycle`` on, each of which only
        stalled issue on ``reason``: what ``count`` ``on_stall`` and
        ``on_cycle`` calls would have recorded, for an engine that
        jumps over an idle span."""
        self.stall_counts[reason] += count
        if not self.detail:
            self._buckets[reason] += count
            self._cycles += count
            return
        bucket_id = self._bucket_ids.get(reason)
        if bucket_id is None:
            bucket_id = self._new_bucket(reason)
        self.bucket_tape += bytes((bucket_id,)) * count
        first = engine.cycle
        every = self.sample_every
        cycles = range(first + -first % every, first + count, every)
        if not cycles:
            return
        keys = engine.occupancy_keys
        if keys is not self._sample_keys:
            self._sample_run(keys)
        rows = self._sample_rows
        reservations = engine.result_bus.reservations
        inflight = engine.next_seq - engine.retired
        occupancy = engine.occupancy_counts()
        for cycle in cycles:
            rows += (cycle, reservations(cycle), inflight)
            rows += occupancy

    def _new_bucket(self, bucket: str) -> int:
        """Give ``bucket`` the next bucket id."""
        bucket_id = self._bucket_ids[bucket] = len(self.bucket_names)
        self.bucket_names.append(bucket)
        return bucket_id

    def _sample_run(self, keys: Tuple[str, ...]) -> None:
        """Start a run of samples for ``keys`` unless they equal the
        last sample's."""
        if keys != self._sample_keys:
            self._sample_keys = keys
            self._sample_rows = []
            self.sample_runs.append((keys, self._sample_rows))

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

    def _cover(self, seq: int) -> None:
        """Extend the seq columns to cover ``seq`` (capacity doubles)."""
        size = len(self.retire_cycle)
        if seq >= size:
            grow = max(seq + 1 - size, size, 64)
            for column in self.stage_cycles:
                column.extend([-1] * grow)
            self.retire_cycle.extend([-1] * grow)
            self.inst_of.extend([None] * grow)
        self.seqs = seq + 1

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def buckets(self) -> Counter:
        """Attribution bucket -> cycles spent there, in order of first
        appearance.  Every simulated cycle lands in exactly one bucket."""
        if not self.detail:
            return self._buckets
        tape = self.bucket_tape
        return Counter({name: tape.count(bucket_id)
                        for bucket_id, name in enumerate(self.bucket_names)})

    @property
    def cycles_seen(self) -> int:
        """Cycles this recorder classified (== engine cycles when the
        recorder was attached before the first ``run()``)."""
        return len(self.bucket_tape) if self.detail else self._cycles

    def inst_info(self, inst) -> InstInfo:
        """``(pc, fu, text)`` of a static instruction, built once."""
        entry = self._described.get(id(inst))
        if entry is None:
            # Control flow and NOPs never enter the machine's window
            # (they retire in decode); record no functional unit.
            fu = None if inst.is_control_flow \
                or inst.fu is FUClass.CONTROL else inst.fu.value
            entry = (inst, (inst.pc, fu, str(inst)))
            self._described[id(inst)] = entry
        return entry[1]

    def _stage_map(self, seq: int) -> Optional[Dict[str, int]]:
        if not 0 <= seq < self.seqs:
            return None
        # Stages were recorded in time order; ties keep stage order.
        pairs = sorted(
            ((stage, column[seq])
             for stage, column in zip(STAGES, self.stage_cycles)
             if column[seq] >= 0),
            key=_CYCLE,
        )
        return dict(pairs) if pairs else None

    def stage_maps(self) -> Dict[int, Dict[str, int]]:
        """seq -> {stage: first cycle} for every staged seq (what
        ``Timeline.of`` renders)."""
        maps = {}
        for seq in range(self.seqs):
            stages = self._stage_map(seq)
            if stages is not None:
                maps[seq] = stages
        return maps

    def recent_stages(self, count: int) -> Dict[int, Dict[str, int]]:
        """Stage maps of the ``count`` highest staged seqs, ascending."""
        recent: Dict[int, Dict[str, int]] = {}
        seq = self.seqs
        while seq > 0 and len(recent) < count:
            seq -= 1
            stages = self._stage_map(seq)
            if stages is not None:
                recent[seq] = stages
        return dict(sorted(recent.items()))

    @property
    def cycle_buckets(self) -> List[str]:
        """One bucket name per classified cycle, in cycle order."""
        names = self.bucket_names
        return [names[bucket_id] for bucket_id in self.bucket_tape]

    @property
    def samples(self) -> List[Tuple[int, Dict[str, int], int, int]]:
        """(cycle, occupancy dict, result-bus reservations, in-flight)
        per sample."""
        samples = []
        for keys, rows in self.sample_runs:
            width = SAMPLE_FIELDS + len(keys)
            for at in range(0, len(rows), width):
                samples.append((
                    rows[at],
                    dict(zip(keys, rows[at + SAMPLE_FIELDS:at + width])),
                    rows[at + 1],
                    rows[at + 2],
                ))
        return samples

    def lifetime(self, seq: int) -> Optional[Tuple[int, int]]:
        """(first-stage cycle, retire-or-last-stage cycle) for ``seq``."""
        stages = self._stage_map(seq)
        if stages is None:
            return None
        first = min(stages.values())
        last = self.retire_cycle[seq]
        if last < 0:
            last = max(stages.values())
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
