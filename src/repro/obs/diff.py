"""Differential trace debugging: where do two runs first disagree?

When two engines produce different cycle counts (or, worse, different
architectural behaviour) the aggregate counters say *that* they differ
but not *where*.  This module compares two detail-mode recordings of
the **same program**:

* **commit-stream divergence** -- the first position at which the final
  architectural retirement orders differ (for an out-of-order engine
  vs an in-order one this is usually the first reordered completion);
* **per-instruction stage-latency deltas** -- for every dynamic
  instruction both runs retired, the difference in lifetime
  (first stage to retirement) plus per-stage cycle deltas;
* **per-bucket attribution deltas** -- which cycle-accounting buckets
  grew or shrank between the runs.

A run can also be compared against the golden functional ISS
(:func:`diff_against_iss`): the ISS has no clock, so only the commit
stream (the architectural pc sequence) is compared.

``diff_stage_events`` works on plain ``{seq: {stage: cycle}}`` maps, so
a :class:`~repro.machine.timeline.Timeline` round-tripped through
``to_json``/``from_json`` diffs exactly like a live recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.opcodes import Opcode
from .attribution import attribute_cycles, attribution_delta
from .events import TraceRecorder

StageEvents = Dict[int, Dict[str, int]]


@dataclass
class StageDelta:
    """One instruction's lifetime in both runs."""

    seq: int
    text: str
    lifetime_a: int
    lifetime_b: int
    #: stage -> (cycle_a, cycle_b) for stages present in both runs.
    stages: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def delta(self) -> int:
        return self.lifetime_b - self.lifetime_a


@dataclass
class CommitDivergence:
    """First position where the retirement streams disagree."""

    index: int
    seq_a: Optional[int]
    seq_b: Optional[int]
    text_a: str
    text_b: str


@dataclass
class TraceDiff:
    """Structured comparison of two recordings of one program."""

    engine_a: str
    engine_b: str
    workload: str
    cycles_a: int
    cycles_b: int
    instructions_a: int
    instructions_b: int
    commit_divergence: Optional[CommitDivergence]
    #: bucket -> (cycles_a, cycles_b), canonical order.
    bucket_deltas: Dict[str, Tuple[int, int]]
    #: Largest per-instruction lifetime deltas, |delta| descending.
    top_deltas: List[StageDelta]
    compared_instructions: int

    @property
    def identical(self) -> bool:
        """Same commit stream, same cycle count, same accounting."""
        return (
            self.commit_divergence is None
            and self.cycles_a == self.cycles_b
            and all(a == b for a, b in self.bucket_deltas.values())
            and all(d.delta == 0 for d in self.top_deltas)
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "engine_a": self.engine_a,
            "engine_b": self.engine_b,
            "workload": self.workload,
            "cycles": [self.cycles_a, self.cycles_b],
            "instructions": [self.instructions_a, self.instructions_b],
            "identical": self.identical,
            "commit_divergence": None if self.commit_divergence is None
            else {
                "index": self.commit_divergence.index,
                "seq_a": self.commit_divergence.seq_a,
                "seq_b": self.commit_divergence.seq_b,
                "text_a": self.commit_divergence.text_a,
                "text_b": self.commit_divergence.text_b,
            },
            "bucket_deltas": {
                bucket: list(pair)
                for bucket, pair in self.bucket_deltas.items()
            },
            "top_deltas": [
                {
                    "seq": delta.seq,
                    "text": delta.text,
                    "lifetime": [delta.lifetime_a, delta.lifetime_b],
                    "delta": delta.delta,
                }
                for delta in self.top_deltas
            ],
            "compared_instructions": self.compared_instructions,
        }

    def describe(self) -> str:
        lines = [
            f"trace diff: {self.engine_a} vs {self.engine_b} "
            f"on {self.workload}",
            f"  cycles       : {self.cycles_a} vs {self.cycles_b} "
            f"({self.cycles_b - self.cycles_a:+d})",
            f"  instructions : {self.instructions_a} vs "
            f"{self.instructions_b}",
        ]
        if self.commit_divergence is None:
            lines.append("  commit stream: identical")
        else:
            div = self.commit_divergence
            lines.append(
                f"  commit stream: diverges at retirement "
                f"#{div.index}: {self.engine_a} retired "
                f"[{div.text_a}], {self.engine_b} retired [{div.text_b}]"
            )
        changed = [
            (bucket, a, b)
            for bucket, (a, b) in self.bucket_deltas.items() if a != b
        ]
        if changed:
            lines.append("  attribution deltas (cycles):")
            for bucket, a, b in changed:
                lines.append(
                    f"    {bucket:>16s}: {a:8d} -> {b:8d} ({b - a:+d})"
                )
        else:
            lines.append("  attribution  : identical")
        slow = [d for d in self.top_deltas if d.delta]
        if slow:
            lines.append("  largest per-instruction lifetime deltas:")
            for delta in slow:
                lines.append(
                    f"    #{delta.seq:<5d} {delta.text:<28s} "
                    f"{delta.lifetime_a:4d} -> {delta.lifetime_b:4d} "
                    f"cycles ({delta.delta:+d})"
                )
        if self.identical:
            lines.append("  verdict      : no divergence")
        return "\n".join(lines)


def diff_stage_events(events_a: StageEvents, events_b: StageEvents,
                      texts: Optional[Dict[int, str]] = None,
                      top: int = 10) -> List[StageDelta]:
    """Per-instruction deltas over two ``{seq: {stage: cycle}}`` maps.

    Only sequences present in both maps are compared; lifetime is the
    span from the earliest to the latest recorded stage.  Returns the
    ``top`` largest absolute deltas (ties broken by seq for stability).
    """
    texts = texts or {}
    deltas: List[StageDelta] = []
    for seq in sorted(set(events_a) & set(events_b)):
        stages_a, stages_b = events_a[seq], events_b[seq]
        if not stages_a or not stages_b:
            continue
        life_a = max(stages_a.values()) - min(stages_a.values())
        life_b = max(stages_b.values()) - min(stages_b.values())
        deltas.append(StageDelta(
            seq=seq,
            text=texts.get(seq, f"seq {seq}"),
            lifetime_a=life_a,
            lifetime_b=life_b,
            stages={
                stage: (stages_a[stage], stages_b[stage])
                for stage in sorted(set(stages_a) & set(stages_b))
            },
        ))
    deltas.sort(key=lambda d: (-abs(d.delta), d.seq))
    return deltas[:top]


def _first_divergence(order_a: List[int], order_b: List[int],
                      texts_a: Dict[int, str],
                      texts_b: Dict[int, str]
                      ) -> Optional[CommitDivergence]:
    for index, (seq_a, seq_b) in enumerate(zip(order_a, order_b)):
        if seq_a != seq_b:
            return CommitDivergence(
                index=index, seq_a=seq_a, seq_b=seq_b,
                text_a=texts_a.get(seq_a, f"seq {seq_a}"),
                text_b=texts_b.get(seq_b, f"seq {seq_b}"),
            )
    if len(order_a) != len(order_b):
        index = min(len(order_a), len(order_b))
        seq_a = order_a[index] if index < len(order_a) else None
        seq_b = order_b[index] if index < len(order_b) else None
        return CommitDivergence(
            index=index, seq_a=seq_a, seq_b=seq_b,
            text_a="(stream ended)" if seq_a is None
            else texts_a.get(seq_a, f"seq {seq_a}"),
            text_b="(stream ended)" if seq_b is None
            else texts_b.get(seq_b, f"seq {seq_b}"),
        )
    return None


def _texts(recorder: TraceRecorder) -> Dict[int, str]:
    info = recorder.inst_info
    return {
        seq: info(inst)[2]
        for seq, inst in enumerate(recorder.inst_of[:recorder.seqs])
        if inst is not None
    }


def diff_recorders(recorder_a: TraceRecorder, recorder_b: TraceRecorder,
                   result_a=None, result_b=None,
                   top: int = 10) -> TraceDiff:
    """Compare two finished detail-mode recordings of one program.

    ``result_a``/``result_b`` enable the attribution reconciliation
    checks; without them the recorders' own bucket counters are used.
    """
    if recorder_a.workload != recorder_b.workload:
        raise ValueError(
            f"diff across different workloads: {recorder_a.workload!r} "
            f"vs {recorder_b.workload!r}"
        )
    if result_a is not None and result_b is not None:
        buckets = attribution_delta(
            attribute_cycles(result_a, recorder_a),
            attribute_cycles(result_b, recorder_b),
        )
    else:
        keys = set(recorder_a.buckets) | set(recorder_b.buckets)
        buckets = {
            key: (recorder_a.buckets.get(key, 0),
                  recorder_b.buckets.get(key, 0))
            for key in sorted(keys)
        }
    texts_a, texts_b = _texts(recorder_a), _texts(recorder_b)
    events_a, events_b = recorder_a.stage_maps(), recorder_b.stage_maps()
    return TraceDiff(
        engine_a=recorder_a.engine_name or "a",
        engine_b=recorder_b.engine_name or "b",
        workload=recorder_a.workload or "?",
        cycles_a=recorder_a.final_cycles or recorder_a.cycles_seen,
        cycles_b=recorder_b.final_cycles or recorder_b.cycles_seen,
        instructions_a=len(recorder_a.commit_order),
        instructions_b=len(recorder_b.commit_order),
        commit_divergence=_first_divergence(
            recorder_a.commit_order, recorder_b.commit_order,
            texts_a, texts_b,
        ),
        bucket_deltas=buckets,
        top_deltas=diff_stage_events(
            events_a, events_b, texts=texts_a, top=top
        ),
        compared_instructions=len(events_a.keys() & events_b.keys()),
    )


def diff_against_iss(recorder: TraceRecorder, trace) -> Optional[
        CommitDivergence]:
    """Compare a recording's commit stream against a golden-ISS trace.

    The functional executor has no clock, so this checks architectural
    order only, and only for instructions that enter the machine's
    window -- branches and NOPs retire in the decode stage on *every*
    engine, ahead of older windowed instructions, so they are filtered
    from both streams.  In-order-commit engines must then match the
    ISS position-by-position; an imprecise engine's first out-of-order
    retirement is exactly the divergence this reports.
    """
    texts = _texts(recorder)
    inst_of, info = recorder.inst_of, recorder.inst_info
    order = [
        seq for seq in recorder.commit_order
        if seq < recorder.seqs and inst_of[seq] is not None
        and info(inst_of[seq])[1] is not None
    ]
    iss_entries = [
        entry for entry in trace.entries
        if not entry.inst.is_control_flow
        and entry.inst.opcode is not Opcode.NOP
    ]
    iss_order = [entry.seq for entry in iss_entries]
    iss_texts = {entry.seq: str(entry.inst) for entry in iss_entries}
    return _first_divergence(order, iss_order, texts, iss_texts)
