"""Per-instruction pipeline timelines (a software pipeline viewer).

A :class:`Timeline` renders the stage map a detail
:class:`~repro.obs.events.TraceRecorder` collects::

    engine = RUUEngine(program, config)
    engine.recorder = TraceRecorder()
    engine.run()
    print(Timeline.of(engine.recorder).gantt(first=0, last=30))

Engines record one event per stage transition -- ``decode``, ``issue``
(instruction leaves decode into the machine), ``dispatch`` (reservation
station to functional unit), ``complete`` (result on the bus) and
``commit`` (architectural update; only in-order-commit engines emit it).
The viewer renders the classic pipeline diagram and the stage-latency
statistics that make engine behaviour inspectable in tests and
examples (e.g. "how long did instruction 17 wait in the RUU?").
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Canonical stage ordering for rendering.
STAGES = ("decode", "issue", "dispatch", "complete", "commit")

_STAGE_GLYPH = {
    "decode": "D",
    "issue": "I",
    "dispatch": "X",
    "complete": "C",
    "commit": "R",
}


class Timeline:
    """A rendering view over a ``seq -> {stage: first cycle}`` map."""

    def __init__(self, events: Optional[Dict[int, Dict[str, int]]] = None
                 ) -> None:
        self._events: Dict[int, Dict[str, int]] = \
            events if events is not None else {}

    @classmethod
    def of(cls, recorder) -> "Timeline":
        """The stage map of a detail ``TraceRecorder`` (a snapshot:
        build it after the run)."""
        if not recorder.detail:
            raise ValueError("a Timeline needs a TraceRecorder(detail=True)")
        return cls(recorder.stage_maps())

    def events_for(self, seq: int) -> Dict[str, int]:
        return dict(self._events.get(seq, {}))

    def sequences(self) -> List[int]:
        return sorted(self._events)

    def to_json(self) -> Dict[str, object]:
        """Machine-readable form (JSON object keys are strings)."""
        return {
            "schema": 1,
            "events": {
                str(seq): dict(stages)
                for seq, stages in sorted(self._events.items())
            },
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Timeline":
        """Rebuild a timeline from :meth:`to_json` output."""
        schema = payload.get("schema")
        if schema != 1:
            raise ValueError(f"unknown timeline schema: {schema!r}")
        return cls({
            int(seq): {str(stage): int(cycle)
                       for stage, cycle in stages.items()}
            for seq, stages in payload.get("events", {}).items()
        })

    def stage_delay(self, seq: int, from_stage: str,
                    to_stage: str) -> Optional[int]:
        """Cycles between two stages of one instruction (None if either
        stage was never reached)."""
        events = self._events.get(seq, {})
        if from_stage not in events or to_stage not in events:
            return None
        return events[to_stage] - events[from_stage]

    def average_delay(self, from_stage: str, to_stage: str) -> float:
        """Mean delay across all instructions that hit both stages."""
        delays = [
            self.stage_delay(seq, from_stage, to_stage)
            for seq in self._events
        ]
        delays = [d for d in delays if d is not None]
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    # ------------------------------------------------------------------

    def gantt(self, program=None, first: int = 0, last: int = 24,
              width: int = 72) -> str:
        """Render a pipeline diagram for sequences ``first..last``.

        Columns are cycles (compressed to the window that contains the
        selected instructions); glyphs: D decode, I issue, X dispatch,
        C complete, R commit/retire.
        """
        chosen = [
            seq for seq in self.sequences() if first <= seq <= last
        ]
        if not chosen:
            return "(no events recorded)"
        lo = min(min(self._events[s].values()) for s in chosen)
        hi = max(max(self._events[s].values()) for s in chosen)
        span = hi - lo + 1
        scale = max(1, -(-span // width))  # ceil division
        lines = [
            f"cycles {lo}..{hi}"
            + (f"  (each column = {scale} cycles)" if scale > 1 else "")
        ]
        for seq in chosen:
            row = [" "] * (-(-span // scale))
            for stage, cycle in sorted(
                self._events[seq].items(), key=lambda kv: kv[1]
            ):
                column = (cycle - lo) // scale
                glyph = _STAGE_GLYPH.get(stage, "?")
                if row[column] == " ":
                    row[column] = glyph
                else:
                    row[column] = "*"  # multiple stages in one column
            label = f"#{seq:<5d}"
            lines.append(f"{label} |{''.join(row)}|")
        lines.append(
            "        D=decode I=issue X=dispatch C=complete R=commit"
        )
        return "\n".join(lines)

    def summary(self) -> str:
        """Average stage-to-stage delays across the run."""
        pairs = [
            ("decode", "issue"),
            ("issue", "dispatch"),
            ("dispatch", "complete"),
            ("complete", "commit"),
            ("issue", "commit"),
        ]
        lines = ["average stage delays (cycles):"]
        for a, b in pairs:
            delay = self.average_delay(a, b)
            lines.append(f"  {a:>8s} -> {b:<8s}: {delay:6.2f}")
        return "\n".join(lines)
