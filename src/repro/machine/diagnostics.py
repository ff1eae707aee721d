"""Structured engine diagnostics for deadlocks and stalls.

When a simulation stops making progress the interesting question is not
*that* it stalled but *what it is waiting for*.  This module captures a
machine-readable snapshot of a stalled engine -- occupancy, the waiting
instructions and the register instances/tags they are blocked on, the
decode/fetch state and a recent timeline window -- so a
:class:`~repro.machine.faults.DeadlockError` is debuggable from the
exception alone, without re-running under a tracer.

Every engine describes itself: the capture lists
:meth:`~repro.machine.engine.Engine.waiting_entries` and reads the
recent stage history from an attached detail
:class:`~repro.obs.events.TraceRecorder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class WaitingInstruction:
    """One in-flight instruction and what (if anything) blocks it."""

    seq: int
    pc: int
    text: str
    state: str                      # waiting | dispatched | done
    waiting_on: List[str] = field(default_factory=list)

    def describe(self) -> str:
        blocked = (
            f" <- waiting on {', '.join(self.waiting_on)}"
            if self.waiting_on else ""
        )
        return f"#{self.seq} pc={self.pc} {self.text} [{self.state}]{blocked}"

    def to_json(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "pc": self.pc,
            "text": self.text,
            "state": self.state,
            "waiting_on": list(self.waiting_on),
        }


@dataclass
class EngineDiagnostic:
    """A machine-readable snapshot of a (usually stalled) engine."""

    engine: str
    workload: str
    cycle: int
    pc: int
    last_commit_cycle: int
    retired: int
    occupancy: int
    inflight: int
    fetch_done: bool
    fetch_resume_cycle: int
    decode: Optional[str]
    decode_seq: Optional[int]
    waiting: List[WaitingInstruction] = field(default_factory=list)
    stalls: Dict[str, int] = field(default_factory=dict)
    recent_events: Dict[int, Dict[str, int]] = field(default_factory=dict)

    @property
    def cycles_since_commit(self) -> int:
        return self.cycle - self.last_commit_cycle

    def blocked_resources(self) -> List[str]:
        """Every distinct resource some waiting instruction is blocked on."""
        seen: List[str] = []
        for entry in self.waiting:
            for resource in entry.waiting_on:
                if resource not in seen:
                    seen.append(resource)
        return seen

    def describe(self) -> str:
        lines = [
            f"{self.engine} on {self.workload!r}: no commit for "
            f"{self.cycles_since_commit} cycles "
            f"(cycle {self.cycle}, last commit at {self.last_commit_cycle},"
            f" {self.retired} retired)",
            f"  pc={self.pc} decode={self.decode or '<empty>'} "
            f"fetch_done={self.fetch_done} "
            f"fetch_resume_cycle={self.fetch_resume_cycle}",
            f"  occupancy={self.occupancy} in-flight={self.inflight}",
        ]
        if self.waiting:
            lines.append("  in-flight instructions:")
            lines += [f"    {w.describe()}" for w in self.waiting]
        blocked = self.blocked_resources()
        if blocked:
            lines.append(f"  blocked resources: {', '.join(blocked)}")
        if self.stalls:
            top = sorted(
                self.stalls.items(), key=lambda kv: kv[1], reverse=True
            )[:5]
            lines.append(
                "  top stalls: "
                + ", ".join(f"{name}={count}" for name, count in top)
            )
        if self.recent_events:
            lines.append("  recent timeline:")
            for seq in sorted(self.recent_events):
                events = self.recent_events[seq]
                stages = " ".join(
                    f"{stage}@{cycle}"
                    for stage, cycle in sorted(
                        events.items(), key=lambda kv: kv[1]
                    )
                )
                lines.append(f"    #{seq}: {stages}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "workload": self.workload,
            "cycle": self.cycle,
            "pc": self.pc,
            "last_commit_cycle": self.last_commit_cycle,
            "cycles_since_commit": self.cycles_since_commit,
            "retired": self.retired,
            "occupancy": self.occupancy,
            "inflight": self.inflight,
            "fetch_done": self.fetch_done,
            "fetch_resume_cycle": self.fetch_resume_cycle,
            "decode": self.decode,
            "decode_seq": self.decode_seq,
            "waiting": [w.to_json() for w in self.waiting],
            "blocked_resources": self.blocked_resources(),
            "stalls": dict(self.stalls),
            "recent_events": {
                str(seq): dict(events)
                for seq, events in self.recent_events.items()
            },
        }


def _waiting_instruction(engine, entry) -> WaitingInstruction:
    """Describe one entry of ``engine.waiting_entries()``."""
    state = entry.state
    waiting_on = [f"tag {engine.tag_name(tag)}" for tag in entry.waiting_tags]
    if state == "done" and entry.fault is not None:
        waiting_on.append(f"pending trap: {entry.fault}")
    return WaitingInstruction(
        seq=entry.seq,
        pc=entry.inst.pc,
        text=str(entry.inst),
        state=state,
        waiting_on=waiting_on,
    )


def capture_diagnostic(engine, recent: int = 8) -> EngineDiagnostic:
    """Snapshot ``engine``'s pipeline state (read-only).

    ``recent_events`` holds the stage maps of the last ``recent``
    instructions when a detail recorder is attached.
    """
    waiting = sorted(
        (_waiting_instruction(engine, entry)
         for entry in engine.waiting_entries()),
        key=lambda w: w.seq,
    )
    recent_events = engine.recorder.recent_stages(recent) \
        if engine.recorder is not None else {}
    return EngineDiagnostic(
        engine=engine.name,
        workload=engine.program.name,
        cycle=engine.cycle,
        pc=engine.pc,
        last_commit_cycle=engine.last_commit_cycle,
        retired=engine.retired,
        occupancy=len(waiting),
        inflight=engine.inflight(),
        fetch_done=engine.fetch_done,
        fetch_resume_cycle=engine.fetch_resume_cycle,
        decode=(
            str(engine.decode_slot) if engine.decode_slot is not None
            else None
        ),
        decode_seq=(
            engine.decode_seq if engine.decode_slot is not None else None
        ),
        waiting=waiting,
        stalls=dict(engine.stalls),
        recent_events=recent_events,
    )
