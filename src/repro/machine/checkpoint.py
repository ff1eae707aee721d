"""Checkpoint/restore of a stopped engine's architectural state.

The paper's whole argument is that a precise-interrupt machine can be
*stopped and restarted*: at a trap the visible state is exactly the
state after the first ``seq`` instructions, so the operating system can
swap the process out, service the fault, and resume -- on the same
machine or a different one.  This module makes that operational for the
simulator fleet: :meth:`Checkpoint.capture` serializes the full
architectural state of a stopped engine (register files, memory image,
PC, cycle/statistics counters, and the pending interrupt record) to a
versioned, self-validating on-disk format, and :meth:`Checkpoint.restore`
rebuilds a fresh engine -- of the *same or any other precise type* --
that resumes where the original left off.

What is (deliberately) **not** captured is microarchitectural state:
window/buffer contents, functional-unit pipelines, result-bus
reservations.  A checkpoint is only taken when the engine is stopped at
a precise interrupt (window squashed, counters cleared -- see
``_precise_trap``) or fully drained, at which point the architectural
state *is* the whole state.  That is exactly the paper's precision
criterion, and it is what makes cross-engine restore (e.g. RUU ->
history buffer) well-defined.  Engines whose interrupts are imprecise
cannot be checkpointed at a trap: their register file does not
correspond to any program-order prefix, so there is nothing coherent to
save.

On-disk format (JSON, one document per file)::

    {"format": "repro-checkpoint", "version": 1,
     "sha256": "<hex digest of the canonical payload>",
     "payload": {engine, factory, program {name, code}, config,
                 registers, memory {words, faulting, fault_count},
                 counters, interrupt}}

The payload checksum makes the file self-validating: a truncated or
bit-flipped checkpoint is rejected at load time rather than resuming a
subtly corrupt machine.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..isa.encoding import decode_program, encode_program
from ..isa.program import Program
from ..isa.registers import Register
from .config import ConfigError, MachineConfig
from .interrupts import InterruptRecord
from .memory import Memory

#: File-format magic and the newest payload version this code writes.
FORMAT = "repro-checkpoint"
VERSION = 1

#: Plain engine counters copied verbatim into / out of a checkpoint.
_COUNTER_FIELDS = (
    "cycle", "pc", "retired", "next_seq", "decode_seq",
    "fetch_resume_cycle", "fetch_done", "branches", "branches_taken",
    "interrupt_count", "squashed", "mispredictions",
    "last_commit_cycle", "host_seconds",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be captured, validated, or restored."""


def _factory_key(engine_name: str) -> Optional[str]:
    """Map an engine's ``name`` back to its ``ENGINE_FACTORIES`` key."""
    from ..analysis.sweeps import ENGINE_FACTORIES

    if engine_name in ENGINE_FACTORIES:
        return engine_name
    if engine_name.startswith("spec-ruu"):
        return "spec-ruu"
    return None


@dataclass
class Checkpoint:
    """The architectural state of a stopped engine.

    Attributes:
        engine: the ``name`` of the engine the state was captured from.
        factory: the :data:`~repro.analysis.sweeps.ENGINE_FACTORIES` key
            used to rebuild it (differs from ``engine`` for e.g. the
            speculative RUU, whose display name carries the bypass mode).
        program: the workload, round-tripped through the binary encoding.
        config: machine configuration in effect at capture time.
        registers: ``{register name: value}`` for all 144 registers.
        memory_words: sparse memory image (non-zero words).
        memory_faulting: addresses still marked unmapped.
        fault_count: memory's fault counter.
        counters: plain engine counters (cycle, pc, retired, ...), plus
            ``retire_log`` and the ``stalls`` histogram.
        interrupt: the pending :class:`InterruptRecord`, if the engine
            stopped at a (precise) trap.
    """

    engine: str
    factory: str
    program: Program
    config: MachineConfig
    registers: Dict[str, Any]
    memory_words: Dict[int, Any]
    memory_faulting: List[int]
    fault_count: int
    counters: Dict[str, Any]
    interrupt: Optional[InterruptRecord]

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, engine) -> "Checkpoint":
        """Snapshot a *stopped* engine.

        The engine must either have drained completely or be stopped at
        an interrupt that it claims is precise; anything else has
        microarchitectural state in flight that a checkpoint cannot
        represent, and raises :class:`CheckpointError`.
        """
        record = engine.interrupt_record
        if record is not None and not record.claims_precise:
            raise CheckpointError(
                f"{engine.name} stopped at an imprecise interrupt; its "
                f"register file matches no program-order prefix, so "
                f"there is no coherent state to checkpoint"
            )
        if record is None and not engine.done():
            raise CheckpointError(
                f"{engine.name} is mid-flight (cycle {engine.cycle}); "
                f"checkpoint a stopped engine (drained or at a precise "
                f"trap)"
            )
        factory = _factory_key(engine.name)
        if factory is None:
            raise CheckpointError(
                f"engine {engine.name!r} is not in ENGINE_FACTORIES; "
                f"a checkpoint from it could never be restored"
            )
        counters: Dict[str, Any] = {
            name: getattr(engine, name) for name in _COUNTER_FIELDS
        }
        counters["retire_log"] = list(engine.retire_log)
        counters["stalls"] = dict(engine.stalls)
        return cls(
            engine=engine.name,
            factory=factory,
            program=engine.program,
            config=engine.config,
            registers=engine.regs.snapshot(),
            memory_words=dict(engine.memory.nonzero()),
            memory_faulting=sorted(engine.memory.faulting_addresses),
            fault_count=engine.memory.fault_count,
            counters=counters,
            interrupt=record,
        )

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def restore(self, engine: Optional[str] = None,
                config: Optional[MachineConfig] = None):
        """Build a fresh engine resuming from this checkpoint.

        ``engine`` selects the target machine by ``ENGINE_FACTORIES``
        name; by default the checkpoint's own engine type is rebuilt.
        Cross-engine restore is allowed between precise machines: the
        checkpoint is purely architectural, so an RUU checkpoint resumes
        identically (architecturally) on a history buffer.  Restoring an
        *interrupted* checkpoint into an engine that does not claim
        precise interrupts is refused -- it could never have produced
        such a checkpoint, and ``continue_run`` would refuse it anyway.
        """
        from ..analysis.sweeps import ENGINE_FACTORIES

        key = engine if engine is not None else self.factory
        try:
            builder = ENGINE_FACTORIES[key]
        except KeyError:
            raise CheckpointError(
                f"unknown engine {key!r}; choose one of "
                f"{sorted(ENGINE_FACTORIES)}"
            ) from None

        memory = Memory()
        for address, value in self.memory_words.items():
            memory.poke(address, value)
        for address in self.memory_faulting:
            memory.inject_fault(address)
        memory.fault_count = self.fault_count

        machine = builder(self.program, config or self.config, memory)
        if self.interrupt is not None \
                and not machine.claims_precise_interrupts:
            raise CheckpointError(
                f"cannot restore an interrupted checkpoint into "
                f"{machine.name}: it does not claim precise interrupts, "
                f"so it cannot resume from a trap"
            )
        for name, value in self.registers.items():
            machine.regs.write(Register.parse(name), value)
        for name in _COUNTER_FIELDS:
            setattr(machine, name, self.counters[name])
        machine.retire_log = list(self.counters["retire_log"])
        machine.stalls.clear()
        machine.stalls.update(self.counters["stalls"])
        machine.interrupt_record = self.interrupt
        machine._on_restore()
        return machine

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The versioned, checksummed document written by :meth:`save`."""
        payload: Dict[str, Any] = {
            "engine": self.engine,
            "factory": self.factory,
            "program": {
                "name": self.program.name,
                "code": base64.b64encode(
                    encode_program(self.program)
                ).decode("ascii"),
            },
            "config": self.config.to_json(),
            "registers": dict(self.registers),
            "memory": {
                "words": {
                    str(address): value
                    for address, value in sorted(self.memory_words.items())
                },
                "faulting": list(self.memory_faulting),
                "fault_count": self.fault_count,
            },
            "counters": dict(self.counters),
            "interrupt": (
                self.interrupt.to_json() if self.interrupt is not None
                else None
            ),
        }
        return {
            "format": FORMAT,
            "version": VERSION,
            "sha256": _digest(payload),
            "payload": payload,
        }

    @classmethod
    def from_json(cls, document: Dict[str, Any]) -> "Checkpoint":
        """Validate and rebuild a checkpoint from :meth:`to_json` output."""
        if not isinstance(document, dict) \
                or document.get("format") != FORMAT:
            raise CheckpointError("not a repro checkpoint document")
        version = document.get("version")
        if version != VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {VERSION})"
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload missing")
        digest = _digest(payload)
        if digest != document.get("sha256"):
            raise CheckpointError(
                "checkpoint checksum mismatch: the file is corrupt "
                f"(expected {document.get('sha256')!r}, payload hashes "
                f"to {digest!r})"
            )
        program_json = payload["program"]
        program = decode_program(
            base64.b64decode(program_json["code"]),
            name=program_json["name"],
        )
        memory_json = payload["memory"]
        interrupt_json = payload["interrupt"]
        try:
            config = MachineConfig.from_json(payload["config"])
        except ConfigError as exc:
            raise CheckpointError(f"checkpoint config: {exc}") from None
        return cls(
            engine=payload["engine"],
            factory=payload["factory"],
            program=program,
            config=config,
            registers=dict(payload["registers"]),
            memory_words={
                int(address): value
                for address, value in memory_json["words"].items()
            },
            memory_faulting=[int(a) for a in memory_json["faulting"]],
            fault_count=int(memory_json["fault_count"]),
            counters=dict(payload["counters"]),
            interrupt=(
                InterruptRecord.from_json(interrupt_json)
                if interrupt_json is not None else None
            ),
        )

    def save(self, path: str) -> str:
        """Write the checkpoint to ``path`` atomically; returns ``path``."""
        document = self.to_json()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read and validate a checkpoint written by :meth:`save`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path!r}: {exc}"
            ) from exc
        return cls.from_json(document)


def _digest(payload: Dict[str, Any]) -> str:
    """Canonical sha256 of a payload (sorted keys, no whitespace)."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
