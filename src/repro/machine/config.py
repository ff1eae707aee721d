"""Machine configuration shared by every simulator engine.

The defaults model the paper's machine (section 2): CRAY-1 scalar-unit
functional-unit times, a single result bus, an issue width of one
instruction per cycle, six load registers, and 3-bit NI/LI instance
counters for the RUU.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

from ..isa.opcodes import DEFAULT_LATENCY, FUClass


@dataclass(frozen=True)
class MachineConfig:
    """Timing and sizing parameters of the simulated machine.

    Attributes:
        latencies: functional-unit time in cycles for each FU class.
        issue_width: instructions the decode stage may issue per cycle.
            The paper's machine is strictly 1-wide; widths above 1 are
            an extension (see ablation A7) that revisits the paper's
            reservoir argument for dispatch paths.  A branch always
            ends its cycle's issue group.
        branch_taken_penalty: dead cycles after a *taken* branch resolves
            before the next instruction can enter decode (instruction
            buffer redirect; the paper's "dead cycles following each
            branch instruction").
        branch_not_taken_penalty: dead cycles after a not-taken branch.
        window_size: reservation-station / RSTU / RUU entry count for the
            engine in use (ignored by the simple engine; for Tomasulo and
            the Tag Unit engines it is the *per-functional-unit* RS count).
        n_load_registers: load registers for memory disambiguation
            (paper uses 6; 4 sufficed for most loops).
        counter_bits: width *n* of the NI/LI instance counters; up to
            ``2**n - 1`` instances of a destination register may be live.
        dispatch_paths: data paths from the RSTU/RUU to the functional
            units (Table 2 uses 1, Table 3 uses 2).
        commit_paths: paths from the RUU to the register file (1 in the
            paper: a single bus that the reservation stations also snoop).
        n_tags: tag-pool size for the Tag Unit engine (separate tag pool).
        forward_latency: cycles for a load satisfied by a load register
            (store-to-load forward / load-load merge) instead of memory.
        store_execute_latency: cycles for a store to pass through the
            memory unit's address check in the RUU (the actual memory
            write happens at commit).
        spec_predict_taken_penalty: fetch-redirect dead cycles when the
            speculative RUU predicts a branch taken (a predicted
            fall-through costs nothing).
        spec_mispredict_penalty: dead cycles to restart fetch on the
            correct path after a misprediction is discovered.
        spec_max_branches: unresolved predicted branches allowed at once
            in the speculative RUU (the paper notes there is no hard
            architectural limit; this bounds the bookkeeping).
        max_cycles: safety valve for runaway simulations.
        watchdog_cycles: progress watchdog -- if no instruction
            architecturally retires for this many consecutive cycles the
            engine raises a :class:`~repro.machine.faults.DeadlockError`
            (with a pipeline diagnostic) instead of burning the rest of
            the ``max_cycles`` budget.  0 disables the watchdog.
    """

    latencies: Mapping[FUClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCY)
    )
    issue_width: int = 1
    branch_taken_penalty: int = 2
    branch_not_taken_penalty: int = 1
    window_size: int = 10
    n_load_registers: int = 6
    counter_bits: int = 3
    dispatch_paths: int = 1
    commit_paths: int = 1
    n_tags: int = 16
    forward_latency: int = 1
    store_execute_latency: int = 1
    spec_predict_taken_penalty: int = 1
    spec_mispredict_penalty: int = 3
    spec_max_branches: int = 8
    max_cycles: int = 10_000_000
    watchdog_cycles: int = 10_000

    def latency(self, fu: FUClass) -> int:
        """Functional-unit time for ``fu`` in cycles."""
        return self.latencies[fu]

    @property
    def max_instances(self) -> int:
        """Maximum live instances of one destination register (2^n - 1)."""
        return (1 << self.counter_bits) - 1

    def to_json(self) -> Dict[str, Any]:
        """The wire form: every field by name, ``latencies`` keyed by
        ``FUClass.value`` (a checkpoint's ``config``)."""
        payload = {name: getattr(self, name) for name in _FIELD_NAMES}
        payload["latencies"] = {f.value: n for f, n in self.latencies.items()}
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any],
                  base: Optional["MachineConfig"] = None) -> "MachineConfig":
        """``base`` (default :data:`CRAY1_LIKE`) with the fields of
        ``payload``, all or part of a :meth:`to_json` document.

        The first bad field in payload order raises :class:`ConfigError`:
        an unknown name, a non-``int`` (``bool`` included), or a value
        below its :data:`SIZING_MINIMUMS` entry (1 for each latency).
        """
        overrides: Dict[str, Any] = {}
        for name, value in payload.items():
            if name == "latencies":
                value = _latencies_from_json(value)
            elif name not in SIZING_MINIMUMS:
                raise ConfigError(
                    "unknown_config_field",
                    f"unknown or unsupported config field {name!r}",
                    field=str(name),
                )
            else:
                _check_int(name, value, SIZING_MINIMUMS[name])
            overrides[name] = value
        return replace(base or CRAY1_LIKE, **overrides)

    def fingerprint(self) -> bytes:
        """The config's part of a result-cache key: :meth:`to_json`
        with ``latencies`` as sorted pairs.

        The config is frozen but ``latencies`` is a mutable mapping, so
        the bytes are kept beside a snapshot of it and computed afresh
        when it has been edited in place.  Neither is ever pickled (see
        ``__getstate__``).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None and cached[0] == self.latencies:
            return cached[1]
        snapshot = dict(self.latencies)
        payload = self.to_json()
        payload["latencies"] = sorted(payload["latencies"].items())
        fingerprint = json.dumps(payload, sort_keys=True).encode()
        self.__dict__["_fingerprint"] = (snapshot, fingerprint)
        return fingerprint

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the fields only; the receiver fingerprints afresh."""
        return {name: self.__dict__[name] for name in _FIELD_NAMES}

    def with_(self, **overrides) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


_FIELD_NAMES = tuple(f.name for f in fields(MachineConfig))

#: Sizing rules: the least value of each integer field (every one has
#: an entry) at which a machine still runs.  ``from_json`` refuses less;
#: lint reports it (``config-bad-sizing``).
SIZING_MINIMUMS: Dict[str, int] = {
    "issue_width": 1,
    "branch_taken_penalty": 0,
    "branch_not_taken_penalty": 0,
    "window_size": 1,
    "n_load_registers": 1,
    "counter_bits": 1,
    "dispatch_paths": 1,
    "commit_paths": 1,
    "n_tags": 1,
    "forward_latency": 1,
    "store_execute_latency": 1,
    "spec_predict_taken_penalty": 0,
    "spec_mispredict_penalty": 0,
    "spec_max_branches": 0,
    "max_cycles": 1,
    "watchdog_cycles": 0,
}


class ConfigError(ValueError):
    """A refused config document: ``reason`` is ``unknown_config_field``
    or ``bad_config_value``; ``detail`` holds the ``field`` (and the
    ``minimum`` it is below)."""

    def __init__(self, reason: str, message: str, **detail: Any) -> None:
        super().__init__(message)
        self.reason = reason
        self.detail = detail


def _check_int(name: str, value: Any, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        problem, detail = f"be an integer, got {type(value).__name__}", {}
    elif value < minimum:
        problem, detail = f"be at least {minimum}, got {value}", {
            "minimum": minimum}
    else:
        return
    raise ConfigError("bad_config_value",
                      f"config field {name!r} must {problem}",
                      field=name, **detail)


def _latencies_from_json(payload: Any) -> Dict[FUClass, int]:
    try:
        latencies = {FUClass(unit): n for unit, n in payload.items()}
    except (AttributeError, ValueError):
        raise ConfigError(
            "bad_config_value",
            "config field 'latencies' must map functional-unit names "
            "to cycles",
            field="latencies",
        ) from None
    for cycles in latencies.values():
        _check_int("latencies", cycles, 1)
    return latencies


#: The paper's machine with default sizing.
CRAY1_LIKE = MachineConfig()
