"""Request/response schemas and limits for the simulation service.

A **simulation request** is a JSON object:

.. code-block:: json

    {
      "program":  "A_IMM A0, 3\\nHALT",
      "workload": "LLL3",
      "engine":   "ruu-bypass",
      "config":   {"window_size": 8},
      "label":    "my-point"
    }

Exactly one of ``program`` (assembly source) or ``workload`` (the name
of a bundled benchmark -- see :func:`build_workload_registry`) must be
present.  ``engine`` defaults to ``ruu-bypass``; ``config`` holds
integer :class:`~repro.machine.config.MachineConfig` field overrides
(the ``latencies`` mapping is not expressible over the wire and is
rejected).  An optional ``"trace": true`` attaches a streaming
observability recorder and returns the full-cycle attribution summary
in ``result.extra.attribution``; traced runs are capped at
``LIMITS["max_trace_cycles"]`` simulated cycles (an explicit larger
``max_cycles`` is refused with the ``trace_too_large`` slug) and never
coalesce with, or read from, the untraced result cache.  A **batch**
is ``{"requests": [<request>, ...]}``.

Validation failures raise :class:`ProtocolError`, which carries a
machine-readable ``reason`` slug plus detail fields; the server maps it
to HTTP 400.  Hard input limits (:data:`LIMITS`) bound every axis a
client could use to wedge a worker: program length, batch size, the
``max_cycles`` budget, and the raw body size.

The **wire form** of a result (:func:`result_to_wire`) reuses the
result cache's lossless serializer and strips only the host-timing
telemetry, which differs run to run by construction.  Everything
deterministic survives byte-identically: ``canonical_result_bytes`` of
a served result equals that of the same point run serially in-process,
and ``tests/test_serve_server.py`` pins exactly that.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from ..analysis.cache import SCHEMA_VERSION, cache_key, deserialize_result, \
    serialize_result
from ..analysis.parallel import SimPoint
from ..analysis.sweeps import ENGINE_FACTORIES
from ..isa import AssemblyError, ProgramError, assemble
from ..lint.configcheck import SIZING_MINIMUMS
from ..machine.config import CRAY1_LIKE, MachineConfig
from ..machine.memory import Memory
from ..machine.stats import SimResult
from ..workloads import Workload, all_loops, synthetic_suite

#: Protocol-level hard limits.  Every one is enforced with an HTTP 400
#: and a machine-readable reason before the request touches a worker.
LIMITS: Dict[str, int] = {
    "max_program_chars": 100_000,
    "max_batch_size": 64,
    "max_max_cycles": 20_000_000,
    "max_body_bytes": 2_000_000,
    #: Ceiling on the cycle budget of a traced run ("trace": true):
    #: the worker classifies every cycle, so the budget bounds the
    #: extra work a trace request can demand.
    "max_trace_cycles": 2_000_000,
}

#: Default engine for requests that do not name one.
DEFAULT_ENGINE = "ruu-bypass"

#: ``SimResult.extra`` keys that are host-timing telemetry: legitimate
#: to differ between two runs of the same point, so they are excluded
#: from the wire form (and from byte-identity).
VOLATILE_EXTRA_KEYS = frozenset({
    "host_seconds", "host_inst_per_sec", "host_cycles_per_sec",
    "from_cache",
})

#: Config fields a request may override: every integer field of
#: MachineConfig, derived from the dataclass so new knobs are
#: serveable from day one.  ``latencies`` (an FUClass mapping) is the
#: one field with no JSON spelling.
OVERRIDABLE_CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(MachineConfig)
    if field.name != "latencies"
)


class ProtocolError(Exception):
    """A request the protocol rejects, with a machine-readable reason."""

    def __init__(self, reason: str, message: str,
                 **detail: Any) -> None:
        super().__init__(message)
        self.reason = reason
        self.message = message
        self.detail = detail

    def to_json(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "reason": self.reason,
            "message": self.message,
        }
        payload.update(self.detail)
        return payload


@dataclass(frozen=True)
class SimRequest:
    """A validated simulation request, ready for admission.

    ``key`` is the result-cache content hash of the point -- also the
    coalescing identity: two requests with equal keys are the same
    simulation by construction.
    """

    point: SimPoint
    key: str
    label: str


def build_workload_registry() -> Dict[str, Workload]:
    """Every bundled workload the service accepts by name.

    The Livermore loops (``LLL1``..``LLL14``) at their default sizes
    plus the synthetic microkernels.  Built once at server start; the
    :class:`~repro.workloads.base.Workload` objects are immutable for
    serving purposes (``make_memory`` hands each run a fresh copy).
    """
    registry: Dict[str, Workload] = {}
    for workload in all_loops() + synthetic_suite():
        registry[workload.name] = workload
    return registry


def _parse_config(payload: Any) -> MachineConfig:
    if payload is None:
        return CRAY1_LIKE
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_request", "'config' must be an object of field overrides",
        )
    overrides: Dict[str, int] = {}
    for name, value in payload.items():
        if name not in OVERRIDABLE_CONFIG_FIELDS:
            raise ProtocolError(
                "unknown_config_field",
                f"unknown or unsupported config field {name!r}",
                field=str(name),
                allowed=sorted(OVERRIDABLE_CONFIG_FIELDS),
            )
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "bad_config_value",
                f"config field {name!r} must be an integer, "
                f"got {type(value).__name__}",
                field=name,
            )
        minimum = SIZING_MINIMUMS.get(name, 0)
        if value < minimum:
            raise ProtocolError(
                "bad_config_value",
                f"config field {name!r} must be at least {minimum}, "
                f"got {value}",
                field=name,
                minimum=minimum,
            )
        overrides[name] = value
    max_cycles = overrides.get("max_cycles")
    if max_cycles is not None and max_cycles > LIMITS["max_max_cycles"]:
        raise ProtocolError(
            "max_cycles_too_large",
            f"max_cycles {max_cycles} exceeds the service limit",
            limit=LIMITS["max_max_cycles"],
            got=max_cycles,
        )
    return CRAY1_LIKE.with_(**overrides)


def _parse_source(payload: Dict[str, Any],
                  workloads: Mapping[str, Workload]) -> Workload:
    program_src = payload.get("program")
    workload_name = payload.get("workload")
    if program_src is not None and workload_name is not None:
        raise ProtocolError(
            "ambiguous_source",
            "give either 'program' or 'workload', not both",
        )
    if program_src is None and workload_name is None:
        raise ProtocolError(
            "missing_source",
            "one of 'program' (assembly source) or 'workload' "
            "(a bundled benchmark name) is required",
        )
    if workload_name is not None:
        if not isinstance(workload_name, str) \
                or workload_name not in workloads:
            raise ProtocolError(
                "unknown_workload",
                f"unknown workload {workload_name!r}",
                available=sorted(workloads),
            )
        return workloads[workload_name]
    if not isinstance(program_src, str):
        raise ProtocolError(
            "bad_request", "'program' must be a string of assembly source",
        )
    if len(program_src) > LIMITS["max_program_chars"]:
        raise ProtocolError(
            "program_too_long",
            f"program source is {len(program_src)} chars; "
            f"the service accepts at most {LIMITS['max_program_chars']}",
            limit=LIMITS["max_program_chars"],
            got=len(program_src),
        )
    try:
        program = assemble(program_src, name="request")
    except (AssemblyError, ProgramError) as exc:
        raise ProtocolError(
            "bad_program", f"program does not assemble: {exc}",
        ) from None
    return Workload(
        name="request", program=program, initial_memory=Memory(),
    )


def parse_sim_request(payload: Any,
                      workloads: Mapping[str, Workload]) -> SimRequest:
    """Validate one request object into a :class:`SimRequest`.

    Raises :class:`ProtocolError` on any violation; never touches an
    engine.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_request", "a simulation request must be a JSON object",
        )
    engine = payload.get("engine", DEFAULT_ENGINE)
    if not isinstance(engine, str) or engine not in ENGINE_FACTORIES:
        raise ProtocolError(
            "unknown_engine",
            f"unknown engine {engine!r}",
            available=sorted(ENGINE_FACTORIES),
        )
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise ProtocolError("bad_request", "'label' must be a string")
    trace = payload.get("trace", False)
    if not isinstance(trace, bool):
        raise ProtocolError(
            "bad_request", "'trace' must be a boolean",
        )
    config = _parse_config(payload.get("config"))
    if trace:
        limit = LIMITS["max_trace_cycles"]
        config_payload = payload.get("config")
        explicit_budget = isinstance(config_payload, dict) \
            and "max_cycles" in config_payload
        if explicit_budget and config.max_cycles > limit:
            raise ProtocolError(
                "trace_too_large",
                f"traced runs accept a max_cycles budget of at most "
                f"{limit}; drop 'trace' or lower 'max_cycles'",
                limit=limit,
                got=config.max_cycles,
            )
        if not explicit_budget and config.max_cycles > limit:
            # The engine default budget exceeds the trace ceiling;
            # clamp so an untraced-sized request stays serveable.
            config = config.with_(max_cycles=limit)
    workload = _parse_source(payload, workloads)
    point = SimPoint(engine, workload, config, trace=trace)
    key = cache_key(engine, workload, config)
    if trace:
        # Traced and untraced runs of one point must never coalesce:
        # the cache key ignores the flag, but a follower waiting on an
        # untraced leader would get a result with no attribution.
        key += ":trace"
    return SimRequest(
        point=point,
        key=key,
        label=label,
    )


def parse_batch(payload: Any) -> List[Any]:
    """Structurally validate a batch envelope; return its items.

    Per-item validation is the caller's job (items settle
    independently); only batch-shape violations reject the whole
    request.
    """
    if not isinstance(payload, dict) \
            or not isinstance(payload.get("requests"), list):
        raise ProtocolError(
            "bad_request",
            "a batch must be {'requests': [<request>, ...]}",
        )
    requests = payload["requests"]
    if not requests:
        raise ProtocolError("empty_batch", "batch has no requests")
    if len(requests) > LIMITS["max_batch_size"]:
        raise ProtocolError(
            "batch_too_large",
            f"batch has {len(requests)} requests; the service accepts "
            f"at most {LIMITS['max_batch_size']}",
            limit=LIMITS["max_batch_size"],
            got=len(requests),
        )
    return requests


def result_to_wire(result: SimResult) -> Dict[str, Any]:
    """The deterministic wire form of a result.

    The cache's lossless serialization minus its schema tag and the
    volatile host-timing extras.
    """
    payload = serialize_result(result)
    payload.pop("schema", None)
    extra = payload.get("extra", {})
    for key in VOLATILE_EXTRA_KEYS:
        extra.pop(key, None)
    return payload


def wire_to_result(payload: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` from its wire form."""
    tagged = dict(payload)
    tagged["schema"] = SCHEMA_VERSION
    return deserialize_result(tagged)


def canonical_result_bytes(result: SimResult) -> bytes:
    """Canonical byte encoding of a result's deterministic face.

    Two results of the same simulation point are equal iff these bytes
    are equal -- the service's byte-identity contract.
    """
    return json.dumps(
        result_to_wire(result), sort_keys=True, separators=(",", ":"),
    ).encode()
