"""Simulation-as-a-service: run the simulator fleet behind a socket.

``repro serve`` turns the repository's simulators into a long-lived
JSON-over-HTTP service with the properties an inference server needs:
a bounded admission queue with explicit backpressure (429 +
``Retry-After``), coalescing of identical in-flight requests, execution
on the self-healing :class:`~repro.analysis.parallel.ParallelRunner`
pool backed by the shared :class:`~repro.analysis.cache.ResultCache`,
Prometheus metrics, and graceful drain on SIGTERM.

Layering (stdlib only, no web framework):

* :mod:`~repro.serve.protocol`  -- request/response schemas, input
  limits, and the canonical wire form of a ``SimResult``;
* :mod:`~repro.serve.metrics`   -- a minimal Prometheus text-format
  registry (counters, gauges, histograms);
* :mod:`~repro.serve.admission` -- the bounded admission controller,
  the in-flight coalescer, and the dispatcher hand-off queue;
* :mod:`~repro.serve.service`   -- :class:`SimService`, the engine
  room: admission -> micro-batch -> runner pool -> settle futures;
* :mod:`~repro.serve.server`    -- the asyncio HTTP front end
  (``/run``, ``/batch``, ``/healthz``, ``/metrics``);
* :mod:`~repro.serve.client`    -- a small blocking client (tests,
  CI smoke load) that honours ``Retry-After``.
"""

from .protocol import (
    LIMITS,
    ProtocolError,
    SimRequest,
    build_workload_registry,
    canonical_result_bytes,
    parse_sim_request,
    result_to_wire,
    wire_to_result,
)
from .service import (
    BatchOverCapacity,
    ServiceBusy,
    ServiceDraining,
    SimService,
)
from .server import ServeApp, serve_in_background
from .client import Backpressure, ServeClient, ServeError

__all__ = [
    "Backpressure",
    "BatchOverCapacity",
    "LIMITS",
    "ProtocolError",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServiceBusy",
    "ServiceDraining",
    "SimRequest",
    "SimService",
    "build_workload_registry",
    "canonical_result_bytes",
    "parse_sim_request",
    "result_to_wire",
    "serve_in_background",
    "wire_to_result",
]
