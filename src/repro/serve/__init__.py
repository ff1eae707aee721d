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
* :mod:`~repro.serve.app`       -- the asyncio HTTP front end
  (``/run``, ``/batch``, ``/healthz``, ``/metrics``);
* :mod:`~repro.serve.server`    -- :func:`serve_in_background`, the
  whole stack on a background thread (tests, perfbench);
* :mod:`~repro.serve.client`    -- a small blocking client (tests,
  CI smoke load) that honours ``Retry-After``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "protocol": (
        "LIMITS", "ProtocolError", "SimRequest", "build_workload_registry",
        "canonical_result_bytes", "parse_sim_request", "result_to_wire",
        "wire_to_result",
    ),
    "service": (
        "BatchOverCapacity", "ServiceBusy", "ServiceDraining", "SimService",
    ),
    "app": ("ServeApp",),
    "server": ("serve_in_background",),
    "client": ("Backpressure", "ServeClient", "ServeError"),
})
