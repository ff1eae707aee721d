"""repro.obs -- per-cycle observability for the engine zoo.

Four layers, each usable on its own:

* :mod:`repro.obs.events` -- :class:`TraceRecorder`, the per-cycle
  structured event capture engines feed when one is attached;
* :mod:`repro.obs.attribution` -- full-cycle accounting (every cycle in
  exactly one bucket, asserted against ``SimResult.cycles``);
* :mod:`repro.obs.chrome` -- Chrome trace-event JSON export for
  Perfetto / chrome://tracing, plus the matching schema validator;
* :mod:`repro.obs.diff` -- cross-engine (or engine-vs-golden-ISS)
  trace comparison for differential debugging.

CLI entry points: ``repro trace`` and ``repro diff``; the simulation
service accepts ``"trace": true`` on ``POST /run``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "attribution": (
        "BUCKET_ORDER", "AttributionError", "CycleAttribution",
        "attribute_cycles", "attribution_delta",
    ),
    "chrome": ("chrome_trace", "validate_chrome_trace", "write_chrome_trace"),
    "diff": (
        "CommitDivergence", "StageDelta", "TraceDiff", "diff_against_iss",
        "diff_recorders", "diff_stage_events",
    ),
    "events": ("TraceRecorder",),
})
