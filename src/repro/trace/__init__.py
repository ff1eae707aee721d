"""Functional execution and dynamic traces (the golden model)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "iss": (
        "ExecutionLimitExceeded", "FunctionalExecutor", "prefix_state",
        "reference_state",
    ),
    "trace": ("Trace", "TraceEntry"),
})
