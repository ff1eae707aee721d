"""Functional execution and dynamic traces (the golden model)."""

from .iss import (
    ExecutionLimitExceeded,
    FunctionalExecutor,
    prefix_state,
    reference_state,
)
from .trace import Trace, TraceEntry

__all__ = [
    "ExecutionLimitExceeded",
    "FunctionalExecutor",
    "Trace",
    "TraceEntry",
    "prefix_state",
    "reference_state",
]
