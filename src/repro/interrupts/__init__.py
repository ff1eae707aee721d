"""Smith & Pleszkun precise-interrupt schemes on the in-order machine."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "inorder": (
        "FutureFileEngine", "HistoryBufferEngine", "InOrderPreciseEngine",
        "ReorderBufferBypassEngine", "ReorderBufferEngine",
    ),
})
