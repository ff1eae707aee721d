"""Memory disambiguation: the paper's load registers (section 3.2.1.2)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "load_registers": ("FROM_MEMORY", "MemoryDependencyUnit"),
})
