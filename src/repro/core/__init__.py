"""The paper's contribution: the Register Update Unit and its extensions."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "prediction": (
        "AlwaysTakenPredictor", "BranchPredictor", "StaticBTFNPredictor",
        "TwoBitPredictor",
    ),
    "ruu": ("BypassMode", "RUUEngine"),
    "speculative": ("PendingBranch", "SpeculativeRUUEngine"),
})
