"""The paper's contribution: the Register Update Unit and its extensions."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "interrupts": (
        "CampaignResult", "PrecisionReport", "check_precision",
        "demonstrate_restartability", "fault_injection_campaign",
        "run_with_page_fault", "run_with_recovery",
    ),
    "prediction": (
        "AlwaysTakenPredictor", "BranchPredictor", "StaticBTFNPredictor",
        "TwoBitPredictor",
    ),
    "ruu": ("BypassMode", "RUUEngine"),
    "speculative": ("PendingBranch", "SpeculativeRUUEngine"),
})
