"""Machine substrate: configuration, memory, buses, FUs, engine base."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": ("Checkpoint", "CheckpointError"),
    "config": ("CRAY1_LIKE", "MachineConfig"),
    "diagnostics": (
        "EngineDiagnostic", "WaitingInstruction", "capture_diagnostic",
    ),
    "engine": ("Engine",),
    "faults": (
        "FAULT_TYPES", "ArithmeticFault", "DeadlockError", "PageFault",
        "SimulationError",
    ),
    "fetch": ("InstructionBuffers",),
    "functional_units": ("FUPool",),
    "interrupts": ("InterruptRecord",),
    "memory": ("Memory",),
    "result_bus": ("ResultBus",),
    "stats": ("SimResult", "StallReason", "aggregate", "speedup"),
    "timeline": ("Timeline",),
})
