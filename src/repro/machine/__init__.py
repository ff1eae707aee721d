"""Machine substrate: configuration, memory, buses, FUs, engine base."""

from .checkpoint import Checkpoint, CheckpointError
from .config import CRAY1_LIKE, MachineConfig, config_for_window
from .diagnostics import (
    EngineDiagnostic,
    WaitingInstruction,
    capture_diagnostic,
)
from .engine import Engine
from .faults import (
    FAULT_TYPES,
    ArithmeticFault,
    DeadlockError,
    PageFault,
    SimulationError,
)
from .fetch import InstructionBuffers
from .functional_units import FUPool
from .interrupts import InterruptRecord
from .memory import Memory
from .result_bus import ResultBus
from .stats import SimResult, StallReason, aggregate, speedup
from .timeline import Timeline

__all__ = [
    "ArithmeticFault",
    "CRAY1_LIKE",
    "Checkpoint",
    "CheckpointError",
    "DeadlockError",
    "Engine",
    "EngineDiagnostic",
    "FAULT_TYPES",
    "FUPool",
    "InstructionBuffers",
    "InterruptRecord",
    "MachineConfig",
    "Timeline",
    "Memory",
    "PageFault",
    "ResultBus",
    "SimResult",
    "SimulationError",
    "StallReason",
    "WaitingInstruction",
    "aggregate",
    "capture_diagnostic",
    "config_for_window",
    "speedup",
]
