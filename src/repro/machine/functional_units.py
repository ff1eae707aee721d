"""Pipelined functional units.

Each FU class of the model architecture has one fully pipelined unit
(initiation interval of one): it can accept a new operation every cycle,
and an operation dispatched at cycle *t* produces its result on the
result bus at cycle *t + latency*.  The structural hazards that matter
are therefore (a) one dispatch per unit per cycle and (b) the single
result bus (:mod:`repro.machine.result_bus`).
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.opcodes import FUClass
from .config import MachineConfig


class FUPool:
    """The full complement of functional units for a machine config:
    one pipelined unit per FU class.

    Units are addressed by FU index (``Instruction.fu_index``, the
    position of the class in ``FUClass`` order); each per-unit field is
    a list by that index.
    """

    def __init__(self, config: MachineConfig) -> None:
        #: Latency in cycles of each unit, by FU index.
        self.latency: List[int] = [config.latency(fu) for fu in FUClass]
        self._last_accept: List[int] = [-1] * len(self.latency)
        self._operations: List[int] = [0] * len(self.latency)

    def can_accept(self, fu_index: int, cycle: int) -> bool:
        """One initiation per cycle (fully pipelined)."""
        return self._last_accept[fu_index] != cycle

    def accept(self, fu_index: int, cycle: int) -> int:
        """Dispatch to unit ``fu_index`` at ``cycle``; returns the result
        cycle."""
        assert self._last_accept[fu_index] != cycle, (
            f"{list(FUClass)[fu_index].value} accepted two ops in "
            f"cycle {cycle}"
        )
        self._last_accept[fu_index] = cycle
        self._operations[fu_index] += 1
        return cycle + self.latency[fu_index]

    def utilization(self) -> Dict[FUClass, int]:
        """Operations executed per functional unit."""
        return dict(zip(FUClass, self._operations))
