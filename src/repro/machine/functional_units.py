"""Pipelined functional units.

Each FU class of the model architecture has one fully pipelined unit
(initiation interval of one): it can accept a new operation every cycle,
and an operation dispatched at cycle *t* produces its result on the
result bus at cycle *t + latency*.  The structural hazards that matter
are therefore (a) one dispatch per unit per cycle and (b) the single
result bus (:mod:`repro.machine.result_bus`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..isa.opcodes import FUClass
from .config import MachineConfig


@dataclass
class FunctionalUnit:
    """One pipelined functional unit of a given class."""

    fu_class: FUClass
    latency: int
    last_accept_cycle: int = -1
    operations: int = 0

    def can_accept(self, cycle: int) -> bool:
        """One initiation per cycle (fully pipelined)."""
        return self.last_accept_cycle != cycle

    def accept(self, cycle: int) -> int:
        """Dispatch an operation; returns the result cycle."""
        assert self.can_accept(cycle), (
            f"{self.fu_class.value} accepted two ops in cycle {cycle}"
        )
        self.last_accept_cycle = cycle
        self.operations += 1
        return cycle + self.latency


class FUPool:
    """The full complement of functional units for a machine config.

    Units are addressed by FU index (``Instruction.fu_index``, the
    position of the class in ``FUClass`` order); ``latency`` is the
    matching per-index latency table.
    """

    def __init__(self, config: MachineConfig) -> None:
        self._units: List[FunctionalUnit] = [
            FunctionalUnit(fu, config.latency(fu)) for fu in FUClass
        ]
        #: Latency in cycles of each unit, by FU index.
        self.latency: List[int] = [unit.latency for unit in self._units]

    def __getitem__(self, fu_index: int) -> FunctionalUnit:
        return self._units[fu_index]

    def __iter__(self) -> Iterator[FunctionalUnit]:
        return iter(self._units)

    def can_accept(self, fu_index: int, cycle: int) -> bool:
        return self._units[fu_index].last_accept_cycle != cycle

    def accept(self, fu_index: int, cycle: int) -> int:
        """Dispatch to unit ``fu_index`` at ``cycle``; returns the result
        cycle."""
        return self._units[fu_index].accept(cycle)

    def result_cycle(self, fu_index: int, cycle: int) -> int:
        """When would an op dispatched at ``cycle`` produce its result?"""
        return cycle + self.latency[fu_index]

    def utilization(self) -> Dict[FUClass, int]:
        """Operations executed per functional unit."""
        return {unit.fu_class: unit.operations for unit in self._units}
