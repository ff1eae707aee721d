"""Tag Unit with merged reservation stations (paper §3.2.2).

With one pool of reservation stations per functional unit, one unit can
run out of stations while another's sit idle.  Merging all stations
into a single *RS Pool* shares them across units; the cost is a limited
number of dispatch paths from the pool to the functional units
(``config.dispatch_paths``, versus one implicit path per unit in the
distributed design).

``config.window_size`` is the *total* pool size for this engine.
Tags still come from the separate Tag Unit (``config.n_tags``).
"""

from __future__ import annotations

from typing import List

from ..isa.instruction import Instruction
from .common import WindowEntry
from .tagunit import TagUnitEngine


class RSPoolEngine(TagUnitEngine):
    """A common reservation-station pool in front of all functional units."""

    name = "rspool"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pool: List[WindowEntry] = []

    # -- station organization -------------------------------------------

    def _station_available(self, inst: Instruction) -> bool:
        return len(self._pool) < self.config.window_size

    def _insert_entry(self, entry: WindowEntry) -> None:
        self._pool.append(entry)

    def _release_entry(self, entry: WindowEntry) -> None:
        self._pool.remove(entry)

    def _occupied(self) -> int:
        return len(self._pool)

    # -- dispatch ----------------------------------------------------------

    def _dispatch_from_stations(self) -> None:
        """Up to ``dispatch_paths`` instructions leave the pool per cycle.

        Selection priority follows the paper's RUU rule: memory
        operations first, then age.  (The pool list is in program
        order; a snapshot is taken because dispatch removes entries.)
        """
        budget = self.config.dispatch_paths
        candidates = [e for e in self._pool if not e.dispatched]
        candidates.sort(key=lambda e: (not e.inst.is_memory, e.seq))
        for entry in candidates:
            if budget == 0:
                break
            if not self._entry_ready(entry):
                continue
            if self._dispatch(entry):
                budget -= 1
