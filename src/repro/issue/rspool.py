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

from typing import Optional

from ..isa.instruction import Instruction
from ..machine.stats import StallReason
from .common import WindowedEngine
from .tagunit import TagUnitEngine


class RSPoolEngine(TagUnitEngine):
    """A common reservation-station pool in front of all functional units.

    The pool is the window itself, with one capacity for all units;
    up to ``dispatch_paths`` instructions leave it per cycle, memory
    operations first, then the oldest.
    """

    name = "rspool"
    occupancy_keys = ("pool",)

    def _issue_stall(self, inst: Instruction) -> Optional[str]:
        if inst.is_memory and not self.mdu.can_accept():
            return StallReason.NO_LOAD_REGISTER
        if len(self.window) >= self.config.window_size:
            return StallReason.WINDOW_FULL
        return None

    #: The shared dispatch, not Tomasulo's one port per unit.
    _dispatch_ready = WindowedEngine._dispatch_ready
