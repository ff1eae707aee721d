"""The RS Tag Unit -- merged reservation stations and tags (paper §3.2.3).

In the Tag Unit + RS Pool design, every instruction in the pool or in a
functional unit holds exactly one tag, so the tag pool and the station
pool can be one structure: the **RSTU**.  Reserving a station *is*
reserving a tag:

* issue takes a free RSTU entry (blocking when full) -- the entry index
  is the tag;
* the associative latest-copy logic lives on the entries themselves;
* an entry is occupied until its instruction *completes* (a station is
  "wasted" while the instruction is in a functional unit -- the paper
  accepts this because the same organization later yields the RUU);
* completion broadcasts on the result bus, updates the register file if
  the entry holds the latest copy, and frees the entry.

This is the machine of Tables 2 (one dispatch path) and 3 (two dispatch
paths).  It does *not* implement precise interrupts: entries complete
and update architectural state out of program order.
"""

from __future__ import annotations

from .rspool import RSPoolEngine
from .tomasulo import TomasuloEngine


class RSTUEngine(RSPoolEngine):
    """Merged reservation-station/tag pool, out-of-order commitment.

    ``config.window_size`` is the number of RSTU entries (the x-axis of
    Tables 2 and 3); ``config.dispatch_paths`` selects between them.
    """

    name = "rstu"
    #: Entries persist through execution and free at completion.
    release_at_dispatch = False

    #: Reserving the station reserved the tag: the dynamic seq names the
    #: entry's slot, capacity was checked at issue, and the old latest
    #: copy (if any) is superseded in the latest-tag map.
    _allocate_dest_tag = TomasuloEngine._allocate_dest_tag
    #: Write the register file only from the latest copy (Tomasulo's
    #: rule, not the Tag Unit's slot bookkeeping).
    _writeback = TomasuloEngine._writeback
