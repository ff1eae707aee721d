"""The Tag Unit extension of Tomasulo's algorithm (paper §3.2.1, Fig 2).

Observation: very few of the 144 *possible* destination registers are
active at once, so associating tag hardware with every register wastes
silicon.  Instead, a common pool of tags (the Tag Unit) is allocated
only to *currently active* destination registers:

* each register keeps a single busy bit (modelled here as presence in
  the latest-tag map);
* issuing with a busy destination gets a *new* tag and clears the old
  tag's "latest copy" bit -- the older instruction may complete, but it
  may not unlock the register;
* results flow to the reservation stations and to the Tag Unit; *only
  the Tag Unit* writes the register file (no direct FU-to-register
  path), and only a latest-copy result performs the write;
* issue blocks when the Tag Unit is full (``config.n_tags`` entries).

The reservation stations stay distributed per functional unit, exactly
as in :class:`~repro.issue.tomasulo.TomasuloEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..machine.faults import SimulationError
from .common import WindowEntry
from .tomasulo import TomasuloEngine


@dataclass
class TagUnitEntry:
    """One slot of the Tag Unit: Register Number | Tag Free | Latest Copy."""

    register: Optional[int] = None   # register id
    free: bool = True
    latest: bool = False


class TagUnitEngine(TomasuloEngine):
    """Tomasulo with a consolidated tag pool instead of per-register tags."""

    name = "tagunit"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tag_unit: List[TagUnitEntry] = [
            TagUnitEntry() for _ in range(self.config.n_tags)
        ]
        self._free_tags: List[int] = list(range(self.config.n_tags))

    # ------------------------------------------------------------------

    def _allocate_dest_tag(self, dest_id: int, seq: int):
        """Take a free Tag Unit slot for ``dest_id``; None when exhausted.

        If the register already has a tag, the old slot loses its
        latest-copy bit (its instruction keeps the slot until it
        completes but can no longer unlock the register).
        """
        if not self._free_tags:
            return None
        slot = self._free_tags.pop()
        old_slot = self._reg_tag[dest_id]
        if old_slot is not None:
            self._tag_unit[old_slot].latest = False
        entry = self._tag_unit[slot]
        entry.register = dest_id
        entry.free = False
        entry.latest = True
        self._reg_tag[dest_id] = slot
        return slot

    def _writeback(self, entry: WindowEntry) -> None:
        """The Tag Unit forwards the result to the register file.

        A latest-copy tag writes the register and clears its busy bit;
        a superseded tag is simply freed.  Either way the slot returns
        to the pool -- safe against tag aliasing because every waiting
        reservation station captured the value from this broadcast in
        the same cycle.
        """
        slot = entry.dest_tag
        dest = entry.inst.dest_id
        tu_entry = self._tag_unit[slot]
        if tu_entry.free or tu_entry.register != dest:
            raise SimulationError(
                f"tag {slot} does not belong to {entry.inst.dest}"
            )
        if tu_entry.latest:
            self.regs.values[dest] = entry.result
            if self._reg_tag[dest] == slot:
                self._reg_tag[dest] = None
        tu_entry.register = None
        tu_entry.free = True
        tu_entry.latest = False
        self._free_tags.append(slot)
