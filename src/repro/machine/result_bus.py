"""The single shared result bus of the model architecture.

The paper's machine differs from the real CRAY-1 here (section 2): *only
one functional unit may put data on the result bus in any clock cycle*.
Engines reserve the bus at dispatch time for the cycle the result will
emerge (the Weiss & Smith [17] discipline); a dispatch that cannot get a
bus slot does not happen.
"""

from __future__ import annotations

from typing import List, Set


class ResultBus:
    """Tracks which future cycles the result bus is already reserved for."""

    __slots__ = ("_reserved", "conflicts", "_counted", "_past")

    def __init__(self) -> None:
        self._reserved: Set[int] = set()
        self.conflicts = 0
        # For ``reservations(after)``: ``_past`` reserved cycles are at
        # or before cycle ``_counted``.
        self._counted = -1
        self._past = 0

    def is_free(self, cycle: int) -> bool:
        """Can a result appear on the bus at ``cycle``?"""
        return cycle not in self._reserved

    def reserve(self, cycle: int) -> bool:
        """Reserve the bus at ``cycle``; False if already taken."""
        if cycle in self._reserved:
            self.conflicts += 1
            return False
        self._reserved.add(cycle)
        return True

    def release_past(self, now: int) -> None:
        """Garbage-collect reservations at or before ``now``."""
        self._reserved = {cycle for cycle in self._reserved if cycle > now}
        self._counted = now
        self._past = 0

    def reservations(self, after: int) -> int:
        """How many reservations are outstanding: the reserved cycles
        after cycle ``after``.

        Past cycles stay in the set until :meth:`release_past`, so the
        reserved cycles at or before ``after`` are counted and taken
        off.  The count carries over between calls, which makes a call
        for the cycle after the previous call's one membership test.
        Carrying it over assumes what every engine does: a cycle is
        reserved before it passes (results complete in a later cycle
        than their dispatch).
        """
        reserved = self._reserved
        if after == self._counted + 1:
            self._counted = after
            if after in reserved:
                self._past += 1
            return len(reserved) - self._past
        counted = self._counted
        if after < counted or after - counted > len(reserved):
            past = sum(1 for cycle in reserved if cycle <= after)
        else:
            past = self._past
            while counted < after:
                counted += 1
                if counted in reserved:
                    past += 1
        self._counted = after
        self._past = past
        return len(reserved) - past

    def reserved_cycles(self) -> List[int]:
        """All outstanding reservations, sorted (for debugging/tests)."""
        return sorted(self._reserved)

