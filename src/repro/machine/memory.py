"""Word-addressed data memory with page-fault injection.

The paper assumes no memory bank conflicts and perfect instruction
buffers (section 2.2); what remains is a flat, fixed-latency data memory.
Latency lives in the timing engines (the MEMORY functional-unit time) --
this module only models contents and faults.

Page-fault injection lets tests and examples trigger the paper's central
scenario: a virtual-memory fault arriving while later instructions have
already completed out of order.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .faults import PageFault


class Memory:
    """A sparse word-addressed memory of Python values (default 0)."""

    __slots__ = ("_words", "_faulting", "fault_count", "_fingerprint")

    def __init__(self) -> None:
        self._words: Dict[int, object] = {}
        self._faulting: Set[int] = set()
        self.fault_count = 0
        #: :meth:`fingerprint`'s bytes; every mutator clears it.
        self._fingerprint: Optional[bytes] = None

    # -- plain access (no fault checks; used by the golden model after
    #    servicing, and by test setup) ---------------------------------

    def peek(self, address: int):
        """Read without fault checking."""
        return self._words.get(address, 0)

    def poke(self, address: int, value) -> None:
        """Write without fault checking."""
        self._fingerprint = None
        if value:
            self._words[address] = value
        else:
            self._words.pop(address, None)

    # -- faulting access (used by engines at execute time) --------------

    def read(self, address: int):
        """Read a word, raising :class:`PageFault` on an unmapped page."""
        if address in self._faulting:
            self.fault_count += 1
            raise PageFault(address, is_store=False)
        return self._words.get(address, 0)

    def write(self, address: int, value) -> None:
        """Write a word, raising :class:`PageFault` on an unmapped page."""
        if address in self._faulting:
            self.fault_count += 1
            raise PageFault(address, is_store=True)
        self.poke(address, value)

    def probe(self, address: int, is_store: bool) -> None:
        """Fault-check an address without touching its contents."""
        if address in self._faulting:
            self.fault_count += 1
            raise PageFault(address, is_store=is_store)

    # -- fault injection -------------------------------------------------

    def inject_fault(self, address: int) -> None:
        """Mark ``address`` as unmapped: the next access page-faults."""
        self._fingerprint = None
        self._faulting.add(address)

    def service_fault(self, address: int) -> None:
        """Map the page containing ``address`` (operating-system action)."""
        self._fingerprint = None
        self._faulting.discard(address)

    @property
    def faulting_addresses(self) -> Set[int]:
        return set(self._faulting)

    # -- bulk helpers ------------------------------------------------------

    def write_array(self, base: int, values: Sequence) -> None:
        """Store ``values`` at consecutive words starting at ``base``."""
        for offset, value in enumerate(values):
            self.poke(base + offset, value)

    def read_array(self, base: int, count: int) -> List:
        """Fetch ``count`` consecutive words starting at ``base``."""
        return [self.peek(base + offset) for offset in range(count)]

    # -- comparison support ------------------------------------------------

    def copy(self) -> "Memory":
        clone = Memory()
        clone._words = dict(self._words)
        clone._faulting = set(self._faulting)
        return clone

    def fingerprint(self) -> bytes:
        """Canonical bytes of the contents and the faulting addresses,
        the memory's part of a result-cache key.

        Computed on first use and kept until a mutator clears it:
        ``poke`` (and so ``write`` and ``write_array``), ``inject_fault``
        and ``service_fault``.  A :meth:`copy` or an unpickled memory
        starts without one.
        """
        fingerprint = self._fingerprint
        if fingerprint is None:
            fingerprint = self._fingerprint = json.dumps(
                {
                    "words": sorted(
                        (address, repr(value))
                        for address, value in self._words.items()
                    ),
                    "faulting": sorted(self._faulting),
                },
                sort_keys=True,
            ).encode()
        return fingerprint

    def __getstate__(self) -> Tuple[Dict[int, object], Set[int], int]:
        """Pickle the contents only; the receiver fingerprints afresh."""
        return self._words, self._faulting, self.fault_count

    def __setstate__(self, state) -> None:
        self._words, self._faulting, self.fault_count = state
        self._fingerprint = None

    def nonzero(self) -> Dict[int, object]:
        """All populated words, for equality assertions in tests."""
        return dict(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        return self._words == other._words

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def diff(self, other: "Memory") -> Dict[int, Tuple[object, object]]:
        """Return ``{address: (self, other)}`` for differing words."""
        addresses: Iterable[int] = set(self._words) | set(other._words)
        return {
            addr: (self.peek(addr), other.peek(addr))
            for addr in sorted(addresses)
            if self.peek(addr) != other.peek(addr)
        }
