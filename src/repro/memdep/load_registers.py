"""Load registers: memory disambiguation and forwarding (paper §3.2.1.2).

The paper resolves memory dependencies with a small set of *load
registers* holding the addresses of currently-active memory locations:

* if a load's address matches a pending load or store, the load is *not*
  submitted to memory -- it obtains its data when the pending operation's
  data is available (store-to-load forwarding / load-load merging);
* if a store's address matches, the store becomes the latest producer
  for that address (the tag is updated);
* addresses resolve strictly in program order: a load/store whose
  address is unknown blocks all younger loads/stores from proceeding;
* issue blocks when no load register is free.

This implementation tracks one in-flight memory operation per load
register (a conservative simplification of the paper's
one-register-per-distinct-address scheme; with the paper's sizing of 6
registers -- 4 sufficed -- the difference is not visible on the
benchmark loops, see DESIGN.md).

The unit is engine-agnostic.  Engines drive it:

1. ``add(seq, is_store)`` at issue (after checking ``can_accept``);
2. ``resolve(seq, address)`` when the operation's address becomes
   computable -- calls must be made oldest-first, and the unit enforces
   program order;
3. ``publish(seq, value)`` when the operation's datum (stores) or result
   (loads) becomes available for forwarding;
4. ``mark_dispatched(seq)`` when the memory access (or forward) starts;
5. ``finish(seq)`` when the operation leaves the machine (completion for
   the out-of-order-completion engines, commit for the RUU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine.faults import SimulationError

#: Binding of a load to its data source.
FROM_MEMORY = "memory"


@dataclass
class _MemOp:
    seq: int
    is_store: bool
    address: Optional[int] = None
    binding: Optional[object] = None  # FROM_MEMORY or a producer seq
    dispatched: bool = False
    finished: bool = False


class MemoryDependencyUnit:
    """The load-register file plus its pseudo-queue of memory operations."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("need at least one load register")
        self.capacity = capacity
        self._ops: Dict[int, _MemOp] = {}
        self._order: List[int] = []            # in-flight, program order
        self._by_address: Dict[int, List[int]] = {}
        self._published: Dict[int, object] = {}
        self._consumers: Dict[int, int] = {}   # producer seq -> waiting loads
        self.forwards = 0

    # -- issue ----------------------------------------------------------

    def can_accept(self) -> bool:
        """Is a load register free for a new memory instruction?"""
        return len(self._order) < self.capacity

    def add(self, seq: int, is_store: bool) -> None:
        """Track a newly issued memory operation."""
        if seq in self._ops:
            raise SimulationError(f"memory op {seq} added twice")
        if self._order and seq <= self._order[-1]:
            raise SimulationError("memory ops must be added in program order")
        self._ops[seq] = _MemOp(seq, is_store)
        self._order.append(seq)

    # -- address resolution -----------------------------------------------

    def oldest_unresolved(self) -> Optional[int]:
        """The seq of the oldest op without an address (next to resolve)."""
        for seq in self._order:
            if self._ops[seq].address is None:
                return seq
        return None

    def resolve(self, seq: int, address: int) -> object:
        """Give ``seq`` its effective address; returns the load's binding.

        For a load: the youngest *older* in-flight operation with the
        same address (forward from it), else :data:`FROM_MEMORY`.  For a
        store: the store becomes the latest producer for the address.
        """
        op = self._ops[seq]
        if op.address is not None:
            raise SimulationError(f"memory op {seq} resolved twice")
        if self.oldest_unresolved() != seq:
            raise SimulationError(
                f"memory op {seq} resolved out of program order"
            )
        op.address = address
        peers = self._by_address.setdefault(address, [])
        binding: object = FROM_MEMORY
        if not op.is_store:
            for other_seq in reversed(peers):
                other = self._ops[other_seq]
                if not other.finished:
                    binding = other_seq
                    self._consumers[other_seq] = (
                        self._consumers.get(other_seq, 0) + 1
                    )
                    self.forwards += 1
                    break
        op.binding = binding
        peers.append(seq)
        return binding

    def binding_of(self, seq: int) -> object:
        op = self._ops[seq]
        if op.binding is None:
            raise SimulationError(f"memory op {seq} not resolved yet")
        return op.binding

    def is_resolved(self, seq: int) -> bool:
        return self._ops[seq].address is not None

    # -- forwarding --------------------------------------------------------

    def publish(self, seq: int, value) -> None:
        """A producer's data is now available for forwarding."""
        self._published.setdefault(seq, value)

    def load_source_ready(self, seq: int) -> bool:
        """May this load start?  FROM_MEMORY loads are ready immediately
        once resolved; forwarded loads wait for the producer's value."""
        binding = self.binding_of(seq)
        if binding is FROM_MEMORY:
            return True
        return binding in self._published

    def forwarded_value(self, seq: int):
        """The value a forwarded load receives."""
        binding = self.binding_of(seq)
        if binding is FROM_MEMORY:
            raise SimulationError(f"load {seq} reads memory, not a forward")
        return self._published[binding]

    # -- per-address access ordering ------------------------------------------

    def store_may_dispatch(self, seq: int) -> bool:
        """A store may start its memory access only when every older
        operation on the same address has started (keeps per-address
        accesses in program order for the out-of-order-completion
        engines; a no-op constraint for the in-order-commit RUU)."""
        op = self._ops[seq]
        for other_seq in self._by_address.get(op.address, ()):
            if other_seq >= seq:
                break
            other = self._ops[other_seq]
            if not other.dispatched and not other.finished:
                return False
        return True

    def mark_dispatched(self, seq: int) -> None:
        self._ops[seq].dispatched = True

    # -- retirement -----------------------------------------------------------

    def finish(self, seq: int) -> None:
        """The operation has left the machine; free its load register."""
        op = self._ops.get(seq)
        if op is None or op.finished:
            raise SimulationError(f"memory op {seq} finished twice")
        op.finished = True
        self._order.remove(seq)
        if isinstance(op.binding, int):
            self._consumers[op.binding] -= 1
            self._maybe_drop(op.binding)
        self._maybe_drop(seq)

    def _maybe_drop(self, seq: int) -> None:
        """Drop a finished op once no forwarded load still needs it."""
        op = self._ops.get(seq)
        if op is None or not op.finished:
            return
        if self._consumers.get(seq, 0) > 0:
            return
        self._consumers.pop(seq, None)
        self._published.pop(seq, None)
        if op.address is not None:
            peers = self._by_address.get(op.address)
            if peers is not None:
                peers.remove(seq)
                if not peers:
                    del self._by_address[op.address]
        del self._ops[seq]

    # -- recovery -------------------------------------------------------------

    def squash_from(self, boundary_seq: int) -> None:
        """Discard every in-flight op with ``seq >= boundary_seq``
        (interrupt or misprediction recovery)."""
        doomed = [seq for seq in self._order if seq >= boundary_seq]
        for seq in reversed(doomed):
            op = self._ops[seq]
            self._order.remove(seq)
            if isinstance(op.binding, int):
                self._consumers[op.binding] -= 1
            if op.address is not None:
                self._by_address[op.address].remove(seq)
                if not self._by_address[op.address]:
                    del self._by_address[op.address]
            self._published.pop(seq, None)
            self._consumers.pop(seq, None)
            del self._ops[seq]
        # Producers that lost all consumers may now be droppable.
        for seq in list(self._ops):
            self._maybe_drop(seq)

    # -- introspection --------------------------------------------------------

    def in_flight(self) -> int:
        return len(self._order)
