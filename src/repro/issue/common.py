"""The windowed-engine core shared by Tomasulo's family and the RUU.

Tomasulo, the Tag Unit, the RS pool, the RSTU and the RUU all hold
waiting instructions in entries of the same shape: per-source slots
that either hold a value or snoop a tag, a destination tag, and
execution bookkeeping.  The paper builds each machine from the one
before by changing only how tags are *allocated*, how the stations are
laid out, and when a station is *freed* (§3.2, §5).
:class:`WindowedEngine` is that ladder's common rung: issue, in-order
address resolution, store-data publication, readiness, dispatch and
execution live here once, and each engine supplies only the hooks that
differ.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.semantics import effective_address
from ..machine.engine import Engine
from ..machine.faults import FAULT_TYPES
from ..machine.stats import StallReason
from ..memdep.load_registers import FROM_MEMORY, MemoryDependencyUnit


class WindowEntry:
    """A reservation station (or RSTU/RUU slot) holding one instruction.

    ``values`` and ``tags`` hold the source operands (the station's
    Vj/Vk and Qj/Qk) in :attr:`Instruction.sources` order -- explicit
    sources first, then the memory base register (if any).  A slot's
    tag is None once its value is there.  For a store, slot 0 is the
    datum.  ``missing`` counts the slots still waiting on a tag; the
    :class:`WakeupIndex` keeps it current.
    """

    __slots__ = (
        "seq",
        "inst",
        "values",
        "tags",
        "missing",
        "dest_tag",
        "dispatched",
        "executed_cycle",
        "result",
        "fault",
        "address",
        "squashed",
    )

    def __init__(self, seq: int, inst: Instruction, values: List,
                 tags: List, missing: int, dest_tag=None) -> None:
        self.seq = seq
        self.inst = inst
        self.values = values
        self.tags = tags
        self.missing = missing
        self.dest_tag = dest_tag
        self.dispatched = False
        self.executed_cycle: Optional[int] = None
        self.result = None
        self.fault: Optional[Exception] = None
        self.address: Optional[int] = None
        self.squashed = False      # dropped by recovery; ignore completions

    # -- readiness ---------------------------------------------------------

    @property
    def datum(self):
        """The value a store writes (its datum operand must be ready)."""
        return self.values[0]

    def compute_address(self) -> int:
        """Resolve and cache the effective address (base must be ready)."""
        if self.address is None:
            self.address = effective_address(self.values[-1], self.inst.imm)
        return self.address

    @property
    def state(self) -> str:
        """``waiting``, ``dispatched`` or ``done`` (for diagnostics)."""
        if self.executed_cycle is not None:
            return "done"
        return "dispatched" if self.dispatched else "waiting"

    @property
    def waiting_tags(self) -> List[object]:
        """The tags of the operands still missing."""
        return [tag for tag in self.tags if tag is not None]

    def __repr__(self) -> str:
        return f"<#{self.seq} {self.inst} [{self.state}]>"


class WakeupIndex(Dict[object, List[Tuple[WindowEntry, int]]]):
    """Tag -> the ``(entry, slot)`` pairs waiting on it (the result-bus
    tag match).

    A broadcast visits exactly the slots waiting on its tag instead of
    snooping every entry of the window.  ``ready`` stands for the
    stations' ready bits: the undispatched entries with no operand
    missing, in seq order.  Dispatch selects from it, and removes what
    it dispatches, instead of scanning the window.

    A store publishes its datum to ``mdu`` (for loads to forward) as it
    becomes ready.  Its operands are the datum and the base, and no
    load can bind to it before the base has resolved its address, so
    this is as early as any load can ask.
    """

    __slots__ = ("ready", "mdu")

    def __init__(self, mdu: MemoryDependencyUnit) -> None:
        super().__init__()
        self.ready: List[WindowEntry] = []
        self.mdu = mdu

    def add(self, entry: WindowEntry) -> None:
        """Index every slot of a new ``entry`` that waits on a tag; an
        entry with none is ready at issue."""
        if entry.missing:
            for slot, tag in enumerate(entry.tags):
                if tag is not None:
                    waiting = self.get(tag)
                    if waiting is None:
                        self[tag] = [(entry, slot)]
                    else:
                        waiting.append((entry, slot))
        else:
            # Issue is in seq order: the newest entry is the youngest.
            self.ready.append(entry)
            if entry.inst.is_store:
                self.mdu.publish(entry.seq, entry.datum)

    def wake(self, tag, value) -> None:
        """Deliver ``(tag, value)``: every waiting slot captures it."""
        waiting = self.pop(tag, None)
        if waiting is not None:
            for entry, slot in waiting:
                entry.values[slot] = value
                entry.tags[slot] = None
                entry.missing -= 1
                if not entry.missing:
                    self._make_ready(entry)

    def _make_ready(self, entry: WindowEntry) -> None:
        """Insert ``entry`` into ``ready`` at its seq position."""
        ready = self.ready
        seq = entry.seq
        index = len(ready)
        while index and ready[index - 1].seq > seq:
            index -= 1
        ready.insert(index, entry)
        if entry.inst.is_store:
            self.mdu.publish(seq, entry.datum)

    def clear(self) -> None:
        """Forget every waiter and every ready entry (a full squash)."""
        super().clear()
        self.ready.clear()

    def drop_squashed(self) -> None:
        """Forget the slots and ready bits of squashed entries
        (recovery)."""
        for tag, waiting in list(self.items()):
            live = [pair for pair in waiting if not pair[0].squashed]
            if live:
                self[tag] = live
            else:
                del self[tag]
        self.ready = [entry for entry in self.ready if not entry.squashed]


class WindowedEngine(Engine):
    """Issue into a window of reservation stations, dispatch out of order.

    ``window`` holds every occupied station in program order.  Subclasses
    implement the hooks: :meth:`_issue_stall`, :meth:`_source_operand`,
    :meth:`_allocate_dest_tag`, :meth:`_register_pending` and
    :meth:`_phase_complete`, and set :attr:`release_at_dispatch` and
    :attr:`occupancy_keys`.  In-order commit comes from
    :class:`~repro.machine.engine.InOrderCommit`, which also turns on
    :attr:`stores_at_commit`.
    """

    #: Is a station freed when its instruction dispatches (Tomasulo, the
    #: Tag Unit, the RS pool)?  Otherwise the engine frees it later: at
    #: completion (the RSTU) or at commit (the RUU).
    release_at_dispatch = True
    #: Do stores write memory at commit, in program order (the RUU)?
    #: Otherwise they write at dispatch.  A store that waits for commit
    #: occupies its unit for ``config.store_execute_latency`` cycles.
    stores_at_commit = False
    #: The name traces give the window's occupancy counter.
    occupancy_keys = ("window",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mdu = MemoryDependencyUnit(self.config.n_load_registers)
        self.window: Deque[WindowEntry] = deque()
        self._waiting = WakeupIndex(self.mdu)
        #: Memory ops whose address is not yet known, in program order.
        self._unresolved: Deque[WindowEntry] = deque()
        self.occupancy_accum = 0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _issue_stall(self, inst: Instruction) -> Optional[str]:
        """The reason ``inst`` cannot take a station now, or None."""

    @abc.abstractmethod
    def _source_operand(self, reg_id: int) -> Tuple[object, object]:
        """Read source register ``reg_id``: ``(value, None)``, or
        ``(None, tag)`` for a tag to snoop."""

    @abc.abstractmethod
    def _allocate_dest_tag(self, dest_id: int, seq: int):
        """Tag the new instance of ``dest_id``; None when no tag is free."""

    def _insert_entry(self, entry: WindowEntry) -> None:
        """Occupy a station with the newly issued ``entry``."""
        self.window.append(entry)

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _try_issue(self, inst: Instruction, seq: int) -> bool:
        reason = self._issue_stall(inst)
        if reason is not None:
            self.stall(reason)
            return False
        # Read sources *before* tagging the destination: an instruction
        # like ``A_ADDI A1, A1, 1`` must take A1's previous tag, not its
        # own freshly allocated one.
        values = []
        tags = []
        missing = 0
        for reg in inst.source_ids:
            value, tag = self._source_operand(reg)
            values.append(value)
            tags.append(tag)
            if tag is not None:
                missing += 1
        dest_tag = None
        if inst.dest_id is not None:
            dest_tag = self._allocate_dest_tag(inst.dest_id, seq)
            if dest_tag is None:
                self.stall(StallReason.NO_TAG)
                return False
        entry = WindowEntry(seq, inst, values, tags, missing, dest_tag)
        self._waiting.add(entry)
        self._insert_entry(entry)
        if inst.is_memory:
            self.mdu.add(seq, inst.is_store)
            self._unresolved.append(entry)
        if self.recorder is not None:
            self.recorder.on_stage(seq, "issue", self.cycle)
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _phase_dispatch(self) -> None:
        if self.interrupt_record is not None:
            return
        if self._unresolved:
            self._resolve_addresses()
        self.occupancy_accum += len(self.window)
        if self._waiting.ready:
            self._dispatch_ready()

    def _resolve_addresses(self) -> None:
        """Compute effective addresses strictly in program order: an
        unknown address blocks all younger memory ops (paper §3.2.1.2)."""
        while self._unresolved:
            entry = self._unresolved[0]
            if entry.tags[-1] is not None:
                break
            self.mdu.resolve(entry.seq, entry.compute_address())
            self._unresolved.popleft()

    def _dispatch_ready(self) -> None:
        """Up to ``dispatch_paths`` instructions leave the window per
        cycle: loads and stores first, then the one that entered the
        window earliest (the paper's RUU rule, §5.1).  Only entries on
        the ready list have all their operands."""
        ready = self._waiting.ready
        budget = self.config.dispatch_paths
        if budget <= 0:
            return
        others = []
        # A snapshot: dispatch removes entries from the ready list.
        for entry in tuple(ready):
            if not entry.inst.is_memory:
                others.append(entry)
            elif self._entry_ready(entry) and self._dispatch(entry):
                budget -= 1
                if budget == 0:
                    return
        for entry in others:
            if self._dispatch(entry):
                budget -= 1
                if budget == 0:
                    return

    def _entry_ready(self, entry: WindowEntry) -> bool:
        """May ``entry``, whose operands are all present (it is on the
        ready list), dispatch?  A memory op must also meet the
        memory-ordering conditions."""
        inst = entry.inst
        if not inst.is_memory:
            return True
        if not self.mdu.is_resolved(entry.seq):
            return False
        if inst.is_store:
            return self.mdu.store_may_dispatch(entry.seq)
        return self.mdu.load_source_ready(entry.seq)

    def _dispatch(self, entry: WindowEntry) -> bool:
        """Send one ready entry to its functional unit.

        Reserves the result bus for the completion cycle (paper: "The
        RUU reserves the result bus when it issues an instruction"); a
        bus conflict cancels the dispatch (retried next cycle).
        """
        inst = entry.inst
        cycle = self.cycle
        if not self.fus.can_accept(inst.fu_index, cycle):
            return False
        if inst.is_memory:
            done_cycle = cycle + self._execution_latency(entry)
        else:
            done_cycle = cycle + self.fus.latency[inst.fu_index]
        if inst.dest_id is not None \
                and not self.result_bus.reserve(done_cycle):
            self.result_bus.conflicts += 1
            return False
        self._execute(entry)
        self.fus.accept(inst.fu_index, cycle)
        entry.dispatched = True
        self._waiting.ready.remove(entry)
        if inst.is_memory:
            self.mdu.mark_dispatched(entry.seq)
        if self.release_at_dispatch:
            self.window.remove(entry)
        # _schedule_completion, inlined but for its late-delivery error.
        if done_cycle <= cycle:
            self._schedule_completion(done_cycle, entry)
        pending = self._completions.get(done_cycle)
        if pending is None:
            self._completions[done_cycle] = [entry]
        else:
            pending.append(entry)
        if self.recorder is not None:
            self.recorder.on_stage(entry.seq, "dispatch", cycle)
        return True

    def _execution_latency(self, entry: WindowEntry) -> int:
        """A memory op's latency: it may not be its unit's."""
        inst = entry.inst
        if inst.is_store and self.stores_at_commit:
            return self.config.store_execute_latency
        if inst.is_load and \
                self.mdu.binding_of(entry.seq) is not FROM_MEMORY:
            return self.config.forward_latency
        return self.fus.latency[inst.fu_index]

    def _execute(self, entry: WindowEntry) -> None:
        """Compute the entry's result (delivered at its completion cycle).

        Loads read memory here, at dispatch.  A store written here
        becomes visible out of program order relative to other
        instructions -- the imprecise behaviour under study -- but in
        per-address order (``store_may_dispatch`` and the in-order
        address resolution).  With in-order commit a load cannot miss
        an uncommitted older store: a same-address pending store would
        have captured it at binding time.
        """
        inst = entry.inst
        try:
            if not inst.is_memory:
                # No base register: the operands are the explicit sources.
                entry.result = inst.coerce(
                    inst.operation(entry.values, inst.imm))
            elif inst.is_load:
                if self.mdu.binding_of(entry.seq) is FROM_MEMORY:
                    raw = self.memory.read(entry.address)
                else:
                    raw = self.mdu.forwarded_value(entry.seq)
                entry.result = inst.coerce(raw)
            elif not self.stores_at_commit:
                self.memory.write(entry.address, entry.datum)
        except FAULT_TYPES as fault:
            entry.fault = fault

    # ------------------------------------------------------------------

    def invariant_checks(self, checker) -> None:
        checker.check_window(self)

    def waiting_entries(self) -> Sequence[WindowEntry]:
        return self.window

    def occupancy_counts(self) -> Tuple[int, ...]:
        return (len(self.window),)

    def _drained(self) -> bool:
        return not self.window and not self._completions

    def result(self):
        sim_result = super().result()
        if self.cycle:
            sim_result.extra["avg_window_occupancy"] = (
                self.occupancy_accum / self.cycle
            )
        sim_result.extra["memory_forwards"] = self.mdu.forwards
        return sim_result
