"""The Register Update Unit (paper sections 5 and 6) -- the contribution.

The RUU is the RSTU *managed as a queue*: instructions enter at the tail
in program order and leave at the head in program order.  That single
constraint buys two things at once:

1. **Precise interrupts.**  Architectural state (registers *and*
   memory) is updated only at the head, in program order -- the RUU is
   simultaneously a reorder buffer.  When the head instruction has a
   fault, everything younger is squashed and the visible state is
   exactly the sequential state before the faulting instruction.

2. **Cheap tags.**  Because results return to each register in program
   order, the associative latest-copy search of the RSTU collapses to
   two small counters per register (paper §5.1):

   * ``NI`` -- Number of Instances of the register in the RUU, and
   * ``LI`` -- the Latest Instance number (incremented modulo 2^n).

   A source tag is simply ``(register, LI)``; issue blocks when
   ``NI == 2^n - 1``.  No associative tag allocation remains -- only
   the tag *match* in the reservation stations, which every scheme
   needs.

Three bypass configurations from section 6 are supported:

* ``BypassMode.FULL`` (Table 4): an operand whose producer has executed
  but not yet committed is read directly from the RUU at issue time.
* ``BypassMode.NONE`` (Table 5): no such read path.  Reservation
  stations (and a branch waiting in decode) monitor **both** the result
  bus and the RUU-to-register-file commit bus, so the dependency
  resolves when the producer's value travels on either -- but a value
  that is already sitting in the RUU when the consumer issues is only
  obtained when the producer *commits*.
* ``BypassMode.LIMITED`` (Table 6): the A register file is duplicated
  as a *future file* updated at completion time, restoring the bypass
  path for A registers only (the branch-condition registers); B, S and
  T behave as in ``NONE``.  Reading the newest executed instance from
  the RUU entry is exactly the future-file read, and is implemented
  that way here.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.registers import REGISTERS, TOTAL_REGISTERS, RegBank
from ..machine.engine import InOrderCommit
from ..machine.stats import StallReason
from ..issue.common import WindowedEngine, WindowEntry

#: An RUU tag names one instance of one register, ``instance << 8 | id``
#: (the paper's register number concatenated with LI).
Tag = int
TAG_ID_BITS = 8
TAG_ID_MASK = (1 << TAG_ID_BITS) - 1


def tag_parts(tag: Tag) -> Tuple[int, int]:
    """``(register id, instance)`` of an RUU tag."""
    return tag & TAG_ID_MASK, tag >> TAG_ID_BITS


class BypassMode(enum.Enum):
    """Operand-bypass configurations evaluated in section 6."""

    FULL = "bypass"       # Table 4: read executed results from the RUU
    NONE = "nobypass"     # Table 5: wait for a bus (result or commit)
    LIMITED = "limited"   # Table 6: future file for the A registers only


class RUUEngine(InOrderCommit, WindowedEngine):
    """Queue-managed reservation stations with in-order commit.

    The window is the queue: entries leave it only at the head, at
    commit, and stores write memory there.
    """

    name = "ruu"
    claims_precise_interrupts = True
    release_at_dispatch = False

    def __init__(self, *args, bypass: BypassMode = BypassMode.FULL,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bypass = bypass
        self.name = f"ruu-{bypass.value}"
        #: NI and LI counters (paper §5.1), by register id.
        self._ni: List[int] = [0] * TOTAL_REGISTERS
        self._li: List[int] = [0] * TOTAL_REGISTERS
        self._max_instances = self.config.max_instances
        self._li_mask = (1 << self.config.counter_bits) - 1
        #: May a source read an executed result from the RUU, by
        #: register id (the bypass mode's read paths).
        self._bypass_ok: List[bool] = [
            self._bypass_allows(reg.bank) for reg in REGISTERS
        ]
        self._live: Dict[Tag, WindowEntry] = {}
        self._decode_watch_tag: Optional[Tag] = None
        self._decode_watch_value = None
        self._decode_watch_hit = False
        self.max_ni_observed = 0

    # ------------------------------------------------------------------
    # issue (tail of the queue)
    # ------------------------------------------------------------------

    def _issue_stall(self, inst: Instruction) -> Optional[str]:
        if len(self.window) >= self.config.window_size:
            return StallReason.WINDOW_FULL
        if inst.is_memory and not self.mdu.can_accept():
            return StallReason.NO_LOAD_REGISTER
        dest = inst.dest_id
        if dest is not None and self._ni[dest] >= self._max_instances:
            return StallReason.INSTANCE_LIMIT
        return None

    def _allocate_dest_tag(self, dest_id: int, seq: int) -> Tag:
        """Create the new destination instance: NI and LI step up."""
        ni = self._ni[dest_id] + 1
        self._ni[dest_id] = ni
        if ni > self.max_ni_observed:
            self.max_ni_observed = ni
        li = (self._li[dest_id] + 1) & self._li_mask
        self._li[dest_id] = li
        return li << TAG_ID_BITS | dest_id

    def _insert_entry(self, entry: WindowEntry) -> None:
        self.window.append(entry)
        if entry.dest_tag is not None:
            self._live[entry.dest_tag] = entry

    def _source_operand(self, reg: int) -> Tuple[object, object]:
        """Register-file read, RUU bypass read, or tag to snoop.

        With ``NI == 0`` the register file holds the latest instance
        (commits are in order).  Otherwise the latest instance is tag
        ``(reg, LI)``: a bypass-enabled bank may read it from the RUU if
        it has executed; a bypass-disabled bank waits for the value to
        travel on the result bus or the commit bus.
        """
        if not self._ni[reg]:
            return self.regs.values[reg], None
        tag = self._li[reg] << TAG_ID_BITS | reg
        producer = self._bypass_producer(reg, tag)
        if producer is not None:
            return producer.result, None
        return None, tag

    def _bypass_producer(self, reg: int, tag: Tag) -> Optional[WindowEntry]:
        """The RUU entry whose result a read of ``tag`` may take now: the
        bypass mode lets ``reg`` read the RUU, and the producer has
        executed without a fault.  None otherwise."""
        if self._bypass_ok[reg]:
            producer = self._live.get(tag)
            if producer is not None and producer.executed_cycle is not None \
                    and producer.fault is None:
                return producer
        return None

    def _bypass_allows(self, bank: RegBank) -> bool:
        if self.bypass is BypassMode.FULL:
            return True
        if self.bypass is BypassMode.LIMITED:
            return bank is RegBank.A
        return False

    # ------------------------------------------------------------------
    # completion (functional units -> result bus)
    # ------------------------------------------------------------------

    def _phase_complete(self) -> None:
        for entry in self._completions.pop(self.cycle, ()):
            if entry.squashed:
                continue
            entry.executed_cycle = self.cycle
            if self.recorder is not None:
                self.recorder.on_stage(entry.seq, "complete", self.cycle)
            if entry.fault is not None:
                continue  # no result to broadcast; trap taken at commit
            if entry.dest_tag is not None:
                self._broadcast(entry.dest_tag, entry.result)
            if entry.inst.is_load:
                self.mdu.publish(entry.seq, entry.result)

    def _broadcast(self, tag: Tag, value) -> None:
        """Result-bus (and, from commit, commit-bus) tag match: waiting
        reservation stations and a watching decode stage capture."""
        self._waiting.wake(tag, value)
        if tag == self._decode_watch_tag:
            self._decode_watch_value = value
            self._decode_watch_hit = True

    # ------------------------------------------------------------------
    # commit (head of the queue -> architectural state)
    # ------------------------------------------------------------------

    def _commit_head(self, entry: WindowEntry) -> bool:
        """Commit, then free a retired load or store's load register."""
        committed = super()._commit_head(entry)
        if committed and entry.inst.is_memory:
            self.mdu.finish(entry.seq)
        return committed

    def _commit_register(self, entry: WindowEntry) -> None:
        dest = entry.inst.dest_id
        self.regs.values[dest] = entry.result
        self._ni[dest] -= 1
        # The RUU-to-register-file bus is snooped like the result bus.
        # With full bypass nothing still waits for an executed,
        # fault-free producer (``InvariantChecker.check_ruu``).
        if self.bypass is not BypassMode.FULL:
            self._broadcast(entry.dest_tag, entry.result)
        self._live.pop(entry.dest_tag, None)

    def _squash_all(self) -> None:
        super()._squash_all()
        self._live.clear()
        self._waiting.clear()
        self._ni = [0] * TOTAL_REGISTERS
        self._unresolved.clear()
        self.mdu.squash_from(0)
        self._clear_decode_watch()

    # ------------------------------------------------------------------
    # branches in the decode stage
    # ------------------------------------------------------------------

    def _branch_operand(self, reg: int) -> Tuple[bool, object]:
        """Condition-register read under the configured bypass mode.

        This is where Table 6's mechanism lives: with no bypass, a
        branch whose condition was computed *before* the branch reached
        decode can only obtain it from the commit bus; duplicating the
        A register file (the future file) restores an immediate read.
        """
        if not self._ni[reg]:
            self._clear_decode_watch()
            return True, self.regs.values[reg]
        tag = self._li[reg] << TAG_ID_BITS | reg
        producer = self._bypass_producer(reg, tag)
        if producer is not None:
            self._clear_decode_watch()
            return True, producer.result
        if self._decode_watch_tag == tag and self._decode_watch_hit:
            value = self._decode_watch_value
            self._clear_decode_watch()
            return True, value
        self._decode_watch_tag = tag
        return False, None

    def _clear_decode_watch(self) -> None:
        self._decode_watch_tag = None
        self._decode_watch_value = None
        self._decode_watch_hit = False

    def _register_pending(self, reg: int) -> bool:
        return self._ni[reg] > 0

    def invariant_checks(self, checker) -> None:
        super().invariant_checks(checker)
        checker.check_ruu(self)

    def tag_name(self, tag: Tag) -> str:
        reg, instance = tag_parts(tag)
        return f"{REGISTERS[reg].name}#{instance}"

    # ------------------------------------------------------------------

    def result(self):
        sim_result = super().result()
        sim_result.extra["max_ni_observed"] = self.max_ni_observed
        sim_result.extra["bypass_mode"] = self.bypass.value
        return sim_result
