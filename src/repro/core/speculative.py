"""Conditional (speculative) execution on the RUU (paper section 7).

The paper observes that the RUU is "a very powerful mechanism for
nullifying instructions": entries that have not committed can simply be
discarded, so executing down a *predicted* branch path costs no extra
state-recovery hardware -- no duplicated register file, and no hard
limit on the number of outstanding predicted branches (each path's
values are just further instances of the registers).

This engine extends :class:`~repro.core.ruu.RUUEngine`:

* a conditional branch whose condition is not yet readable no longer
  blocks the decode stage -- its direction is *predicted*, fetch is
  redirected, and the branch is parked in a pending-branch list that
  snoops the buses for the condition value (the paper's "additional
  field in the RUU" marking conditional instructions is modelled by
  this side list plus a commit gate);
* instructions younger than an unresolved branch may issue, dispatch
  and execute, but may **not commit** (nor raise their interrupts);
* when the condition arrives: a correct prediction simply lifts the
  gate; a misprediction squashes every younger entry, rolls the NI/LI
  instance counters back, and restarts fetch on the correct path.

Architectural equivalence with the golden model is preserved by
construction -- wrong-path instructions never touch registers (their
instances die with them), never write memory (stores write at commit),
and never trap (interrupts are commit-gated).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.semantics import branch_taken
from ..machine.stats import StallReason
from .prediction import BranchPredictor, TwoBitPredictor
from .ruu import TAG_ID_BITS, RUUEngine, Tag, tag_parts


@dataclass
class PendingBranch:
    """A predicted, not-yet-resolved conditional branch."""

    seq: int
    inst: Instruction
    tag: Tag                  # condition-register instance to snoop for
    predicted: bool
    value: object = None
    value_ready: bool = False


class SpeculativeRUUEngine(RUUEngine):
    """RUU with branch prediction and conditional instruction execution."""

    def __init__(self, *args, predictor: Optional[BranchPredictor] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.predictor = predictor if predictor is not None \
            else TwoBitPredictor()
        self.name = f"spec-{self.name}"
        self._pending_branches: List[PendingBranch] = []
        self.predictions = 0

    # ------------------------------------------------------------------
    # decode: predict instead of blocking
    # ------------------------------------------------------------------

    def tick(self) -> None:
        if self.cycle in self._completions:
            self._phase_complete()
        self._resolve_pending_branches()
        self._phase_commit()
        self._phase_dispatch()
        self._phase_issue()

    def _issue_control_flow(self, inst: Instruction) -> None:
        if inst.opcode is Opcode.JMP:
            super()._issue_control_flow(inst)
            return
        reg = inst.src_ids[0]
        ready, value = self._branch_operand(reg)
        if ready:
            taken = branch_taken(inst.opcode, value)
            self.predictor.update(inst, taken)
            self._resolve_in_decode(inst, taken)
            return
        if len(self._pending_branches) >= self.config.spec_max_branches:
            self.stall(StallReason.BRANCH_WAIT)
            return
        # Predict and continue down the chosen path in conditional mode.
        tag = self._li[reg] << TAG_ID_BITS | reg
        predicted = self.predictor.predict(inst)
        self.predictions += 1
        self._pending_branches.append(
            PendingBranch(self.decode_seq, inst, tag, predicted)
        )
        # The branch leaves decode into the pending list: that is its
        # issue, even though it resolves (and retires) much later.
        if self.recorder is not None:
            self.recorder.on_stage(self.decode_seq, "issue", self.cycle)
        self._clear_decode_watch()
        if predicted:
            self.pc = inst.target
            penalty = self.config.spec_predict_taken_penalty
        else:
            self.pc = inst.pc + 1
            penalty = 0
        self.fetch_resume_cycle = self.cycle + 1 + penalty
        self.decode_slot = None

    # ------------------------------------------------------------------
    # condition arrival and resolution
    # ------------------------------------------------------------------

    def _broadcast(self, tag: Tag, value) -> None:
        super()._broadcast(tag, value)
        for pending in self._pending_branches:
            if not pending.value_ready and pending.tag == tag:
                pending.value = value
                pending.value_ready = True

    def _resolve_pending_branches(self) -> None:
        """Resolve oldest-first; a misprediction discards the rest."""
        while self._pending_branches:
            pending = self._pending_branches[0]
            if not pending.value_ready and not self._probe_condition(pending):
                return
            taken = branch_taken(pending.inst.opcode, pending.value)
            self.predictor.update(pending.inst, taken)
            self.branches += 1
            if taken:
                self.branches_taken += 1
            self._pending_branches.pop(0)
            if self.recorder is not None:
                self.recorder.on_stage(pending.seq, "commit", self.cycle)
            self._note_retired(pending.seq)
            if taken != pending.predicted:
                self.mispredictions += 1
                correct_pc = (
                    pending.inst.target if taken else pending.inst.pc + 1
                )
                self._recover_from(pending.seq + 1, correct_pc)
                return

    def _probe_condition(self, pending: PendingBranch) -> bool:
        """A branch that missed the bus traffic can still read its
        condition once the producing instance has committed (the
        register file is then current) or through the bypass path."""
        reg, _ = tag_parts(pending.tag)
        if pending.tag not in self._live:
            # Producer left the RUU: committed (value in the register
            # file) or squashed along with this branch's own squash --
            # the latter cannot happen while the branch is still listed.
            pending.value = self.regs.values[reg]
            pending.value_ready = True
            return True
        producer = self._bypass_producer(reg, pending.tag)
        if producer is not None:
            pending.value = producer.result
            pending.value_ready = True
            return True
        return False

    # ------------------------------------------------------------------
    # commit gating
    # ------------------------------------------------------------------

    def _commit_head(self, entry) -> bool:
        if self._pending_branches \
                and entry.seq > self._pending_branches[0].seq:
            return False  # conditional: not yet proven on the correct path
        return super()._commit_head(entry)

    # ------------------------------------------------------------------
    # misprediction recovery
    # ------------------------------------------------------------------

    def _recover_from(self, boundary_seq: int, correct_pc: int) -> None:
        """Nullify everything younger than the mispredicted branch."""
        modulus = 1 << self.config.counter_bits
        while self.window and self.window[-1].seq >= boundary_seq:
            entry = self.window.pop()
            entry.squashed = True
            self.squashed += 1
            if entry.dest_tag is not None:
                reg, instance = tag_parts(entry.dest_tag)
                self._ni[reg] -= 1
                # Walking youngest to oldest, the last write leaves LI at
                # the instance just before the oldest squashed one.
                self._li[reg] = (instance - 1) % modulus
                self._live.pop(entry.dest_tag, None)
        self._waiting.drop_squashed()
        self._unresolved = deque(
            entry for entry in self._unresolved if entry.seq < boundary_seq
        )
        self.mdu.squash_from(boundary_seq)
        self._pending_branches = [
            pending for pending in self._pending_branches
            if pending.seq < boundary_seq
        ]
        self._clear_decode_watch()
        self._restart_at(boundary_seq, correct_pc,
                         self.config.spec_mispredict_penalty)

    def _squash_all(self) -> None:
        super()._squash_all()
        self._pending_branches.clear()

    # ------------------------------------------------------------------

    def _drained(self) -> bool:
        return super()._drained() and not self._pending_branches

    occupancy_keys = ("window", "pending_branches")

    def occupancy_counts(self) -> Tuple[int, ...]:
        return len(self.window), len(self._pending_branches)

    def result(self):
        sim_result = super().result()
        sim_result.extra["predictions"] = self.predictions
        if self.predictions:
            sim_result.extra["prediction_accuracy"] = (
                1.0 - self.mispredictions / self.predictions
            )
        return sim_result
