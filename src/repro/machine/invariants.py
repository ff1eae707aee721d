"""Per-cycle invariant checking for the engines (a hardware-assertions rig).

Attach to an engine before running::

    engine = RUUEngine(program, config)
    InvariantChecker.attach(engine)
    engine.run()     # raises InvariantViolation on the first bad cycle

The checker wraps ``tick()`` and, after every cycle, asserts the
structural properties the design relies on.  It also stops the engine
from declaring idle spans (see :mod:`repro.machine.engine`), so a
checked run steps through, and checks, every cycle: the stepping
reference a plain run's jumps must reproduce.  The properties:

* the window is in strict program (sequence) order;
* ``NI[r]`` equals the number of live window entries destined for ``r``
  (and never exceeds ``2^n - 1``);
* ``LI[r]`` equals the instance number of the youngest live entry for
  ``r`` when one exists;
* every non-ready operand carries a tag that a live producer will
  still satisfy (no orphaned waiters -> no deadlocks);
* the ``_live`` map names only live producers;
* the memory queue's in-flight population matches the window's
  un-finished memory instructions;
* with full bypass, no operand and no decode-stage watch still waits
  on the tag of an executed, fault-free entry: its commit does not
  broadcast on the commit bus.

The RUU engines opt into these checks through the engine's
``invariant_checks`` hook (counted in ``ruu_cycles_checked``).  Every
windowed engine (Tomasulo, the Tag Unit, the RS pool, the RSTU and the
RUU family) also gets the wake-up checks (counted in
``window_cycles_checked``):

* the wake-up index holds exactly the window's waiting operands, and
  each entry's ``missing`` count matches them;
* the ready list holds exactly the undispatched, unsquashed window
  entries with no operand missing, in seq order.

Every engine, the in-order ones too, gets generic post-cycle checks:
the retired count never shrinks except across an interrupt or
misprediction recovery, the retire log mirrors the counter, no
instruction retires before it was fetched, and the cycle counter stays
within the configured budget.  Attaching to *any* engine is therefore
always meaningful -- ``cycles_checked`` counts real assertions, never
silent no-ops.

This is how the test-suite checks each engine's *internal* consistency
on every cycle of real workloads, not just its architectural outputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.ruu import BypassMode, tag_parts
from ..isa.registers import REGISTERS, TOTAL_REGISTERS
from .faults import SimulationError


class InvariantViolation(SimulationError):
    """An engine invariant failed; message says which and when."""


class InvariantChecker:
    """Wraps an engine's tick() with post-cycle assertions."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.cycles_checked = 0
        #: Cycles on which the windowed-engine and the RUU-family checks
        #: ran (via the engine's ``invariant_checks`` hook).
        self.window_cycles_checked = 0
        self.ruu_cycles_checked = 0
        self._original_tick = engine.tick
        self._original_next_event = engine._next_event
        self._last_retired = engine.retired
        self._last_recoveries = self._recoveries()

    def _recoveries(self) -> int:
        """Events that legitimately roll the retired counter back."""
        engine = self.engine
        return engine.interrupt_count + engine.mispredictions

    @classmethod
    def attach(cls, engine) -> "InvariantChecker":
        checker = cls(engine)

        def checked_tick():
            checker._original_tick()
            checker.check()

        engine.tick = checked_tick
        engine._next_event = _no_event
        return checker

    def detach(self) -> None:
        self.engine.tick = self._original_tick
        self.engine._next_event = self._original_next_event

    # ------------------------------------------------------------------

    def check(self) -> None:
        self.cycles_checked += 1
        engine = self.engine
        self._check_generic(engine)
        engine.invariant_checks(self)

    def _check_generic(self, engine) -> None:
        """Post-cycle checks every engine must satisfy."""
        recoveries = self._recoveries()
        if engine.retired < self._last_retired \
                and recoveries == self._last_recoveries:
            self._fail(
                f"retired count went backwards ({self._last_retired} -> "
                f"{engine.retired}) with no interrupt or recovery"
            )
        self._last_retired = engine.retired
        self._last_recoveries = recoveries
        if len(engine.retire_log) != engine.retired:
            self._fail(
                f"retire log holds {len(engine.retire_log)} entries but "
                f"the retired counter says {engine.retired}"
            )
        if engine.retired > engine.next_seq:
            self._fail(
                f"retired {engine.retired} instructions but only "
                f"{engine.next_seq} were ever fetched"
            )
        if engine.cycle > engine.config.max_cycles:
            self._fail(
                f"cycle counter {engine.cycle} exceeds the configured "
                f"budget of {engine.config.max_cycles}"
            )

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"cycle {self.engine.cycle}: {message}"
        )

    def check_window(self, engine) -> None:
        """Every windowed engine's wake-up bookkeeping: the wake-up
        index and the ready list mirror the window exactly."""
        self.window_cycles_checked += 1
        window = list(engine.window)

        # (1) the wake-up index mirrors the waiting operands exactly
        indexed = sum(len(waiting) for waiting in engine._waiting.values())
        waiting_operands = 0
        for entry in window:
            missing = 0
            for slot, tag in enumerate(entry.tags):
                if tag is None:
                    continue
                missing += 1
                if not any(waiter is entry and waiting_slot == slot
                           for waiter, waiting_slot in
                           engine._waiting.get(tag, ())):
                    self._fail(
                        f"#{entry.seq} waits on "
                        f"{engine.tag_name(tag)} but is not in "
                        f"the wake-up index"
                    )
            if entry.missing != missing:
                self._fail(
                    f"#{entry.seq} counts {entry.missing} missing "
                    f"operands, has {missing}"
                )
            waiting_operands += missing
        if indexed != waiting_operands:
            self._fail(
                f"wake-up index holds {indexed} operands, the window "
                f"waits on {waiting_operands}"
            )

        # (2) the ready list is exactly the undispatched, unsquashed
        # window entries with no operand missing, in seq order
        expected = sorted(
            (entry for entry in window
             if not entry.dispatched and not entry.squashed
             and not entry.missing),
            key=lambda entry: entry.seq,
        )
        ready = engine._waiting.ready
        if len(ready) != len(expected) or any(
                have is not want for have, want in zip(ready, expected)):
            self._fail(
                f"ready list {[entry.seq for entry in ready]} but the "
                f"window's ready entries are "
                f"{[entry.seq for entry in expected]}"
            )

    def check_ruu(self, engine) -> None:
        """The RUU family's structural invariants (NI/LI, tags, queue)."""
        self.ruu_cycles_checked += 1
        window = list(engine.window)

        # (1) queue order
        seqs = [entry.seq for entry in window]
        if seqs != sorted(seqs):
            self._fail(f"window out of program order: {seqs}")

        # (2) NI consistency and bound
        live_counts = [0] * TOTAL_REGISTERS
        youngest_instance: Dict[int, int] = {}
        for entry in window:
            if entry.dest_tag is not None:
                reg, instance = tag_parts(entry.dest_tag)
                live_counts[reg] += 1
                youngest_instance[reg] = instance
        if live_counts != list(engine._ni):
            self._fail(
                f"NI mismatch: counters {_by_name(engine._ni)} vs live "
                f"{_by_name(live_counts)}"
            )
        limit = engine.config.max_instances
        for reg, count in enumerate(live_counts):
            if count > limit:
                self._fail(
                    f"{REGISTERS[reg].name} has {count} instances > {limit}"
                )

        # (3) LI points at the youngest live instance
        for reg, instance in youngest_instance.items():
            if engine._li[reg] != instance:
                self._fail(
                    f"LI[{REGISTERS[reg].name}] = {engine._li[reg]} but the "
                    f"youngest live instance is {instance}"
                )

        # (4) no orphaned operand waiters
        live_tags = {
            entry.dest_tag for entry in window
            if entry.dest_tag is not None
        }
        for entry in window:
            for tag in entry.tags:
                if tag is not None and tag not in live_tags:
                    self._fail(
                        f"#{entry.seq} waits on "
                        f"{engine.tag_name(tag)} with no live "
                        f"producer"
                    )

        # (5) the _live index mirrors the window
        for tag, producer in engine._live.items():
            if producer.dest_tag != tag or producer.squashed:
                self._fail(
                    f"stale _live mapping for {engine.tag_name(tag)}"
                )

        # (6) memory-queue population matches the window
        window_mem = sum(1 for entry in window if entry.inst.is_memory)
        if engine.mdu.in_flight() != window_mem:
            self._fail(
                f"mdu tracks {engine.mdu.in_flight()} memory ops, window "
                f"holds {window_mem}"
            )

        # (7) with full bypass a commit does not broadcast, so the result
        # bus must have woken every waiter of an executed entry
        if engine.bypass is BypassMode.FULL:
            for entry in window:
                tag = entry.dest_tag
                if entry.executed_cycle is not None and entry.fault is None \
                        and tag is not None and (tag in engine._waiting or (
                            tag == engine._decode_watch_tag
                            and not engine._decode_watch_hit)):
                    self._fail(f"{engine.tag_name(tag)} of executed "
                               f"#{entry.seq} still has a waiter")


def _no_event() -> None:
    """A checked engine names no next event, so it declares no idle
    span and ``run()`` ticks every cycle."""
    return None


def _by_name(counts: List[int]) -> Dict[str, int]:
    """Non-zero per-register counts, keyed by register name."""
    return {
        REGISTERS[reg].name: count
        for reg, count in enumerate(counts) if count
    }


def run_checked(engine, max_cycles: Optional[int] = None):
    """Convenience: attach, run, detach; returns the SimResult."""
    checker = InvariantChecker.attach(engine)
    try:
        return engine.run(max_cycles), checker
    finally:
        checker.detach()
