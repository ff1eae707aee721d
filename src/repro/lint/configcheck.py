"""Cross-checks between a :class:`MachineConfig` and a program.

A configuration that cannot run the program -- or can only run it
degenerately -- should be caught before a simulation produces a
confusing mid-run fault or a silently meaningless number:

* ``config-missing-latency`` (error) -- a functional-unit class the
  program uses has no latency entry.
* ``config-bad-latency`` (error) -- a latency below one cycle.
* ``config-bad-sizing`` (error) -- an integer field below its
  :data:`~repro.machine.config.SIZING_MINIMUMS` entry (the rules
  ``MachineConfig.from_json`` applies to every decoded config), e.g. a
  non-positive window size or a negative branch penalty.
* ``config-counter-window`` (warning) -- the NI/LI instance counters
  (``counter_bits`` wide, at most ``2^n - 1`` live instances per
  destination register) cannot cover the configured window: with ``d``
  distinct destination registers in the program, at most
  ``d * (2^n - 1)`` window entries can ever be live, so a larger
  window is dead silicon for this program.
"""

from __future__ import annotations

from typing import List, Set

from ..isa.opcodes import FUClass
from ..isa.program import Program
from ..isa.registers import Register
from ..machine.config import SIZING_MINIMUMS, MachineConfig
from .diagnostics import Diagnostic, Severity


def check_config(program: Program, config: MachineConfig) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []

    used_fus: Set[FUClass] = {inst.fu for inst in program}
    for fu in sorted(used_fus, key=lambda f: f.value):
        if fu not in config.latencies:
            diagnostics.append(
                Diagnostic(
                    rule="config-missing-latency",
                    severity=Severity.ERROR,
                    message=(
                        f"program uses the {fu.value} unit but the config "
                        f"defines no latency for it"
                    ),
                )
            )
        elif config.latencies[fu] < 1:
            diagnostics.append(
                Diagnostic(
                    rule="config-bad-latency",
                    severity=Severity.ERROR,
                    message=(
                        f"latency for {fu.value} is "
                        f"{config.latencies[fu]}; functional units need "
                        f"at least 1 cycle"
                    ),
                )
            )

    for attribute, minimum in SIZING_MINIMUMS.items():
        value = getattr(config, attribute)
        if value < minimum:
            diagnostics.append(
                Diagnostic(
                    rule="config-bad-sizing",
                    severity=Severity.ERROR,
                    message=(
                        f"{attribute} = {value}; must be at least "
                        f"{minimum}"
                    ),
                )
            )

    dests: Set[Register] = {
        inst.dest for inst in program if inst.dest is not None
    }
    if dests and config.counter_bits >= 1:
        coverable = config.max_instances * len(dests)
        if coverable < config.window_size:
            diagnostics.append(
                Diagnostic(
                    rule="config-counter-window",
                    severity=Severity.WARNING,
                    message=(
                        f"{config.counter_bits}-bit instance counters "
                        f"allow at most {config.max_instances} live "
                        f"instances of each of the program's "
                        f"{len(dests)} destination register(s) "
                        f"({coverable} total), so the {config.window_size}"
                        f"-entry window can never fill"
                    ),
                )
            )

    return diagnostics
