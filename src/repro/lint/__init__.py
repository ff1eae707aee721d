"""Static program verification for the model ISA (``repro.lint``).

The dynamic analyses in :mod:`repro.analysis` measure what a program
*did*; this package checks what a program *could do* before it runs.
:func:`lint_program` builds a static CFG with basic blocks, runs a
reaching-definitions dataflow analysis over the A/S/B/T register files,
validates structural properties (branch targets, termination, loops
with no exit, statically-known addresses), cross-checks the
:class:`~repro.machine.config.MachineConfig` against the program, and
computes a static critical-path lower bound that the test suite asserts
against the dynamic dataflow limit and every engine's simulated cycles.

Rule catalogue (see ``docs/lint.md`` for the full reference):

==========================  ========  =====================================
rule id                     severity  meaning
==========================  ========  =====================================
``unresolved-target``       error     control transfer to an unresolved
                                      label
``bad-branch-target``       error     branch/jump index outside the program
``missing-halt``            error     control can fall off the end
``no-exit-path``            error     reachable loop from which HALT is
                                      unreachable
``unreachable-code``        warning   basic block no path reaches
``undefined-read``          warning   register read that may precede any
                                      write
``dead-write``              warning   value overwritten before any read on
                                      every path
``address-bounds``          warning   statically-known negative address
``config-missing-latency``  error     program uses an FU class with no
                                      latency
``config-bad-latency``      error     FU latency below one cycle
``config-bad-sizing``       error     non-positive structural parameter
``config-counter-window``   warning   NI counters cannot fill the window
==========================  ========  =====================================

Library use::

    from repro.lint import lint_program
    report = lint_program(program, config)
    assert report.ok, report.describe()

CLI use: ``python -m repro lint FILE [--json] [--strict]``.
"""

from __future__ import annotations

from typing import Optional

from ..isa.program import Program
from ..machine.config import CRAY1_LIKE, MachineConfig
from .cfg import BasicBlock, StaticCFG
from .configcheck import check_config
from .critical_path import StaticCriticalPath, static_critical_path
from .dataflow import INIT, ReachingDefinitions, check_dataflow
from .diagnostics import Diagnostic, LintReport, Severity
from .structural import check_structure

#: Rules whose findings make the CFG untrustworthy for deeper passes.
_FATAL_STRUCTURE = frozenset({"unresolved-target", "bad-branch-target"})


def lint_program(
    program: Program,
    config: Optional[MachineConfig] = None,
) -> LintReport:
    """Run every static check over ``program`` and return the report.

    ``config`` defaults to the paper's machine (:data:`CRAY1_LIKE`); it
    is only consulted by the configuration cross-checks and the
    critical-path bound, so linting a bare program is meaningful too.
    """
    config = config or CRAY1_LIKE
    cfg = StaticCFG(program)
    diagnostics = check_structure(program, cfg)
    fatal = any(d.rule in _FATAL_STRUCTURE for d in diagnostics)
    config_diagnostics = check_config(program, config)
    config_broken = any(
        d.severity >= Severity.ERROR for d in config_diagnostics
    )
    critical_path: Optional[StaticCriticalPath] = None
    if not fatal:
        diagnostics.extend(check_dataflow(program, cfg))
        # The bound needs a latency for every FU class the program uses;
        # a config error already explains why it is absent.
        if not config_broken:
            critical_path = static_critical_path(program, config, cfg)
    diagnostics.extend(config_diagnostics)
    return LintReport(program.name, diagnostics, critical_path=critical_path)


__all__ = [
    "BasicBlock",
    "Diagnostic",
    "INIT",
    "LintReport",
    "ReachingDefinitions",
    "Severity",
    "StaticCFG",
    "StaticCriticalPath",
    "check_config",
    "check_dataflow",
    "check_structure",
    "lint_program",
    "static_critical_path",
]
