"""Chaos engines: deliberately misbehaving workers for fleet tests.

The self-healing guarantees of :class:`~repro.analysis.parallel.
ParallelRunner` -- retry after a worker crash, per-point timeouts,
serial fallback -- are only guarantees if something exercises them.
This module registers engine factories that misbehave **only inside a
worker process** (detected by comparing ``os.getpid()`` against the pid
captured at import time), so the serial-fallback path in the parent
process still succeeds and the runner's recovery can be observed
end-to-end:

* ``chaos-crash``      -- the worker dies with ``os._exit`` (simulates
  a segfaulting or OOM-killed simulation); in the parent it runs
  normally.
* ``chaos-hang``       -- the worker sleeps far past any sane timeout;
  in the parent it runs normally.
* ``chaos-crash-once`` -- dies in a worker until a sentinel file
  exists, then behaves; exercises the retry-then-succeed path without
  ever needing the serial fallback.
* ``chaos-error``      -- raises :class:`~repro.machine.faults.
  SimulationError` everywhere; exercises the permanent-failure path
  (:class:`~repro.analysis.parallel.FleetError`).

``ProcessPoolExecutor`` forks on Linux, so factories registered in the
parent's :data:`~repro.analysis.sweeps.ENGINE_FACTORIES` are visible in
workers without any pickling of the classes themselves.

Test-support code: the package registry holds only real engines until
a test (or the CI chaos job, as ``tests.chaos``) installs these.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.analysis.sweeps import ENGINE_FACTORIES
from repro.issue.simple import SimpleEngine
from repro.machine.faults import SimulationError
from repro.machine.stats import SimResult

#: Pid of the process that imported this module -- i.e. the test/CLI
#: parent.  Forked pool workers inherit the value but have a new pid.
_MAIN_PID = os.getpid()

#: Keys this module adds to :data:`ENGINE_FACTORIES`.
CHAOS_ENGINES = (
    "chaos-crash", "chaos-hang", "chaos-crash-once", "chaos-error",
)

#: Exit code used by crashing chaos workers, distinctive in waitpid
#: statuses and log output.
CRASH_EXIT_CODE = 13

_state_dir: Optional[str] = None


def _in_worker() -> bool:
    return os.getpid() != _MAIN_PID


class ChaosCrashEngine(SimpleEngine):
    """Kills its worker process mid-run; behaves in the parent."""

    name = "chaos-crash"

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        if _in_worker():
            os._exit(CRASH_EXIT_CODE)
        return super().run(max_cycles)


class ChaosHangEngine(SimpleEngine):
    """Never returns inside a worker; behaves in the parent."""

    name = "chaos-hang"

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        if _in_worker():
            time.sleep(3600)
        return super().run(max_cycles)


class ChaosCrashOnceEngine(SimpleEngine):
    """Crashes its worker until the sentinel file exists, then runs.

    The first worker attempt drops the sentinel *before* dying, so the
    retry round finds it and succeeds -- modelling a transient fault
    (e.g. a host OOM that clears on retry).
    """

    name = "chaos-crash-once"

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        if _in_worker() and _state_dir is not None:
            sentinel = os.path.join(_state_dir, "crash-once.sentinel")
            if not os.path.exists(sentinel):
                with open(sentinel, "w") as handle:
                    handle.write(str(os.getpid()))
                os._exit(CRASH_EXIT_CODE)
        return super().run(max_cycles)


class ChaosErrorEngine(SimpleEngine):
    """Raises a deterministic simulation error in every process."""

    name = "chaos-error"

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        raise SimulationError("chaos-error: injected failure")


def install_chaos_engines(state_dir: Optional[str] = None) -> None:
    """Register the chaos factories (idempotent).

    ``state_dir`` hosts the ``chaos-crash-once`` sentinel; pass a temp
    directory so repeated runs start from the crashing state.
    """
    global _state_dir
    _state_dir = state_dir
    ENGINE_FACTORIES["chaos-crash"] = \
        lambda program, config, memory: ChaosCrashEngine(
            program, config, memory)
    ENGINE_FACTORIES["chaos-hang"] = \
        lambda program, config, memory: ChaosHangEngine(
            program, config, memory)
    ENGINE_FACTORIES["chaos-crash-once"] = \
        lambda program, config, memory: ChaosCrashOnceEngine(
            program, config, memory)
    ENGINE_FACTORIES["chaos-error"] = \
        lambda program, config, memory: ChaosErrorEngine(
            program, config, memory)


def remove_chaos_engines() -> None:
    """Undo :func:`install_chaos_engines`."""
    global _state_dir
    _state_dir = None
    for key in CHAOS_ENGINES:
        ENGINE_FACTORIES.pop(key, None)
