"""Sweep harness: run engines across workload suites and window sizes.

This is the machinery every benchmark uses.  ``run_suite`` aggregates a
suite exactly as the paper aggregates Table 1 (total instructions over
total cycles), ``sweep_sizes`` produces the size -> (speedup, rate) rows
of Tables 2-6, and ``ENGINE_FACTORIES`` names every machine in the
repository so benchmarks and examples can select them uniformly.

Engines are named, never passed as builders: every sweep builds one
flat :class:`~repro.analysis.parallel.SimPoint` list and runs it on a
:class:`~repro.analysis.parallel.ParallelRunner` -- the caller's, or a
``jobs=1`` one that simulates in this process.  A failing point raises
:class:`~repro.analysis.parallel.FleetError` with its diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.prediction import TwoBitPredictor
from ..core.ruu import BypassMode, RUUEngine
from ..core.speculative import SpeculativeRUUEngine
from ..interrupts.inorder import (
    FutureFileEngine,
    HistoryBufferEngine,
    ReorderBufferBypassEngine,
    ReorderBufferEngine,
)
from ..isa.program import Program
from ..issue.dispatch_stack import DispatchStackEngine
from ..issue.rspool import RSPoolEngine
from ..issue.rstu import RSTUEngine
from ..issue.simple import SimpleEngine
from ..issue.tagunit import TagUnitEngine
from ..issue.tomasulo import TomasuloEngine
from ..machine.config import CRAY1_LIKE, MachineConfig
from ..machine.engine import Engine
from ..machine.memory import Memory
from ..machine.stats import SimResult, aggregate, speedup
from ..workloads.base import Workload
from ..workloads.livermore import all_loops

EngineBuilder = Callable[[Program, MachineConfig, Memory], Engine]


def _plain(cls) -> EngineBuilder:
    return lambda program, config, memory: cls(program, config, memory=memory)


def _ruu(mode: BypassMode) -> EngineBuilder:
    return lambda program, config, memory: RUUEngine(
        program, config, memory=memory, bypass=mode
    )


def _spec(predictor_cls=TwoBitPredictor,
          mode: BypassMode = BypassMode.FULL) -> EngineBuilder:
    return lambda program, config, memory: SpeculativeRUUEngine(
        program, config, memory=memory, bypass=mode,
        predictor=predictor_cls(),
    )


#: Every machine in the repository, by name.
ENGINE_FACTORIES: Dict[str, EngineBuilder] = {
    "simple": _plain(SimpleEngine),
    "dispatch-stack": _plain(DispatchStackEngine),
    "tomasulo": _plain(TomasuloEngine),
    "tagunit": _plain(TagUnitEngine),
    "rspool": _plain(RSPoolEngine),
    "rstu": _plain(RSTUEngine),
    "ruu-bypass": _ruu(BypassMode.FULL),
    "ruu-nobypass": _ruu(BypassMode.NONE),
    "ruu-limited": _ruu(BypassMode.LIMITED),
    "spec-ruu": _spec(),
    "reorder-buffer": _plain(ReorderBufferEngine),
    "rob-bypass": _plain(ReorderBufferBypassEngine),
    "history-buffer": _plain(HistoryBufferEngine),
    "future-file": _plain(FutureFileEngine),
}


def _run_suites(
    runner,
    suites: Sequence[Tuple[str, MachineConfig]],
    workloads: Sequence[Workload],
) -> List[List[SimResult]]:
    """Run each ``(engine, config)`` suite over ``workloads``.

    All suites go out as one flat :class:`~repro.analysis.parallel.
    SimPoint` list on ``runner``; ``None`` means a ``jobs=1`` runner,
    which simulates in this process with no pool.  Results come back
    as one list per suite, in workload order, so aggregation is the
    same whichever runner ran them.
    """
    from .parallel import ParallelRunner, SimPoint  # parallel imports us

    points = [
        SimPoint(engine, workload, config)
        for engine, config in suites
        for workload in workloads
    ]
    results = (runner or ParallelRunner(jobs=1)).run_points(points)
    width = len(workloads)
    return [results[i * width:(i + 1) * width] for i in range(len(suites))]


def run_suite(
    engine: str,
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[MachineConfig] = None,
    runner=None,
) -> SimResult:
    """Run a workload suite on the named engine; aggregate as the paper
    does (total instructions over total cycles)."""
    return aggregate(per_loop_baseline(workloads, config, runner, engine))


@dataclass
class SweepRow:
    """One row of a Table 2-6 style sweep."""

    size: int
    speedup: float
    issue_rate: float
    cycles: int


@dataclass
class Sweep:
    """A full size sweep against a fixed baseline."""

    engine: str
    baseline: SimResult
    rows: List[SweepRow] = field(default_factory=list)

    def speedups(self) -> Dict[int, float]:
        return {row.size: row.speedup for row in self.rows}


def sweep_sizes(
    engine_name: str,
    sizes: Iterable[int],
    workloads: Optional[Sequence[Workload]] = None,
    base_config: Optional[MachineConfig] = None,
    baseline: Optional[SimResult] = None,
    runner=None,
    **config_overrides,
) -> Sweep:
    """Measure speedup and issue rate across window sizes.

    ``baseline`` defaults to the simple engine on the same suite and
    config (the paper's Table 1 machine).  ``config_overrides`` apply to
    the swept engine only (e.g. ``dispatch_paths=2`` for Table 3).  The
    whole (size x workload) grid, plus the baseline suite when one is
    not supplied, runs as a single fan-out on ``runner``.
    """
    sizes = list(sizes)
    workloads = list(workloads) if workloads is not None else all_loops()
    config = base_config or CRAY1_LIKE
    suites = [
        (engine_name, config.with_(window_size=size, **config_overrides))
        for size in sizes
    ]
    if baseline is None:
        suites.insert(0, ("simple", config))
    totals = [aggregate(results)
              for results in _run_suites(runner, suites, workloads)]
    if baseline is None:
        baseline = totals.pop(0)
    sweep = Sweep(engine=engine_name, baseline=baseline)
    for size, result in zip(sizes, totals):
        sweep.rows.append(
            SweepRow(
                size=size,
                speedup=speedup(baseline, result),
                issue_rate=result.issue_rate,
                cycles=result.cycles,
            )
        )
    return sweep


def per_loop_baseline(
    workloads: Optional[Sequence[Workload]] = None,
    config: Optional[MachineConfig] = None,
    runner=None,
    engine: str = "simple",
) -> List[SimResult]:
    """Table 1: the simple engine (or ``engine``) on each loop
    individually, in workload order."""
    workloads = list(workloads) if workloads is not None else all_loops()
    return _run_suites(runner, [(engine, config or CRAY1_LIKE)],
                       workloads)[0]
