"""Self-healing parallel sweep runner: fan points out over processes.

Every table and ablation in the repository reduces to a bag of
independent ``(engine, config, workload)`` simulations -- Tables 2-6
are embarrassingly parallel over (engine, size, loop) points.
:class:`ParallelRunner` executes such a bag on a
``concurrent.futures.ProcessPoolExecutor`` while keeping the
guarantees the serial harness provides:

* **Determinism** -- results come back in the order the points were
  submitted, regardless of which worker finished first, so aggregation
  (and therefore every table row) is bit-identical to a serial run.
  Retries and fallback do not perturb this: the simulations are
  deterministic, so a point's result is the same however many attempts
  it took.
* **Cache hits stay in the caller** -- with ``cache_dir`` set, the
  runner derives every untraced point's key with
  :func:`~repro.analysis.cache.cache_key` (one hash per point: each
  program, memory and config keeps its own fingerprint) and probes one
  :class:`~repro.analysis.cache.ResultCache` before submitting
  anything.  Hits never cross the pool; only misses go out, each with
  its key, and the worker simulates and publishes the entry without
  re-deriving it.  The cache writes atomically (temp file +
  ``os.replace``) and treats corrupt entries as misses, so concurrent
  runners never serve partial JSON.
* **Host-perf accounting** -- per-point host wall time comes back in
  ``SimResult.extra`` and the runner aggregates totals
  (:attr:`ParallelRunner.host_seconds`, :attr:`points_run`,
  :attr:`wall_seconds`) for the sweep summaries; only freshly
  simulated points add to ``host_seconds``.
* **Fault tolerance** -- a sweep *always completes or says exactly
  which points failed and why*.  Python-level failures inside a point
  come back as values (the pool survives).  A worker process that dies
  (OOM kill, segfault, ``os._exit``) breaks the pool: the runner kills
  the stragglers, rebuilds the pool, and resubmits the unfinished
  points with exponential backoff, up to :attr:`max_retries` rounds.  A
  point whose result does not arrive within :attr:`timeout` seconds is
  treated the same way (the stuck worker is killed with the pool).
  Points still unfinished after the last round run serially in this
  process (``serial_fallback``); only if *that* fails too does
  :meth:`run_points` raise :class:`FleetError`, whose
  :class:`FleetReport` names every failed point and cause.  Every
  attempt, retry, timeout and degraded point is recorded in
  :attr:`ParallelRunner.fleet`.

``jobs=1`` (or a single miss) runs in-process with no executor; that
is the runner the sweep helpers in :mod:`repro.analysis.sweeps` use
when given none, and the path for one-core hosts and profilers --
except with ``reuse_pool``, where even one job runs in a worker process
so that process isolation and timeout-kill always hold.  A one-shot
pool is sized by the number of misses; a call with none builds no
pool at all.

Usage::

    runner = ParallelRunner(jobs=4, cache_dir=".repro-cache",
                            timeout=120.0)
    sweep = sweep_sizes("rstu", paper_data.RSTU_SIZES, runner=runner)
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..machine.config import MachineConfig
from ..machine.stats import SimResult
from ..workloads.base import Workload
from .cache import ResultCache, cache_key
from .sweeps import ENGINE_FACTORIES


@dataclass(frozen=True)
class SimPoint:
    """One simulation: an engine name, a workload, and a config.

    The engine is named (not passed as a builder) because the factory
    lambdas in :data:`ENGINE_FACTORIES` do not pickle; workers resolve
    the name in their own process.
    """

    engine: str
    workload: Workload
    config: MachineConfig
    #: Attach a streaming observability recorder and embed the cycle
    #: attribution in ``result.extra["attribution"]``.  Traced points
    #: bypass the result cache (the cache key does not include the
    #: flag, and cached entries carry no attribution).
    trace: bool = False


def run_point(point: SimPoint) -> SimResult:
    """Simulate one point in this process (no cache)."""
    engine = ENGINE_FACTORIES[point.engine](
        point.workload.program, point.config, point.workload.make_memory()
    )
    if not point.trace:
        return engine.run()
    from ..obs import TraceRecorder, attribute_cycles

    recorder = TraceRecorder(detail=False)
    engine.recorder = recorder
    result = engine.run()
    result.extra["attribution"] = attribute_cycles(
        result, recorder
    ).to_json()
    return result


#: One miss as it travels to a worker: the point, and the cache
#: directory and key to publish its result under (both None when the
#: point is not cached).
Job = Tuple[SimPoint, Optional[str], Optional[str]]


def _guarded_worker(job: Job) -> Tuple:
    """Pool entry point: simulate one miss and publish it to the cache,
    returning failures as values.

    Must stay a module-level function so the pool can pickle it by
    reference.  The parent already probed the cache and derived the
    key, so the worker neither reads the cache nor re-derives the key.
    A Python exception inside a simulation (a real engine bug, a
    :class:`~repro.machine.faults.DeadlockError`, ...) comes back as
    ``("error", message, diagnostic_json_or_None)`` instead of
    poisoning the pool; only a hard process death (segfault, OOM kill)
    breaks the executor.  When the exception carries an
    :class:`~repro.machine.diagnostics.EngineDiagnostic` (deadlock
    watchdog, cycle budget), its JSON form rides along so callers --
    notably the serving layer -- can surface *what the pipeline was
    waiting for*, not just that it stalled.
    """
    point, cache_dir, key = job
    try:
        result = run_point(point)
        if key is not None:
            ResultCache(cache_dir).put(key, result)
        return ("ok", result)
    except Exception as exc:  # noqa: BLE001 - converted to a report entry
        diagnostic = getattr(exc, "diagnostic", None)
        if diagnostic is not None:
            try:
                diagnostic = diagnostic.to_json()
            except Exception:  # noqa: BLE001 - diagnostics are best-effort
                diagnostic = None
        return ("error", f"{type(exc).__name__}: {exc}", diagnostic)


@dataclass
class PointFailure:
    """One simulation point that could not produce a result."""

    index: int
    engine: str
    workload: str
    attempts: int
    error: str
    #: Machine-readable pipeline snapshot when the failure was a
    #: :class:`~repro.machine.faults.DeadlockError` (JSON form of
    #: :class:`~repro.machine.diagnostics.EngineDiagnostic`).
    diagnostic: Optional[Dict[str, Any]] = None

    def describe(self) -> str:
        return (
            f"point {self.index} ({self.engine} on {self.workload}): "
            f"{self.error} after {self.attempts} attempt(s)"
        )

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class PointOutcome:
    """Settled verdict for one point of a :meth:`run_points_settled`.

    Exactly one of ``result`` / ``error`` is set once the point
    settles.  ``diagnostic`` is the JSON pipeline snapshot when the
    error was a deadlock; ``cache_hit`` reports whether the result was
    served from the shared :class:`~repro.analysis.cache.ResultCache`.
    """

    result: Optional[SimResult] = None
    error: Optional[str] = None
    diagnostic: Optional[Dict[str, Any]] = None
    attempts: int = 0
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


def _settle(outcome: PointOutcome, verdict: Tuple) -> None:
    """Write one attempt's verdict (from :func:`_guarded_worker`)."""
    if verdict[0] == "ok":
        outcome.result, outcome.error, outcome.diagnostic = \
            verdict[1], None, None
    else:
        outcome.error, outcome.diagnostic = verdict[1], verdict[2]


@dataclass
class FleetReport:
    """What it took to complete (or fail) a fan-out.

    ``points`` counts every point, cache hits included; hits are
    answered in the caller and never submitted.  A clean run has one
    submission per miss and every other counter zero.  Anything else
    is the self-healing machinery earning its keep.
    """

    jobs: int = 0
    points: int = 0
    submissions: int = 0   # miss-submissions, including retries
    retries: int = 0       # resubmissions after a failed round
    timeouts: int = 0      # per-point result deadlines that expired
    crashes: int = 0       # pool-breaking worker deaths observed
    pools: int = 0         # executors built (>1 means rebuilds happened)
    degraded: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def clean(self) -> bool:
        """True when no retry/timeout/crash/fallback machinery engaged."""
        return (
            self.ok and not self.retries and not self.timeouts
            and not self.crashes and not self.degraded
        )

    def merge(self, other: "FleetReport") -> None:
        """Accumulate ``other`` (one ``run_points`` call) into this:
        ``jobs`` is the larger, lists concatenate, counters add."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, spec.name, max(mine, theirs)
                        if spec.name == "jobs" else mine + theirs)

    def describe(self) -> str:
        lines = [
            f"fleet: {self.points} point(s) over {self.jobs} job(s): "
            f"{self.submissions} submission(s), {self.retries} "
            f"retry/retries, {self.timeouts} timeout(s), "
            f"{self.crashes} worker crash(es), "
            f"{len(self.degraded)} point(s) completed by serial "
            f"fallback, {len(self.failures)} failure(s)"
        ]
        lines += [f"  degraded: {entry['engine']} on {entry['workload']}"
                  for entry in self.degraded]
        lines += [f"  FAILED: {failure.describe()}"
                  for failure in self.failures]
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {**asdict(self), "ok": self.ok, "clean": self.clean}


class FleetError(RuntimeError):
    """Some points failed even after retries and serial fallback.

    Carries the :class:`FleetReport`, which names every failed point
    and its last error -- the "or reports exactly which points failed
    and why" half of the runner's contract.
    """

    def __init__(self, report: FleetReport) -> None:
        super().__init__(
            f"{len(report.failures)} of {report.points} point(s) failed "
            f"permanently:\n" + "\n".join(
                f"  {failure.describe()}" for failure in report.failures
            )
        )
        self.report = report


#: Base seconds slept before retry round ``k``:
#: ``RETRY_BACKOFF_S * 2**(k-1)``.
RETRY_BACKOFF_S = 0.25


class ParallelRunner:
    """Fan (engine, config, workload) points over worker processes.

    Attributes (cumulative across :meth:`run_points` calls):
        hits / misses: cache outcomes, when ``cache_dir`` is set.
        points_run: points that produced a result, cache hits included.
        host_seconds: summed simulator wall time of the freshly
            simulated points (the work done, across all workers); a
            cache hit adds nothing.
        wall_seconds: elapsed wall time spent inside ``run_points``
            (the time you waited); ``host_seconds / wall_seconds`` is
            the achieved parallelism.
        fleet: cumulative :class:`FleetReport` (attempts, retries,
            timeouts, crashes, degraded points); ``last_fleet`` is the
            report of the most recent :meth:`run_points` call alone.

    Self-healing knobs:
        timeout: per-point result deadline in seconds (None: wait
            forever).  Measured from when the runner starts waiting on
            that point's future, so it only trips for genuinely stuck
            work, not for points queued behind a busy pool.
        max_retries: pool-rebuild rounds after the first (a crashed or
            timed-out round kills the pool, sleeps
            :data:`RETRY_BACKOFF_S` doubling per round, resubmits).
        serial_fallback: run still-unfinished points in this process
            after the last round instead of failing them.
        reuse_pool: keep one warm ``ProcessPoolExecutor`` of ``jobs``
            workers alive across :meth:`run_points` calls.  This is
            what makes the runner serve-able: a long-lived service
            pays the worker spawn cost once, not per request.  A
            crashed or timed-out round still kills the pool, and the
            next round builds a new one; call :meth:`close` to release
            the workers.  Even a single miss and ``jobs=1`` run in a
            worker process rather than inline (isolation and
            timeout-kill apply to them too).  Without ``reuse_pool``
            the pool is sized by the misses at hand and closed at the
            end of each call.  Cache hits never touch the pool either
            way.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None,
                 max_retries: int = 2,
                 serial_fallback: bool = True,
                 reuse_pool: bool = False) -> None:
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.max_retries = max_retries
        self.serial_fallback = serial_fallback
        self.reuse_pool = reuse_pool
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self.hits = 0
        self.misses = 0
        self.points_run = 0
        self.host_seconds = 0.0
        self.wall_seconds = 0.0
        self.fleet = FleetReport()
        self.last_fleet = FleetReport()

    def run_points(self, points: Iterable[SimPoint],
                   jobs: Optional[int] = None) -> List[SimResult]:
        """Run every point; results return in submission order.

        Raises :class:`FleetError` -- after retries and (if enabled)
        serial fallback -- when some points cannot produce a result;
        the error's report says which and why.
        """
        outcomes = self._execute(list(points), jobs)
        if self.last_fleet.failures:
            raise FleetError(self.last_fleet)
        return [outcome.result for outcome in outcomes]  # type: ignore[misc]

    def run_points_settled(self, points: Iterable[SimPoint],
                           jobs: Optional[int] = None
                           ) -> List[PointOutcome]:
        """Run every point; return a per-point verdict, never raising.

        The serving layer's entry point: a point that fails (a deadlock,
        an engine bug, a worker that kept dying) becomes a
        :class:`PointOutcome` with ``error`` (and ``diagnostic`` for
        deadlocks) instead of poisoning the whole batch.  Failures are
        still recorded in :attr:`fleet` / :attr:`last_fleet`.
        """
        return self._execute(list(points), jobs)

    def close(self, wait: bool = True) -> None:
        """Release the pool, if one is up.

        An idle pool is shut down politely (workers join, the
        executor's machinery unwinds cleanly).  ``wait=False`` takes
        the kill path instead -- for callers that know the pool may
        hold a wedged worker and must not block on it.
        """
        pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is None:
            return
        if wait:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
                return
            except Exception:  # broken pool: fall back to the axe
                pass
        # ``shutdown`` alone would block on a hung worker: kill the
        # workers first, then reap without waiting.
        for process in list((getattr(pool, "_processes", None)
                             or {}).values()):
            try:
                process.kill()
            except OSError:  # already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _execute(self, points: List[SimPoint],
                 jobs: Optional[int]) -> List[PointOutcome]:
        unknown = sorted({p.engine for p in points} - set(ENGINE_FACTORIES))
        if unknown:
            raise KeyError(f"unknown engine(s): {', '.join(unknown)}")
        started = time.perf_counter()
        outcomes = [PointOutcome() for _ in points]
        misses = self._probe(points, outcomes)
        jobs = jobs if jobs else self.jobs
        if not self.reuse_pool:
            jobs = max(1, min(jobs, len(misses) or 1))
        fleet = FleetReport(jobs=jobs, points=len(points))
        try:
            # A persistent (serve-able) runner never runs inline, even
            # with one job: the pooled path is what provides process
            # isolation and timeout-kill for long-lived callers.
            if jobs == 1 and not self.reuse_pool:
                self._run_inline(misses, outcomes, list(misses), fleet)
            else:
                self._run_rounds(misses, outcomes, jobs, fleet)
        finally:
            if not self.reuse_pool:
                self.close()
            self.wall_seconds += time.perf_counter() - started
            fleet.failures = [
                PointFailure(index, point.engine, point.workload.name,
                             outcome.attempts, outcome.error,
                             outcome.diagnostic)
                for index, (point, outcome)
                in enumerate(zip(points, outcomes))
                if not outcome.ok and outcome.error is not None
            ]
            self.last_fleet = fleet
            self.fleet.merge(fleet)

        for outcome in outcomes:
            if outcome.result is None:
                continue
            self.points_run += 1
            if outcome.cache_hit:
                self.hits += 1
                continue
            if self.cache_dir is not None:
                self.misses += 1
            self.host_seconds += float(
                outcome.result.extra.get("host_seconds", 0.0)
            )
        return outcomes

    def _probe(self, points: List[SimPoint],
               outcomes: List[PointOutcome]) -> Dict[int, Job]:
        """Settle cache hits into ``outcomes``; return the misses' jobs
        by point index.

        Traced points are never probed (cached entries carry no
        attribution), and an unusable cache directory (one warning)
        leaves every point a miss with no key, so workers do not touch
        the cache either.  A hit carries the requesting program's
        name: programs that differ only in name share an entry.
        """
        cache = None if self.cache_dir is None \
            else ResultCache(self.cache_dir)
        misses: Dict[int, Job] = {}
        for index, point in enumerate(points):
            if cache is None or cache.disabled or point.trace:
                misses[index] = (point, None, None)
                continue
            key = cache_key(point.engine, point.workload, point.config)
            cached = cache.get(key)
            if cached is None:
                misses[index] = (point, self.cache_dir, key)
            else:
                cached.workload = point.workload.program.name
                outcomes[index].result = cached
                outcomes[index].cache_hit = True
        return misses

    # ------------------------------------------------------------------
    # self-healing internals
    # ------------------------------------------------------------------

    @staticmethod
    def _run_inline(misses: Dict[int, Job], outcomes: List[PointOutcome],
                    indices: List[int], fleet: FleetReport) -> None:
        """Attempt each of ``indices`` once, in this process."""
        for index in indices:
            fleet.submissions += 1
            outcomes[index].attempts += 1
            _settle(outcomes[index], _guarded_worker(misses[index]))

    def _run_rounds(self, misses: Dict[int, Job],
                    outcomes: List[PointOutcome], jobs: int,
                    fleet: FleetReport) -> None:
        remaining = list(misses)
        for round_number in range(self.max_retries + 1):
            if not remaining:
                return
            if round_number:
                fleet.retries += len(remaining)
                time.sleep(RETRY_BACKOFF_S * 2 ** (round_number - 1))
            remaining = self._one_round(misses, outcomes, remaining, jobs,
                                        fleet)
        if remaining and self.serial_fallback:
            self._run_inline(misses, outcomes, remaining, fleet)
            fleet.degraded += [
                {"index": index, "engine": misses[index][0].engine,
                 "workload": misses[index][0].workload.name,
                 "attempts": outcomes[index].attempts}
                for index in remaining if outcomes[index].ok
            ]

    def _one_round(self, misses: Dict[int, Job],
                   outcomes: List[PointOutcome], remaining: List[int],
                   jobs: int, fleet: FleetReport) -> List[int]:
        """Submit ``remaining`` to the runner's pool; return what's left.

        The pool is built on demand: ``jobs`` workers with
        ``reuse_pool``, otherwise one per remaining point up to
        ``jobs``.  The round ends early, killing the pool, on the first
        timeout or worker crash; results that finished before the
        incident are harvested so their work is not repeated.
        """
        workers = jobs if self.reuse_pool else min(jobs, len(remaining))
        if self._pool_workers != workers:
            self.close()
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_workers = workers
            fleet.pools += 1
        futures = {}
        broken = False
        for index in remaining:
            try:
                futures[index] = self._pool.submit(_guarded_worker,
                                                   misses[index])
            except BrokenProcessPool:  # a worker died mid-submission
                broken = True
                break
            fleet.submissions += 1
            outcomes[index].attempts += 1
        try:
            for index, future in futures.items():
                outcome = outcomes[index]
                try:
                    verdict = future.result(timeout=self.timeout)
                except FuturesTimeout:
                    fleet.timeouts += 1
                    outcome.error = (
                        f"timeout: no result within {self.timeout}s "
                        f"(worker killed)"
                    )
                except BrokenProcessPool:
                    fleet.crashes += 1
                    outcome.error = outcome.error or (
                        "worker process died (pool broken)"
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    outcome.error = f"{type(exc).__name__}: {exc}"
                else:
                    _settle(outcome, verdict)
                    continue
                broken = True
                break
        finally:
            if broken:
                # Harvest what finished before the pool broke.
                for index, future in futures.items():
                    if outcomes[index].ok or not future.done():
                        continue
                    try:
                        _settle(outcomes[index], future.result(timeout=0))
                    except Exception:  # broken/cancelled future
                        continue
                self.close(wait=False)
        leftovers = [index for index in remaining
                     if not outcomes[index].ok]
        for index in leftovers:
            if outcomes[index].error is None:
                outcomes[index].error = "worker process died (pool broken)"
        return leftovers
