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
  runner derives every untraced point's key (each distinct program,
  memory and config encoded once per call, see
  :class:`~repro.analysis.cache.KeyMemo`) and probes one
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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..machine.config import MachineConfig
from ..machine.stats import SimResult
from ..workloads.base import Workload
from .cache import KeyMemo, ResultCache
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


def _worker(job: Job) -> SimResult:
    """Pool entry point: simulate one miss and publish it to the cache.

    Must stay a module-level function so the pool can pickle it by
    reference.  The parent already probed the cache and derived the
    key, so the worker neither reads the cache nor re-derives the key.
    """
    point, cache_dir, key = job
    result = run_point(point)
    if key is not None:
        ResultCache(cache_dir).put(key, result)
    return result


def _guarded_worker(job: Job) -> Tuple:
    """Run one point, returning failures as values.

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
    try:
        return ("ok", _worker(job))
    except Exception as exc:  # noqa: BLE001 - converted to a report entry
        diagnostic = getattr(exc, "diagnostic", None)
        if diagnostic is not None:
            try:
                diagnostic = diagnostic.to_json()
            except Exception:  # noqa: BLE001 - diagnostics are best-effort
                diagnostic = None
        return ("error", f"{type(exc).__name__}: {exc}", diagnostic)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully tear down an executor with stuck or dead workers.

    ``shutdown`` alone would block on a hung worker; kill the worker
    processes first, then reap without waiting.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except OSError:  # already gone
            pass
    pool.shutdown(wait=False, cancel_futures=True)


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
        return {
            "index": self.index,
            "engine": self.engine,
            "workload": self.workload,
            "attempts": self.attempts,
            "error": self.error,
            "diagnostic": self.diagnostic,
        }


@dataclass
class PointOutcome:
    """Settled verdict for one point of a :meth:`run_points_settled`.

    Exactly one of ``result`` / ``error`` is set.  ``diagnostic`` is the
    JSON pipeline snapshot when the error was a deadlock;
    ``cache_hit`` reports whether the result was served from the shared
    :class:`~repro.analysis.cache.ResultCache`.
    """

    result: Optional[SimResult]
    error: Optional[str] = None
    diagnostic: Optional[Dict[str, Any]] = None
    attempts: int = 0
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


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
        """Accumulate ``other`` (one ``run_points`` call) into this."""
        self.jobs = max(self.jobs, other.jobs)
        self.points += other.points
        self.submissions += other.submissions
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.pools += other.pools
        self.degraded.extend(other.degraded)
        self.failures.extend(other.failures)

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
        return {
            "jobs": self.jobs,
            "points": self.points,
            "submissions": self.submissions,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "pools": self.pools,
            "degraded": list(self.degraded),
            "failures": [failure.to_json() for failure in self.failures],
            "ok": self.ok,
            "clean": self.clean,
        }


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
            timed-out round kills the pool, backs off, resubmits).
        backoff: base seconds slept before retry round ``k``
            (``backoff * 2**(k-1)``).
        serial_fallback: run still-unfinished points in this process
            after the last round instead of failing them.
        reuse_pool: keep one warm ``ProcessPoolExecutor`` alive across
            :meth:`run_points` calls instead of building a fresh pool
            per round.  This is what makes the runner serve-able: a
            long-lived service pays the worker spawn cost once, not per
            request.  A crashed or timed-out round still kills and
            rebuilds the pool (the self-healing contract is unchanged);
            call :meth:`close` to release the workers.  With
            ``reuse_pool`` the per-call ``jobs`` clamp to the miss
            count is skipped so the pool keeps a stable size, and both
            a single miss and ``jobs=1`` still run in a worker process
            rather than inline (isolation and timeout-kill apply to
            them too).  Cache hits never touch the pool either way.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff: float = 0.25,
                 serial_fallback: bool = True,
                 reuse_pool: bool = False) -> None:
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def run_points(self, points: Iterable[SimPoint],
                   jobs: Optional[int] = None) -> List[SimResult]:
        """Run every point; results return in submission order.

        Raises :class:`FleetError` -- after retries and (if enabled)
        serial fallback -- when some points cannot produce a result;
        the error's report says which and why.
        """
        outcomes, fleet = self._execute(list(points), jobs)
        if fleet.failures:
            raise FleetError(fleet)
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
        outcomes, _ = self._execute(list(points), jobs)
        return outcomes

    def close(self, wait: bool = True) -> None:
        """Release the persistent pool (no-op without ``reuse_pool``).

        An idle pool is shut down politely (workers join, the
        executor's machinery unwinds cleanly).  ``wait=False`` takes
        the kill path instead -- for callers that know the pool may
        hold a wedged worker and must not block on it.
        """
        if self._pool is not None:
            if wait:
                try:
                    self._pool.shutdown(wait=True, cancel_futures=True)
                except Exception:  # broken pool: fall back to the axe
                    _kill_pool(self._pool)
            else:
                _kill_pool(self._pool)
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _execute(self, points: List[SimPoint],
                 jobs: Optional[int]
                 ) -> Tuple[List[PointOutcome], FleetReport]:
        unknown = sorted({p.engine for p in points} - set(ENGINE_FACTORIES))
        if unknown:
            raise KeyError(f"unknown engine(s): {', '.join(unknown)}")
        results: List[Optional[SimResult]] = [None] * len(points)
        errors: List[Optional[str]] = [None] * len(points)
        diags: List[Optional[Dict[str, Any]]] = [None] * len(points)
        attempts: List[int] = [0] * len(points)

        started = time.perf_counter()
        jobs_args = self._probe(points, results)
        misses = [index for index, job in enumerate(jobs_args)
                  if job is not None]
        jobs = jobs if jobs else self.jobs
        if not self.reuse_pool:
            # A persistent pool keeps its size across calls; a one-shot
            # pool shrinks to the misses at hand.
            jobs = max(1, min(jobs, len(misses) or 1))
        fleet = FleetReport(jobs=jobs, points=len(points))
        try:
            # A persistent (serve-able) runner never runs inline, even
            # with one job: the pooled path is what provides process
            # isolation and timeout-kill for long-lived callers.
            if jobs == 1 and not self.reuse_pool:
                for index in misses:
                    fleet.submissions += 1
                    attempts[index] += 1
                    self._record(index, _guarded_worker(jobs_args[index]),
                                 results, errors, diags)
            else:
                self._run_rounds(
                    jobs_args, misses, jobs, fleet,
                    results, errors, diags, attempts,
                )
        finally:
            self.wall_seconds += time.perf_counter() - started
            for failure_index in [i for i, r in enumerate(results)
                                  if r is None and errors[i] is not None]:
                point = points[failure_index]
                fleet.failures.append(
                    PointFailure(
                        index=failure_index,
                        engine=point.engine,
                        workload=point.workload.name,
                        attempts=attempts[failure_index],
                        error=errors[failure_index] or "unknown",
                        diagnostic=diags[failure_index],
                    )
                )
            self.last_fleet = fleet
            self.fleet.merge(fleet)

        for index, result in enumerate(results):
            if result is None:
                continue
            self.points_run += 1
            if jobs_args[index] is None:
                self.hits += 1
                continue
            if self.cache_dir is not None:
                self.misses += 1
            self.host_seconds += float(
                result.extra.get("host_seconds", 0.0)
            )
        outcomes = [
            PointOutcome(
                result=results[index],
                error=errors[index] if results[index] is None else None,
                diagnostic=(
                    diags[index] if results[index] is None else None
                ),
                attempts=attempts[index],
                cache_hit=jobs_args[index] is None,
            )
            for index in range(len(points))
        ]
        return outcomes, fleet

    def _probe(self, points: List[SimPoint],
               results: List[Optional[SimResult]]
               ) -> List[Optional[Job]]:
        """Answer cache hits into ``results``; return one job per point.

        The job is None where the point was a hit.  Traced
        points are never probed (cached entries carry no attribution),
        and an unusable cache directory (one warning) leaves every point
        a miss with no key, so workers do not touch the cache either.
        The key memo lives for this call only.
        """
        cache = None if self.cache_dir is None \
            else ResultCache(self.cache_dir)
        if cache is None or cache.disabled:
            return [(point, None, None) for point in points]
        memo = KeyMemo()
        jobs_args: List[Optional[Job]] = []
        for index, point in enumerate(points):
            if point.trace:
                jobs_args.append((point, None, None))
                continue
            key = memo.key(point.engine, point.workload, point.config)
            cached = cache.get(key)
            if cached is None:
                jobs_args.append((point, self.cache_dir, key))
            else:
                results[index] = cached
                jobs_args.append(None)
        return jobs_args

    # ------------------------------------------------------------------
    # self-healing internals
    # ------------------------------------------------------------------

    @staticmethod
    def _record(index: int, outcome: Tuple,
                results: List[Optional[SimResult]],
                errors: List[Optional[str]],
                diags: List[Optional[Dict[str, Any]]]) -> None:
        if outcome[0] == "ok":
            results[index] = outcome[1]
            errors[index] = None
            diags[index] = None
        else:
            errors[index] = outcome[1]
            diags[index] = outcome[2] if len(outcome) > 2 else None

    def _run_rounds(self, jobs_args: List[Optional[Job]],
                    remaining: List[int], jobs: int,
                    fleet: FleetReport,
                    results: List[Optional[SimResult]],
                    errors: List[Optional[str]],
                    diags: List[Optional[Dict[str, Any]]],
                    attempts: List[int]) -> None:
        for round_number in range(self.max_retries + 1):
            if not remaining:
                return
            if round_number:
                fleet.retries += len(remaining)
                time.sleep(self.backoff * (2 ** (round_number - 1)))
            remaining = self._one_round(
                jobs_args, remaining, jobs, fleet,
                results, errors, diags, attempts,
            )
        if remaining and self.serial_fallback:
            for index in remaining:
                fleet.submissions += 1
                attempts[index] += 1
                self._record(index, _guarded_worker(jobs_args[index]),
                             results, errors, diags)
                if results[index] is not None:
                    point = jobs_args[index][0]
                    fleet.degraded.append({
                        "index": index,
                        "engine": point.engine,
                        "workload": point.workload.name,
                        "attempts": attempts[index],
                    })

    def _ensure_pool(self, jobs: int,
                     fleet: FleetReport) -> ProcessPoolExecutor:
        """Return the persistent pool, (re)building it when needed."""
        if self._pool is not None and self._pool_workers == jobs:
            return self._pool
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None
        self._pool = ProcessPoolExecutor(max_workers=jobs)
        self._pool_workers = jobs
        fleet.pools += 1
        return self._pool

    def _one_round(self, jobs_args: List[Optional[Job]],
                   remaining: List[int],
                   jobs: int, fleet: FleetReport,
                   results: List[Optional[SimResult]],
                   errors: List[Optional[str]],
                   diags: List[Optional[Dict[str, Any]]],
                   attempts: List[int]) -> List[int]:
        """Submit ``remaining`` to a pool; return what's left.

        Ends early (killing the pool) on the first timeout or worker
        crash; results that finished before the incident are harvested
        so their work is not repeated.  With ``reuse_pool`` the warm
        persistent pool is used (and discarded only when broken);
        otherwise each round builds and drains its own.
        """
        if self.reuse_pool:
            pool = self._ensure_pool(jobs, fleet)
        else:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(remaining))
            )
            fleet.pools += 1
        futures = {}
        for index in remaining:
            futures[index] = pool.submit(_guarded_worker, jobs_args[index])
            fleet.submissions += 1
            attempts[index] += 1
        broken = False
        try:
            for index in remaining:
                if broken:
                    break
                try:
                    outcome = futures[index].result(timeout=self.timeout)
                except FuturesTimeout:
                    fleet.timeouts += 1
                    errors[index] = (
                        f"timeout: no result within {self.timeout}s "
                        f"(worker killed)"
                    )
                    broken = True
                except BrokenProcessPool:
                    fleet.crashes += 1
                    errors[index] = errors[index] or (
                        "worker process died (pool broken)"
                    )
                    broken = True
                except Exception as exc:  # pragma: no cover - defensive
                    errors[index] = f"{type(exc).__name__}: {exc}"
                    broken = True
                else:
                    self._record(index, outcome, results, errors, diags)
        finally:
            if broken:
                self._harvest(futures, results, errors, diags)
                _kill_pool(pool)
                if self.reuse_pool:
                    self._pool = None
                    self._pool_workers = 0
            elif not self.reuse_pool:
                pool.shutdown()
        leftovers = [index for index in remaining
                     if results[index] is None]
        for index in leftovers:
            if errors[index] is None:
                errors[index] = "worker process died (pool broken)"
        return leftovers

    def _harvest(self, futures: Dict[int, Any],
                 results: List[Optional[SimResult]],
                 errors: List[Optional[str]],
                 diags: List[Optional[Dict[str, Any]]]) -> None:
        """Collect results that completed before the pool broke."""
        for index, future in futures.items():
            if results[index] is not None or not future.done():
                continue
            try:
                outcome = future.result(timeout=0)
            except Exception:  # broken/cancelled future
                continue
            self._record(index, outcome, results, errors, diags)

