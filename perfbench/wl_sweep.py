"""sweep: a paper-table grid through ``ParallelRunner(jobs=nproc,
cache_dir=<fresh dir>)`` -- one cold pass that simulates in pool workers
and writes the cache, then warm passes that read it back.

The only workload with process-pool fan-out, and with cache writes
beside cache reads: a cache or IPC change shows on
``warm_points_per_s``, an engine change on ``cold_points_per_s``.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass
from typing import Dict, List, Tuple

from common import HostSpeed, Outcome, Tracer, clock, median, percentile, \
    point_key, ratio, result_sha
from repro.analysis import paper_data
from repro.analysis.cache import ResultCache, cache_key
from repro.analysis.parallel import FleetError, ParallelRunner, SimPoint
from repro.machine.config import CRAY1_LIKE
from repro.machine.stats import aggregate, speedup
from repro.workloads.suites import livermore_suite

#: (table, engine, window, config overrides, paper reference or None).
#: Sizes come from ``paper_data.RSTU_SIZES`` / ``RUU_SIZES``.
GRID = (
    ("T1", "simple", None, {}, None),
    ("T2", "rstu", 4, {}, paper_data.TABLE2_RSTU),
    ("T2", "rstu", 10, {}, paper_data.TABLE2_RSTU),
    ("T3", "rstu", 10, {"dispatch_paths": 2}, paper_data.TABLE3_RSTU_2PATH),
    ("T4", "ruu-bypass", 4, {}, paper_data.TABLE4_RUU_BYPASS),
    ("T4", "ruu-bypass", 12, {}, paper_data.TABLE4_RUU_BYPASS),
    ("T4", "ruu-bypass", 50, {}, paper_data.TABLE4_RUU_BYPASS),
    ("T5", "ruu-nobypass", 12, {}, paper_data.TABLE5_RUU_NOBYPASS),
    ("T6", "ruu-limited", 12, {}, paper_data.TABLE6_RUU_LIMITED),
)
#: Rows of the traced section's smaller grid.
TRACED_ROWS = (0, 2, 5)
#: Warm passes after each cold pass.
WARM_PASSES = 3
JOBS = os.cpu_count() or 1


def grid_points(loops, rows=None) -> List[SimPoint]:
    points = []
    for index, (_, engine, window, overrides, _) in enumerate(GRID):
        if rows is not None and index not in rows:
            continue
        config = CRAY1_LIKE if window is None \
            else CRAY1_LIKE.with_(window_size=window, **overrides)
        points.extend(SimPoint(engine, loop, config) for loop in loops)
    return points


@dataclass
class SweepState:
    loops: list
    #: the grid in its seeded submission order
    order: List[SimPoint]
    #: ``order[i]`` is grid point ``perm[i]``
    perm: List[int]
    digest: Dict[str, str]
    scratch: object
    #: results of the first cold pass, in submission order
    cold_results: list = None


def shuffled(points: List[SimPoint], seed: int):
    perm = list(range(len(points)))
    random.Random(seed).shuffle(perm)
    return [points[i] for i in perm], perm


def setup(ctx) -> SweepState:
    loops = livermore_suite("quick")
    order, perm = shuffled(grid_points(loops), ctx.seed)
    return SweepState(loops=loops, order=order, perm=perm,
                      digest=ctx.digest["sweep"], scratch=ctx.scratch)


def teardown(state: SweepState) -> None:
    pass


def check(state: SweepState, outcome: Outcome, points, results) -> None:
    for point, result in zip(points, results):
        key = point_key(point.engine, point.workload.name, point.config)
        if state.digest.get(key) != result_sha(result):
            outcome.fail(f"{key}: result differs from the golden digest",
                         mismatch=True)


def one_pass(state: SweepState, runner: ParallelRunner, outcome: Outcome,
             points) -> Tuple[float, list]:
    """Time one ``run_points`` call; returns (wall, results or [])."""
    outcome.attempted += len(points)
    started = clock()
    try:
        results = runner.run_points(points)
    except FleetError as exc:
        wall = clock() - started
        # run_points returns nothing when any point fails: the caller
        # got no results for the whole pass.
        for _ in points:
            outcome.fail(f"pass failed: {exc}".splitlines()[0])
        return wall, []
    wall = clock() - started
    check(state, outcome, points, results)
    return wall, results


def run(state: SweepState, seconds: float):
    """Cycles of one cold pass into a fresh cache directory and
    ``WARM_PASSES`` warm passes over it, while the next cycle fits."""
    outcome = Outcome()
    speed = HostSpeed()
    cold_inst: List[int] = []
    ok_points: List[int] = []

    started = clock()
    cycles = 0
    speed.sample()
    while True:
        # Passes are never repeated: a cold pass lasts seconds, and the
        # host's speed changes too often to wait for a steady one.
        cache_dir = state.scratch.new_dir("sweep-cache")
        runner = ParallelRunner(jobs=JOBS, cache_dir=cache_dir)
        for index in range(1 + WARM_PASSES):
            wall, results = one_pass(state, runner, outcome, state.order)
            speed.end_interval([wall])
            ok_points.append(len(results))
            if index == 0:
                cold_inst.append(sum(r.instructions for r in results))
                if state.cold_results is None:
                    state.cold_results = results
        shutil.rmtree(cache_dir, ignore_errors=True)
        cycles += 1
        if (clock() - started) * (cycles + 1) / cycles > seconds:
            break
    # Medians over passes and cycles: a pass or two in a slow spell
    # must not move the figures.
    walls = speed.reference()
    per_cycle = 1 + WARM_PASSES
    cold_walls = walls[::per_cycle]
    warm_walls = [wall for index, wall in enumerate(walls)
                  if index % per_cycle]
    n_points = len(state.order)
    return outcome, {
        "sim_inst_per_s": median([
            inst / wall for inst, wall in zip(cold_inst, cold_walls)]),
        "cold_points_per_s": median([n_points / w for w in cold_walls]),
        "warm_points_per_s": median([n_points / w for w in warm_walls]),
        "goodput_rps": median([
            sum(ok_points[i:i + per_cycle]) / sum(walls[i:i + per_cycle])
            for i in range(0, len(walls), per_cycle)]),
        # One operation is one sweep pass (a run_points call).
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": percentile(walls, 99.0) * 1e3,
    }, {"cycles": cycles, "cold_passes": len(cold_walls),
        "warm_passes": len(warm_walls),
        "calibration_rates": speed.rates,
        "speedup_vs_paper": speedup_report(state)}


def speedup_report(state: SweepState) -> List[str]:
    """Simulated speedup of each grid row against its paper table.

    Simulated time only, so deterministic; built from the first cold
    pass after the timed region.
    """
    if not state.cold_results:
        return ["sweep: no cold pass completed; no speedup report"]
    results = [None] * len(state.order)
    for index, result in zip(state.perm, state.cold_results):
        results[index] = result
    per_row = len(results) // len(GRID)
    rows = [aggregate(results[i * per_row:(i + 1) * per_row])
            for i in range(len(GRID))]
    lines = [
        "sweep: simulated speedup over the simple engine against the "
        "paper (quick-size Livermore loops; beyond these tables the "
        "model is unvalidated)",
        "  table  engine        size  paths  simulated  paper  error",
    ]
    for (table, engine, window, overrides, paper), row in zip(GRID, rows):
        if paper is None:
            continue
        simulated = speedup(rows[0], row)
        reference = paper[window][0]
        lines.append(
            f"  {table:5s}  {engine:12s}  {window:4d}  "
            f"{overrides.get('dispatch_paths', 1):5d}  {simulated:9.3f}  "
            f"{reference:5.3f}  {100.0 * (simulated / reference - 1.0):+6.1f}%"
        )
    return lines


def traced(ctx, tracer: Tracer) -> Tuple[Outcome, Dict[str, float]]:
    """parallel and cache layers: one untraced cycle, one traced cycle
    on a smaller grid, then the cache calls peeled out in-process."""
    state = setup(ctx)
    points, _ = shuffled(grid_points(state.loops, TRACED_ROWS), ctx.seed)

    def cycle(outcome, spans):
        cache_dir = state.scratch.new_dir("sweep-cache")
        runner = ParallelRunner(jobs=JOBS, cache_dir=cache_dir)
        walls, fresh_seconds, warm_hits = [], 0.0, 0
        for index in range(1 + WARM_PASSES):
            op = tracer.open("sweep.pass") if spans else None
            span = tracer.open("parallel.run_points", op) if spans else None
            wall, results = one_pass(state, runner, outcome, points)
            if spans:
                tracer.close(span)
                tracer.close(op)
            walls.append(wall)
            hits = [bool(r.extra.get("from_cache")) for r in results]
            if index == 0:
                # Fresh results only: a cached result carries the host
                # time of the run that filled the cache.
                fresh_seconds = sum(
                    r.extra.get("host_seconds", 0.0)
                    for r, hit in zip(results, hits) if not hit)
            else:
                warm_hits += sum(hits)
        return cache_dir, runner, walls, fresh_seconds, warm_hits

    # The first cycle warms the host up and is discarded.
    for _ in range(2):
        untraced_dir, _, untraced_walls, _, _ = cycle(Outcome(), spans=False)
        shutil.rmtree(untraced_dir, ignore_errors=True)
    outcome = Outcome()
    cache_dir, runner, walls, fresh_seconds, warm_hits = cycle(
        outcome, spans=True)
    fleet = runner.fleet

    # Peel the cache calls the workers make, in-process, over the warm
    # directory the traced cycle left behind.
    warm = ResultCache(cache_dir)
    fresh = ResultCache(state.scratch.new_dir("sweep-put"))
    entry_sizes = []
    for point in points:
        span = tracer.open("cache.key")
        key = cache_key(point.engine, point.workload, point.config)
        tracer.close(span)
        span = tracer.open("cache.get")
        result = warm.get(key)
        tracer.close(span)
        if result is None:
            outcome.fail(f"cache entry for {point.engine} on "
                         f"{point.workload.name} is missing")
            continue
        span = tracer.open("cache.put")
        fresh.put(key, result)
        tracer.close(span)
        entry_sizes.append(
            os.path.getsize(os.path.join(cache_dir, f"{key}.json")))
    shutil.rmtree(cache_dir, ignore_errors=True)

    warm_attempted = len(points) * WARM_PASSES
    metrics = {
        "parallel.cold_s": walls[0],
        "parallel.warm_s": median(walls[1:]),
        "parallel.cold_parallelism": ratio(fresh_seconds, walls[0]),
        "parallel.pools": fleet.pools,
        "parallel.submissions": fleet.submissions,
        "parallel.retries": fleet.retries,
        "parallel.timeouts": fleet.timeouts,
        "parallel.crashes": fleet.crashes,
        "cache.key_s": tracer.total("cache.key"),
        "cache.get_s": tracer.total("cache.get"),
        "cache.put_s": tracer.total("cache.put"),
        "cache.entry_bytes": ratio(sum(entry_sizes), len(entry_sizes)),
        "cache.hit_rate": ratio(warm_hits, warm_attempted),
        "account.sweep.remainder_share":
            tracer.remainder_share("sweep.pass"),
        "account.sweep.overhead":
            ratio(sum(walls), sum(untraced_walls)) - 1.0,
    }
    teardown(state)
    return outcome, metrics
