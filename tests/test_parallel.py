"""Tests for the parallel sweep runner and the bench harness.

The load-bearing property is *equivalence*: fanning a sweep over worker
processes must produce exactly the rows the serial harness produces
(the simulations are deterministic and aggregation order is fixed), so
the tables and ablations may switch freely between the two paths.

This host may have a single core; nothing here asserts wall-clock
speedup -- only correctness of the fan-out and of cache sharing.
"""

import json
import os
import threading
import warnings

import pytest

from repro.analysis import (
    ENGINE_FACTORIES,
    ParallelRunner,
    SimPoint,
    per_loop_baseline,
    run_bench,
    run_suite,
    sweep_sizes,
)
from repro.analysis.cache import ResultCache, cache_key
from repro.analysis.parallel import run_point
from repro.machine import MachineConfig
from repro.serve.protocol import canonical_result_bytes
from repro.workloads import SUITES, all_loops

JOBS = 4
CONFIG = MachineConfig(window_size=8)


@pytest.fixture(scope="module")
def loops():
    return all_loops()


@pytest.fixture(scope="module")
def quick_loops():
    return SUITES["quick"]()


class TestEquivalence:
    def test_sweep_rows_identical_to_serial(self, loops):
        """jobs=4 reproduces the serial Table 2-style sweep exactly on
        the Livermore suite."""
        serial = sweep_sizes("rstu", [4, 8], workloads=loops)
        runner = ParallelRunner(jobs=JOBS)
        parallel = sweep_sizes("rstu", [4, 8], workloads=loops,
                               runner=runner)
        assert parallel.rows == serial.rows
        assert parallel.baseline.cycles == serial.baseline.cycles
        assert parallel.baseline.instructions == \
            serial.baseline.instructions
        assert runner.points_run == len(loops) * 3  # baseline + 2 sizes

    def test_run_suite_identical_to_serial(self, quick_loops):
        builder = ENGINE_FACTORIES["ruu-bypass"]
        serial = run_suite(builder, quick_loops, CONFIG)
        parallel = run_suite(builder, quick_loops, CONFIG,
                             runner=ParallelRunner(jobs=JOBS))
        assert parallel.cycles == serial.cycles
        assert parallel.instructions == serial.instructions
        assert parallel.stalls == serial.stalls
        assert parallel.workload == serial.workload

    def test_per_loop_baseline_identical_to_serial(self, quick_loops):
        serial = per_loop_baseline(quick_loops, CONFIG)
        parallel = per_loop_baseline(quick_loops, CONFIG,
                                     runner=ParallelRunner(jobs=JOBS))
        assert [r.cycles for r in parallel] == [r.cycles for r in serial]
        assert [r.workload for r in parallel] == \
            [r.workload for r in serial]

    def test_results_return_in_submission_order(self, quick_loops):
        points = [SimPoint("simple", w, CONFIG) for w in quick_loops]
        points += [SimPoint("rstu", w, CONFIG) for w in quick_loops]
        results = ParallelRunner(jobs=JOBS).run_points(points)
        assert [(r.engine, r.workload) for r in results] == \
            [(ENGINE_FACTORIES[p.engine](
                p.workload.program, p.config,
                p.workload.make_memory()).name, p.workload.name)
             for p in points]

    def test_unknown_engine_raises(self, quick_loops):
        with pytest.raises(KeyError):
            ParallelRunner(jobs=1).run_points(
                [SimPoint("no-such-engine", quick_loops[0], CONFIG)]
            )


class TestCacheSharing:
    def test_second_runner_hits_first_runners_entries(self, quick_loops,
                                                      tmp_path):
        cache_dir = str(tmp_path / "cache")
        points = [SimPoint("rstu", w, CONFIG) for w in quick_loops[:6]]
        first = ParallelRunner(jobs=2, cache_dir=cache_dir)
        cold = first.run_points(points)
        assert first.misses == len(points) and first.hits == 0
        second = ParallelRunner(jobs=2, cache_dir=cache_dir)
        warm = second.run_points(points)
        assert second.hits == len(points) and second.misses == 0
        assert second.hit_rate == 1.0
        for a, b in zip(cold, warm):
            assert a.cycles == b.cycles
            assert a.stalls == b.stalls
            assert b.extra.get("from_cache")

    def test_two_concurrent_runners_one_cache_dir(self, quick_loops,
                                                  tmp_path):
        """Stress: two runners race on the same cache directory.  Atomic
        writes + corrupt-as-miss mean both must come back with results
        identical to an uncached serial run."""
        cache_dir = str(tmp_path / "cache")
        points = [SimPoint("rstu", w, CONFIG) for w in quick_loops[:6]]
        reference = [run_point(p) for p in points]
        outcomes = {}

        def race(tag):
            runner = ParallelRunner(jobs=2, cache_dir=cache_dir)
            outcomes[tag] = runner.run_points(points)

        threads = [threading.Thread(target=race, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tag in ("a", "b"):
            assert [r.cycles for r in outcomes[tag]] == \
                [r.cycles for r in reference]
            assert [r.instructions for r in outcomes[tag]] == \
                [r.instructions for r in reference]


class TestHostPerf:
    def test_engine_records_host_perf(self, quick_loops):
        workload = quick_loops[2]
        engine = ENGINE_FACTORIES["rstu"](
            workload.program, CONFIG, workload.make_memory()
        )
        result = engine.run()
        assert result.extra["host_seconds"] >= 0.0
        assert result.extra["host_inst_per_sec"] >= 0.0
        assert result.extra["host_cycles_per_sec"] >= 0.0
        if result.extra["host_seconds"] > 0:
            assert result.extra["host_inst_per_sec"] == pytest.approx(
                result.instructions / result.extra["host_seconds"]
            )

    def test_runner_aggregates_timings(self, quick_loops):
        runner = ParallelRunner(jobs=1)
        runner.run_points(
            [SimPoint("simple", w, CONFIG) for w in quick_loops[:3]]
        )
        assert runner.points_run == 3
        assert runner.wall_seconds > 0.0
        assert 0.0 <= runner.host_seconds <= runner.wall_seconds * 3

    def test_fully_warm_run_reports_no_simulator_time(self, quick_loops,
                                                      tmp_path):
        """A cached result carries the host time of the run that filled
        the cache; a pass of hits simulated nothing and must say so."""
        cache_dir = str(tmp_path / "cache")
        points = [SimPoint("rstu", w, CONFIG) for w in quick_loops[:4]]
        ParallelRunner(jobs=2, cache_dir=cache_dir).run_points(points)
        warm = ParallelRunner(jobs=2, cache_dir=cache_dir)
        warm.run_points(points)
        assert warm.hits == 4
        assert warm.points_run == 4  # hits included
        assert warm.host_seconds == 0.0


class TestBench:
    def test_bench_report_shape(self, quick_loops, tmp_path):
        report = run_bench(
            quick_loops[:4], jobs=2, cache_dir=str(tmp_path / "cache"),
            engines=["rstu"], sizes=[4, 8],
        )
        assert report["identical_to_serial"] is True
        assert report["grid"]["n_points"] == 8
        assert report["serial"]["wall_seconds"] > 0
        assert report["serial"]["points_per_sec"] > 0
        assert report["parallel_cold"]["wall_seconds"] > 0
        assert report["speedup_vs_serial"] > 0
        assert report["cache"]["cold_misses"] == 8
        assert report["cache"]["warm_hits"] == 8
        assert report["cache"]["hit_rate"] == 1.0
        assert report["simulated"]["instructions"] > 0
        assert report["simulated"]["inst_per_host_sec"] >= 0

    def test_bench_cli_writes_json(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        out_path = tmp_path / "BENCH_sweeps.json"
        code = main([
            "bench", "--jobs", "2", "--suite", "quick",
            "--engines", "rstu", "--sizes", "4",
            "--json", str(out_path),
        ])
        assert code == 0
        assert "identical to serial: True" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["identical_to_serial"] is True
        assert payload["cache"]["hit_rate"] == 1.0
        assert payload["jobs"] == 2


class TestSettledOutcomes:
    """run_points_settled: per-point verdicts instead of FleetError.

    The serving layer depends on these semantics -- a failing point in
    a micro-batch must settle its own future and leave the others'
    results intact.
    """

    @staticmethod
    def _hang_workload():
        from repro.isa import assemble
        from repro.machine import Memory
        from repro.workloads.base import Workload

        source = (
            "A_IMM A0, 1\n"
            "loop:\n"
            "A_ADDI A0, A0, 0\n"
            "BR_NONZERO A0, loop\n"
            "HALT\n"
        )
        return Workload(
            name="hang", program=assemble(source, "hang"),
            initial_memory=Memory(),
        )

    def test_mixed_batch_settles_per_point(self, quick_loops):
        config = MachineConfig(window_size=8, max_cycles=2000)
        points = [
            SimPoint("ruu-bypass", quick_loops[0], config),
            SimPoint("ruu-bypass", self._hang_workload(), config),
            SimPoint("ruu-bypass", quick_loops[1], config),
        ]
        runner = ParallelRunner(jobs=2, serial_fallback=False)
        outcomes = runner.run_points_settled(points)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].result.cycles > 0
        assert "DeadlockError" in outcomes[1].error
        assert outcomes[1].result is None

    def test_failed_point_carries_engine_diagnostic(self):
        config = MachineConfig(window_size=8, max_cycles=2000)
        runner = ParallelRunner(jobs=2, serial_fallback=False)
        outcomes = runner.run_points_settled(
            [SimPoint("ruu-bypass", self._hang_workload(), config)]
        )
        diagnostic = outcomes[0].diagnostic
        assert diagnostic is not None
        assert diagnostic["cycle"] > 0
        assert diagnostic["engine"]
        assert "workload" in diagnostic

    def test_settled_matches_run_points_on_success(self, quick_loops):
        points = [SimPoint("rstu", w, CONFIG) for w in quick_loops[:3]]
        settled = ParallelRunner(jobs=2).run_points_settled(points)
        raised = ParallelRunner(jobs=2).run_points(points)
        assert [o.result.cycles for o in settled] == \
            [r.cycles for r in raised]

    def test_run_points_still_raises_on_failure(self, quick_loops):
        from repro.analysis.parallel import FleetError

        config = MachineConfig(window_size=8, max_cycles=2000)
        runner = ParallelRunner(jobs=2, serial_fallback=False)
        with pytest.raises(FleetError):
            runner.run_points(
                [SimPoint("ruu-bypass", self._hang_workload(), config)]
            )

    def test_settled_reports_cache_hits(self, quick_loops, tmp_path):
        runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        points = [SimPoint("rstu", w, CONFIG) for w in quick_loops[:2]]
        cold = runner.run_points_settled(points)
        warm = runner.run_points_settled(points)
        assert not any(o.cache_hit for o in cold)
        assert all(o.cache_hit for o in warm)


class TestPoolReuse:
    """reuse_pool=True keeps one warm executor across calls."""

    def test_one_pool_across_many_calls(self, quick_loops):
        runner = ParallelRunner(jobs=2, reuse_pool=True)
        try:
            for _ in range(3):
                runner.run_points(
                    [SimPoint("rstu", w, CONFIG)
                     for w in quick_loops[:2]]
                )
            assert runner.fleet.pools == 1
            assert runner.points_run == 6
        finally:
            runner.close()

    def test_fresh_pool_per_round_without_reuse(self, quick_loops):
        runner = ParallelRunner(jobs=2)
        runner.run_points(
            [SimPoint("rstu", w, CONFIG) for w in quick_loops[:2]]
        )
        runner.run_points(
            [SimPoint("rstu", w, CONFIG) for w in quick_loops[:2]]
        )
        assert runner.fleet.pools == 2

    def test_reused_results_identical_to_serial(self, quick_loops):
        points = [SimPoint("ruu-bypass", w, CONFIG)
                  for w in quick_loops[:3]]
        serial = [run_point(p) for p in points]
        with ParallelRunner(jobs=2, reuse_pool=True) as runner:
            warm = runner.run_points(points)
        assert [r.cycles for r in warm] == [r.cycles for r in serial]

    def test_close_is_idempotent(self):
        runner = ParallelRunner(jobs=2, reuse_pool=True)
        runner.run_points(healthy_points_for_reuse())
        runner.close()
        runner.close()


def healthy_points_for_reuse():
    loops = SUITES["quick"]()
    return [SimPoint("simple", w, CONFIG) for w in loops[:2]]


class TestParentProbe:
    """Cache hits are answered in the calling process; only misses,
    each carrying its key, are submitted to the pool."""

    @staticmethod
    def _points(quick_loops):
        return [SimPoint(engine, w, CONFIG)
                for engine in ("rstu", "ruu-bypass")
                for w in quick_loops[:3]]

    @pytest.mark.parametrize("reuse_pool", [False, True])
    def test_warm_pass_submits_nothing(self, quick_loops, tmp_path,
                                       reuse_pool):
        cache_dir = str(tmp_path / "cache")
        points = self._points(quick_loops)
        ParallelRunner(jobs=2, cache_dir=cache_dir).run_points(points)
        with ParallelRunner(jobs=2, cache_dir=cache_dir,
                            reuse_pool=reuse_pool) as runner:
            warm = runner.run_points(points)
            assert runner.last_fleet.submissions == 0
            assert runner.last_fleet.pools == 0
            assert runner._pool is None
        assert runner.hits == len(points) and runner.misses == 0
        assert all(r.extra.get("from_cache") for r in warm)

    def test_mixed_pass_submits_exactly_the_misses(self, quick_loops,
                                                   tmp_path):
        cache_dir = str(tmp_path / "cache")
        points = self._points(quick_loops)
        warmed = points[::2]
        ParallelRunner(jobs=2, cache_dir=cache_dir).run_points(warmed)
        runner = ParallelRunner(jobs=2, cache_dir=cache_dir)
        outcomes = runner.run_points_settled(points)
        assert runner.last_fleet.submissions == len(points) - len(warmed)
        assert [o.cache_hit for o in outcomes] == \
            [index % 2 == 0 for index in range(len(points))]
        assert [(o.result.engine, o.result.workload) for o in outcomes] \
            == [(r.engine, r.workload) for r in map(run_point, points)]

    def test_results_byte_identical_to_serial(self, quick_loops, tmp_path):
        cache_dir = str(tmp_path / "cache")
        points = self._points(quick_loops)
        serial = [canonical_result_bytes(run_point(p)) for p in points]
        ParallelRunner(jobs=2, cache_dir=cache_dir).run_points(points[:2])
        for _ in range(2):  # mixed, then fully warm
            runner = ParallelRunner(jobs=2, cache_dir=cache_dir)
            got = runner.run_points(points)
            assert [canonical_result_bytes(r) for r in got] == serial

    def test_corrupt_entry_is_resimulated_and_rewritten(self, quick_loops,
                                                        tmp_path):
        cache_dir = str(tmp_path / "cache")
        points = self._points(quick_loops)
        ParallelRunner(jobs=2, cache_dir=cache_dir).run_points(points)
        victim = points[1]
        path = os.path.join(cache_dir, cache_key(
            victim.engine, victim.workload, victim.config) + ".json")
        with open(path, "w") as handle:
            handle.write('{"schema": 3, "cyc')
        runner = ParallelRunner(jobs=2, cache_dir=cache_dir)
        outcomes = runner.run_points_settled(points)
        assert [o.cache_hit for o in outcomes] == \
            [index != 1 for index in range(len(points))]
        assert runner.last_fleet.submissions == 1
        assert canonical_result_bytes(outcomes[1].result) == \
            canonical_result_bytes(run_point(victim))
        with open(path) as handle:
            assert json.load(handle)["cycles"] == outcomes[1].result.cycles
        again = ParallelRunner(jobs=2, cache_dir=cache_dir)
        again.run_points(points)
        assert again.hits == len(points)

    def test_unusable_cache_directory_warns_once(self, quick_loops,
                                                 tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache directory must be")
        points = self._points(quick_loops)
        runner = ParallelRunner(jobs=1, cache_dir=str(blocker))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = runner.run_points(points)
        assert len(caught) == 1
        assert caught[0].category is RuntimeWarning
        assert "continuing without" in str(caught[0].message)
        assert [canonical_result_bytes(r) for r in results] == \
            [canonical_result_bytes(run_point(p)) for p in points]
        assert runner.hits == 0 and runner.misses == len(points)

    def test_traced_points_are_never_probed(self, quick_loops, tmp_path,
                                            monkeypatch):
        cache_dir = str(tmp_path / "cache")
        plain = self._points(quick_loops)[:2]
        ParallelRunner(jobs=2, cache_dir=cache_dir).run_points(plain)
        probed = []
        real_get = ResultCache.get

        def spy(cache, key):
            probed.append(key)
            return real_get(cache, key)

        monkeypatch.setattr(ResultCache, "get", spy)
        traced = [SimPoint(p.engine, p.workload, p.config, trace=True)
                  for p in plain]
        runner = ParallelRunner(jobs=2, cache_dir=cache_dir)
        outcomes = runner.run_points_settled(traced + plain)
        assert probed == [cache_key(p.engine, p.workload, p.config)
                          for p in plain]
        assert [o.cache_hit for o in outcomes] == [False, False, True, True]
        assert all("attribution" in o.result.extra for o in outcomes[:2])
        assert runner.last_fleet.submissions == 2
