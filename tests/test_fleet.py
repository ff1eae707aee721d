"""Self-healing parallel runner under injected worker failures.

The chaos engines (:mod:`tests.chaos`) misbehave only inside
pool workers, so every scenario here can check both halves of the
contract: the sweep still completes (retry, timeout-kill, or serial
fallback), and the :class:`~repro.analysis.parallel.FleetReport` says
exactly what it took.
"""

import multiprocessing
import time

import pytest

from repro.analysis.parallel import (
    FleetError,
    FleetReport,
    ParallelRunner,
    PointFailure,
    SimPoint,
)
from repro.machine import MachineConfig
from repro.workloads import dependency_chain, lll3

from tests.chaos import (
    CHAOS_ENGINES,
    install_chaos_engines,
    remove_chaos_engines,
)

CONFIG = MachineConfig(window_size=8)


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retry rounds sleep 10 ms, not the default quarter second."""
    monkeypatch.setattr("repro.analysis.parallel.RETRY_BACKOFF_S", 0.01)


@pytest.fixture
def chaos(tmp_path):
    install_chaos_engines(str(tmp_path))
    yield
    remove_chaos_engines()


def healthy_points(n=3):
    return [SimPoint("simple", dependency_chain(10 + i), CONFIG)
            for i in range(n)]


def serial_results(points):
    return ParallelRunner(jobs=1).run_points(points)


class TestHealthyFleet:
    def test_clean_report(self):
        runner = ParallelRunner(jobs=2)
        points = healthy_points()
        runner.run_points(points)
        assert runner.last_fleet.clean
        assert runner.last_fleet.points == len(points)
        assert runner.last_fleet.submissions == len(points)
        assert runner.fleet.clean  # cumulative view agrees

    def test_fleet_accumulates_across_calls(self):
        runner = ParallelRunner(jobs=2)
        runner.run_points(healthy_points(2))
        runner.run_points(healthy_points(3))
        assert runner.fleet.points == 5
        assert runner.last_fleet.points == 3


class TestCrashRecovery:
    def test_transient_crash_retries_then_succeeds(self, chaos):
        runner = ParallelRunner(jobs=2, max_retries=2)
        points = [SimPoint("chaos-crash-once", lll3(n=20), CONFIG)] \
            + healthy_points(2)
        results = runner.run_points(points)
        assert [r.engine for r in results] == \
            ["chaos-crash-once", "simple", "simple", ]
        fleet = runner.last_fleet
        assert fleet.ok
        assert fleet.crashes >= 1
        assert fleet.retries >= 1
        assert fleet.pools >= 2          # the broken pool was rebuilt
        assert not fleet.degraded        # the retry, not the fallback, won

    def test_persistent_crash_falls_back_to_serial(self, chaos):
        runner = ParallelRunner(jobs=2, max_retries=1)
        points = [SimPoint("chaos-crash", lll3(n=20), CONFIG)] \
            + healthy_points(2)
        results = runner.run_points(points)
        assert len(results) == 3 and all(results)
        fleet = runner.last_fleet
        assert fleet.ok
        assert fleet.crashes >= 2        # both rounds died
        # The crasher itself can only ever finish in the fallback; a
        # healthy point may ride along if the pool died around it.
        assert "chaos-crash" in {entry["engine"]
                                 for entry in fleet.degraded}

    def test_crash_results_identical_to_pure_serial(self, chaos):
        """Healthy points that share a fleet with a crasher come back
        bit-identical to a pure-serial run, in submission order."""
        healthy = healthy_points(3)
        points = healthy[:1] \
            + [SimPoint("chaos-crash", lll3(n=20), CONFIG)] + healthy[1:]
        runner = ParallelRunner(jobs=2, max_retries=1)
        parallel = runner.run_points(points)
        serial = serial_results(healthy)
        survivors = [r for r in parallel if r.engine == "simple"]
        for got, expected in zip(survivors, serial):
            assert got.workload == expected.workload
            assert got.cycles == expected.cycles
            assert got.instructions == expected.instructions
            assert got.stalls == expected.stalls


class TestHangRecovery:
    def test_hung_worker_times_out_then_serial_fallback(self, chaos):
        runner = ParallelRunner(jobs=2, max_retries=1, timeout=1.0)
        points = [SimPoint("chaos-hang", lll3(n=20), CONFIG)] \
            + healthy_points(1)
        results = runner.run_points(points)
        assert len(results) == 2 and all(results)
        fleet = runner.last_fleet
        assert fleet.ok
        assert fleet.timeouts >= 1
        assert len(fleet.degraded) == 1
        assert fleet.degraded[0]["engine"] == "chaos-hang"


class TestPermanentFailure:
    def test_fleet_error_names_every_failed_point(self, chaos):
        runner = ParallelRunner(jobs=2, max_retries=1)
        points = healthy_points(1) \
            + [SimPoint("chaos-error", lll3(n=20), CONFIG)]
        with pytest.raises(FleetError) as excinfo:
            runner.run_points(points)
        report = excinfo.value.report
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.engine == "chaos-error"
        assert failure.index == 1
        assert "chaos-error: injected failure" in failure.error
        assert failure.attempts >= 2     # retried before giving up
        assert failure.describe() in str(excinfo.value)

    def test_no_serial_fallback_means_failures(self, chaos):
        # Two points so the fleet actually fans out (a single point
        # clamps to jobs=1 and runs in-process, where chaos engines
        # deliberately behave).
        runner = ParallelRunner(jobs=2, max_retries=0,
                                serial_fallback=False)
        with pytest.raises(FleetError) as excinfo:
            runner.run_points(
                [SimPoint("chaos-crash", lll3(n=20), CONFIG)]
                + healthy_points(1)
            )
        failed = {f.engine for f in excinfo.value.report.failures}
        assert "chaos-crash" in failed

    def test_serial_jobs1_reports_engine_errors(self, chaos):
        runner = ParallelRunner(jobs=1)
        with pytest.raises(FleetError) as excinfo:
            runner.run_points(
                [SimPoint("chaos-error", lll3(n=20), CONFIG)]
            )
        assert excinfo.value.report.failures[0].engine == "chaos-error"

    def test_unknown_engine_still_raises_keyerror(self, chaos):
        runner = ParallelRunner(jobs=2)
        with pytest.raises(KeyError):
            runner.run_points(
                [SimPoint("no-such-engine", lll3(n=20), CONFIG)]
            )


class TestIdleWorkerDeath:
    def test_pool_broken_between_calls_is_rebuilt(self):
        """A warm pool whose worker died while idle (an OOM kill, say)
        is already broken when the next call submits to it; that call
        must rebuild the pool and finish, not raise."""
        with ParallelRunner(jobs=1, reuse_pool=True) as runner:
            runner.run_points(healthy_points(1))
            pool = runner._pool
            for worker in list(pool._processes.values()):
                worker.kill()
                worker.join()
            deadline = time.monotonic() + 30.0
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            outcomes = runner.run_points_settled(healthy_points(2))
            assert all(outcome.ok for outcome in outcomes)
            assert runner.last_fleet.pools == 1
            assert runner.fleet.pools == 2


class TestNoLeakedWorkers:
    """A one-shot runner (no ``reuse_pool``) closes its pool at the end
    of every call, whether the pool drained or a crash broke it."""

    @staticmethod
    def assert_no_new_workers(runner, before):
        assert runner._pool is None
        assert set(multiprocessing.active_children()) <= before

    def test_drained_pool_is_closed(self):
        before = set(multiprocessing.active_children())
        runner = ParallelRunner(jobs=2)
        runner.run_points(healthy_points(3))
        assert runner.last_fleet.pools == 1
        self.assert_no_new_workers(runner, before)

    def test_broken_pool_is_closed_after_serial_fallback(self, chaos):
        before = set(multiprocessing.active_children())
        runner = ParallelRunner(jobs=2, max_retries=1)
        runner.run_points([SimPoint("chaos-crash", lll3(n=20), CONFIG)]
                          + healthy_points(2))
        fleet = runner.last_fleet
        assert fleet.crashes >= 1
        assert "chaos-crash" in {entry["engine"] for entry in fleet.degraded}
        self.assert_no_new_workers(runner, before)


class TestFleetReportType:
    def test_merge_and_json(self):
        a = FleetReport(jobs=2, points=3, submissions=4, retries=1,
                        crashes=1, pools=2)
        b = FleetReport(jobs=4, points=2, submissions=2, timeouts=1,
                        failures=[PointFailure(0, "e", "w", 3, "boom")])
        a.merge(b)
        assert a.jobs == 4 and a.points == 5 and a.submissions == 6
        assert a.retries == 1 and a.timeouts == 1 and a.crashes == 1
        assert not a.ok and not a.clean
        payload = a.to_json()
        assert payload["failures"][0]["error"] == "boom"
        assert "FAILED" in a.describe()

    def test_chaos_registry_cleanup(self, chaos):
        from repro.analysis import ENGINE_FACTORIES
        assert set(CHAOS_ENGINES) <= set(ENGINE_FACTORIES)
        remove_chaos_engines()
        assert not set(CHAOS_ENGINES) & set(ENGINE_FACTORIES)
