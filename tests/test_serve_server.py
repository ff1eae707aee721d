"""End-to-end tests of the simulation service over real HTTP.

Each test talks to an in-process server (``serve_in_background``) on an
ephemeral port through the blocking client -- the full stack: asyncio
front end, admission control, coalescer, dispatcher thread, reused
self-healing worker pool, shared result cache.

The acceptance properties pinned here:

* N simultaneous identical requests simulate **exactly once**
  (coalescer + cache);
* a mixed valid/invalid batch settles per item -- bad items cannot
  poison good ones;
* a deadlocking program returns 422 with the engine's
  ``EngineDiagnostic`` payload in the error body;
* over-capacity load yields 429 + Retry-After, and honoring the hint
  succeeds;
* a served result is byte-identical to the same point run serially
  in-process.
"""

import asyncio
import json
import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.analysis.parallel import run_point
from repro.serve.client import Backpressure, ServeClient, ServeError
from repro.serve.protocol import (
    LIMITS,
    build_workload_registry,
    canonical_result_bytes,
    parse_sim_request,
    wire_to_result,
)
from repro.serve.server import ServeApp, serve_in_background
from repro.serve.service import SimService

#: Spins long enough to keep a worker busy while a burst piles up, but
#: bounded so a wedged test still finishes.
SLOW_PROGRAM = (
    "A_IMM A0, 60000\n"
    "loop:\n"
    "A_ADDI A0, A0, -1\n"
    "BR_NONZERO A0, loop\n"
    "HALT\n"
)

#: Spins forever; only the max_cycles budget stops it (DeadlockError).
HANG_PROGRAM = (
    "A_IMM A0, 1\n"
    "loop:\n"
    "A_ADDI A0, A0, 0\n"
    "BR_NONZERO A0, loop\n"
    "HALT\n"
)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    handle = serve_in_background(
        jobs=2, queue_depth=16, cache_dir=cache_dir,
        point_timeout=60.0,
    )
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    c = ServeClient("127.0.0.1", server.port, timeout=120.0)
    c.wait_ready()
    return c


class TestSingleRun:
    def test_workload_run_matches_serial(self, client):
        payload = {"workload": "LLL3", "config": {"window_size": 8}}
        served = client.run(payload, max_attempts=8)
        request = parse_sim_request(payload, build_workload_registry())
        serial = run_point(request.point)
        assert canonical_result_bytes(served) \
            == canonical_result_bytes(serial)

    def test_program_run(self, client):
        body = client.run_raw(
            {"program": "A_IMM A0, 7\nHALT"}, max_attempts=8
        )
        assert body["ok"] is True
        result = wire_to_result(body["result"])
        # HALT is not a retired instruction; only the A_IMM counts
        assert result.instructions == 1
        assert result.cycles > 0

    def test_repeat_is_cache_hit_and_identical(self, client):
        payload = {"workload": "LLL1", "config": {"window_size": 6}}
        first = client.run_raw(payload, max_attempts=8)
        second = client.run_raw(payload, max_attempts=8)
        assert second["cache_hit"] is True
        a = canonical_result_bytes(wire_to_result(first["result"]))
        b = canonical_result_bytes(wire_to_result(second["result"]))
        assert a == b

    def test_repeat_hit_never_reaches_the_pool(self, client, server):
        """A hit is answered by the dispatcher from the cache: no worker
        submission, and the /metrics hit and miss counters still count
        one miss then one hit."""
        def counters():
            text = client.metrics_text()
            return [
                float(line.split()[-1]) for name in (
                    "repro_serve_cache_hits_total",
                    "repro_serve_cache_misses_total",
                )
                for line in text.splitlines() if line.startswith(name)
            ]

        runner = server.service.runner
        payload = {"workload": "LLL2", "config": {"window_size": 5}}
        hits, misses = counters()
        first = client.run_raw(payload, max_attempts=8)
        submissions = runner.fleet.submissions
        second = client.run_raw(payload, max_attempts=8)
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert runner.fleet.submissions == submissions
        assert counters() == [hits + 1, misses + 1]

    def test_protocol_error_is_400_with_reason(self, client):
        status, _, body = client.request_json(
            "POST", "/run", {"workload": "LLL99"}
        )
        assert status == 400
        assert body["error"]["reason"] == "unknown_workload"

    def test_bad_json_is_400(self, client):
        status, _, data = client.request("POST", "/run", None)
        # empty body -> not valid JSON
        assert status == 400
        assert json.loads(data)["error"]["reason"] == "bad_json"


class TestCoalescing:
    def test_identical_concurrent_requests_simulate_once(self, server):
        """Many simultaneous identical requests cost one simulation:
        one cache miss total; everyone gets identical bytes."""
        payload = {
            "workload": "LLL7",
            # unique point so earlier tests cannot have cached it
            "config": {"window_size": 9, "max_cycles": 5_000_123},
        }
        misses_before = server.service.runner.misses
        n = 8
        outputs = [None] * n
        barrier = threading.Barrier(n)

        def fire(i):
            c = ServeClient("127.0.0.1", server.port, timeout=120.0)
            barrier.wait()
            outputs[i] = c.run_raw(payload, max_attempts=8)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(body["ok"] for body in outputs)
        blobs = {
            canonical_result_bytes(wire_to_result(body["result"]))
            for body in outputs
        }
        assert len(blobs) == 1
        assert server.service.runner.misses == misses_before + 1

    def test_duplicates_within_a_batch_coalesce(self, client, server):
        coalesced_before = server.service.coalescer.coalesced
        item = {
            "workload": "LLL9",
            "config": {"window_size": 7, "max_cycles": 5_000_321},
        }
        entries = client.run_batch([item, dict(item), dict(item)],
                                   max_attempts=8)
        assert [e["ok"] for e in entries] == [True, True, True]
        blobs = {
            canonical_result_bytes(wire_to_result(e["result"]))
            for e in entries
        }
        assert len(blobs) == 1
        assert server.service.coalescer.coalesced \
            == coalesced_before + 2


def _alias_workloads(service, workload, names):
    """Register ``names`` as renamed copies of ``workload``: the same
    instructions, so the same point for the coalescer."""
    from dataclasses import replace

    for name in names:
        service.workloads[name] = replace(
            workload, name=name,
            program=replace(workload.program, name=name),
        )


def _without_name(result):
    return json.dumps(
        {key: value for key, value in result.items() if key != "workload"},
        sort_keys=True,
    )


class TestCoalescedNames:
    """A coalesced follower shares its leader's outcome but answers
    with its own program's name."""

    def test_concurrent_requests_keep_their_names(self, server):
        from repro.isa import assemble
        from repro.machine import Memory
        from repro.workloads.base import Workload

        names = ("spin-left", "spin-right")
        spin = Workload(name="spin", program=assemble(SLOW_PROGRAM),
                        initial_memory=Memory())
        _alias_workloads(server.service, spin, names)
        config = {"window_size": 5, "max_cycles": 5_000_777}
        outputs = {}
        barrier = threading.Barrier(len(names))

        def fire(name):
            c = ServeClient("127.0.0.1", server.port, timeout=120.0)
            barrier.wait()
            outputs[name] = c.run_raw(
                {"workload": name, "config": config}, max_attempts=8,
            )

        threads = [threading.Thread(target=fire, args=(name,))
                   for name in names]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [outputs[name]["result"]["workload"] for name in names] \
            == list(names)
        left, right = (outputs[name]["result"] for name in names)
        assert _without_name(left) == _without_name(right)

    def test_batch_followers_keep_their_names(self, client, server):
        names = ("LLL9-a", "LLL9-b", "LLL9-c")
        _alias_workloads(server.service, server.service.workloads["LLL9"],
                         names)
        coalesced_before = server.service.coalescer.coalesced
        config = {"window_size": 7, "max_cycles": 5_000_654}
        entries = client.run_batch(
            [{"workload": name, "config": config} for name in names],
            max_attempts=8,
        )
        assert server.service.coalescer.coalesced \
            == coalesced_before + 2
        assert [entry["result"]["workload"] for entry in entries] \
            == list(names)
        assert len({_without_name(entry["result"])
                    for entry in entries}) == 1

    def test_outcome_entry_leaves_the_shared_result_alone(self):
        from types import SimpleNamespace

        from repro.machine.stats import SimResult

        shared = SimResult(engine="ruu-bypass", workload="leader",
                           cycles=10, instructions=5)
        outcome = SimpleNamespace(ok=True, result=shared, cache_hit=False,
                                  attempts=1)

        def request(name):
            program = SimpleNamespace(name=name)
            return SimpleNamespace(point=SimpleNamespace(
                workload=SimpleNamespace(program=program)))

        follower = ServeApp._outcome_entry(outcome, True, request("mine"))
        assert follower["result"]["workload"] == "mine"
        assert shared.workload == "leader"


class TestBatch:
    def test_mixed_batch_settles_per_item(self, client):
        entries = client.run_batch(
            [
                {"workload": "LLL2", "config": {"window_size": 8}},
                {"workload": "LLL99"},
                {"program": "BOGUS ###"},
                {"program": "A_IMM A0, 1\nHALT"},
            ],
            max_attempts=8,
        )
        assert [e["ok"] for e in entries] == [True, False, False, True]
        assert entries[1]["error"]["reason"] == "unknown_workload"
        assert entries[2]["error"]["reason"] == "bad_program"
        # the good items really ran
        assert wire_to_result(entries[3]["result"]).instructions == 1

    def test_structural_batch_errors_are_400(self, client):
        status, _, body = client.request_json(
            "POST", "/batch", {"requests": []}
        )
        assert status == 400
        assert body["error"]["reason"] == "empty_batch"

    def test_batch_size_limit_enforced(self, client):
        requests = [{"workload": "LLL1"}] \
            * (LIMITS["max_batch_size"] + 1)
        status, _, body = client.request_json(
            "POST", "/batch", {"requests": requests}
        )
        assert status == 400
        assert body["error"]["reason"] == "batch_too_large"


class TestDeadlockDiagnostic:
    def test_hanging_program_returns_422_with_diagnostic(self, client):
        status, _, body = client.request_json(
            "POST", "/run",
            {"program": HANG_PROGRAM,
             "config": {"max_cycles": 2000}},
        )
        assert status == 422
        error = body["error"]
        assert error["reason"] == "simulation_failed"
        assert "DeadlockError" in error["message"]
        diagnostic = error["diagnostic"]
        assert diagnostic["cycle"] > 0
        assert "engine" in diagnostic

    def test_deadlock_in_batch_does_not_poison_others(self, client):
        entries = client.run_batch(
            [
                {"program": HANG_PROGRAM,
                 "config": {"max_cycles": 2000}},
                {"workload": "LLL4", "config": {"window_size": 8}},
            ],
            max_attempts=8,
        )
        assert entries[0]["ok"] is False
        assert "diagnostic" in entries[0]["error"]
        assert entries[1]["ok"] is True


class TestObservability:
    def test_healthz_reports_version_and_queue(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"]
        assert health["jobs"] == 2
        assert health["capacity"] == 16
        assert "LLL3" in health["workloads"]

    def test_metrics_exposition(self, client):
        client.run_raw({"workload": "LLL1"}, max_attempts=8)
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'endpoint="/run"' in text
        assert "# TYPE repro_serve_point_seconds histogram" in text
        assert "repro_serve_point_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_fleet_events" in text

    def test_unknown_path_is_404(self, client):
        status, _, body = client.request_json("GET", "/nope")
        assert status == 404
        assert body["error"]["reason"] == "not_found"

    def test_wrong_method_is_405(self, client):
        status, headers, _ = client.request_json("GET", "/run")
        assert status == 405
        assert headers["allow"] == "POST"

    def test_oversized_body_is_400(self, client):
        padding = "x" * (LIMITS["max_body_bytes"] + 10)
        status, _, body = client.request_json(
            "POST", "/run", {"pad": padding}
        )
        assert status == 400
        assert body["error"]["reason"] == "body_too_large"


class TestBackpressure:
    def test_429_with_retry_after_then_success(self, tmp_path):
        """A one-worker, depth-2 server under a unique-point salvo must
        refuse some requests with 429 + Retry-After; clients honoring
        the hint all finish."""
        handle = serve_in_background(
            jobs=1, queue_depth=2, cache_dir=str(tmp_path),
            point_timeout=60.0,
        )
        try:
            ServeClient("127.0.0.1", handle.port).wait_ready()
            n = 8
            rejected = []
            succeeded = []
            lock = threading.Lock()
            barrier = threading.Barrier(n)

            def fire(i):
                c = ServeClient("127.0.0.1", handle.port,
                                timeout=120.0)
                payload = {
                    "program": SLOW_PROGRAM,
                    # unique max_cycles -> unique cache key: the
                    # coalescer cannot absorb the salvo
                    "config": {"max_cycles": 1_000_000 + i},
                }
                barrier.wait()
                try:
                    c.run_raw(payload, max_attempts=1)
                except Backpressure as busy:
                    with lock:
                        rejected.append(busy.retry_after)
                    body = c.run_raw(payload, max_attempts=60,
                                     backoff_cap=1.0)
                    with lock:
                        succeeded.append(body["ok"])
                else:
                    with lock:
                        succeeded.append(True)

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert rejected, "no request saw backpressure"
            assert all(hint >= 1 for hint in rejected)
            assert succeeded.count(True) == n
            assert handle.service.admission.rejected >= len(rejected)
        finally:
            handle.stop()

    def test_drained_server_refuses_with_503(self, tmp_path):
        handle = serve_in_background(
            jobs=1, queue_depth=4, cache_dir=str(tmp_path),
        )
        client = ServeClient("127.0.0.1", handle.port)
        client.wait_ready()
        assert handle.service.drain(timeout=30.0)
        status, _, body = client.request_json(
            "POST", "/run", {"workload": "LLL1"}
        )
        assert status == 503
        assert body["error"]["reason"] == "draining"
        assert client.healthz()["status"] == "draining"
        handle.stop()


class TestAbandonedWaiters:
    """A waiter that times out or disappears must cost the service
    nothing: the dispatcher survives, capacity is released, and a
    coalesced leader future is never cancelled out from under the
    other followers (REVIEW: dispatcher death via InvalidStateError)."""

    def test_cancelled_future_does_not_kill_dispatcher(self, tmp_path):
        service = SimService(jobs=1, queue_depth=4,
                             cache_dir=str(tmp_path),
                             point_timeout=60.0)
        service.start()
        try:
            abandoned = parse_sim_request(
                {"program": "A_IMM A0, 11\nHALT"}, service.workloads
            )
            future, _ = service.submit(abandoned)
            # Simulate the waiter's deadline expiring: without the
            # shield in _await_outcome this is exactly what wait_for
            # did to the pending concurrent future.
            future.cancel()
            followup = parse_sim_request(
                {"program": "A_IMM A0, 12\nHALT"}, service.workloads
            )
            future2, _ = service.submit(followup)
            outcome = future2.result(timeout=120)
            assert outcome.ok
            # Capacity for both points drained back out: no leak.
            deadline = time.monotonic() + 60
            while service.admission.pending \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.admission.pending == 0
        finally:
            service.drain(timeout=60.0)

    def test_expired_deadline_leaves_shared_future_uncancelled(
            self, tmp_path):
        service = SimService(jobs=1, queue_depth=2,
                             cache_dir=str(tmp_path))
        app = ServeApp(service, request_timeout=0.05)
        future = Future()

        async def scenario():
            with pytest.raises(asyncio.TimeoutError):
                await app._await_outcome(future)

        asyncio.run(scenario())
        assert not future.cancelled()
        future.set_result("late settle must not raise")
        service.runner.close()


class TestIsolation:
    def test_jobs1_still_runs_in_worker_pool(self, tmp_path):
        """--jobs 1 must not execute inline on the dispatcher thread:
        the service always keeps a (1-worker) pool so isolation and
        timeout-kill hold."""
        service = SimService(jobs=1, queue_depth=4,
                             cache_dir=str(tmp_path),
                             point_timeout=60.0)
        assert service.runner.reuse_pool is True
        service.start()
        try:
            request = parse_sim_request(
                {"program": "A_IMM A0, 3\nHALT"}, service.workloads
            )
            future, _ = service.submit(request)
            outcome = future.result(timeout=120)
            assert outcome.ok
            # The pooled path built an executor; the inline path never
            # touches this counter.
            assert service.runner.fleet.pools >= 1
        finally:
            service.drain(timeout=60.0)


class TestRequestHeadLimits:
    def test_unbounded_headers_rejected(self, server):
        with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30) as sock:
            head = b"GET /healthz HTTP/1.1\r\n"
            # One header past the count cap, all of it sent before we
            # read, so the server has no unread bytes left (clean FIN,
            # no RST racing the response).
            head += b"".join(
                b"X-%d: a\r\n" % i for i in range(101)
            )
            sock.sendall(head)
            sock.settimeout(30)
            data = sock.recv(65536)
        assert b" 400 " in data.split(b"\r\n", 1)[0]
        assert b"headers_too_large" in data

    def test_stalled_header_client_disconnected(self, tmp_path):
        handle = serve_in_background(
            jobs=1, queue_depth=2, cache_dir=str(tmp_path),
            idle_timeout=0.5,
        )
        try:
            ServeClient("127.0.0.1", handle.port).wait_ready()
            with socket.create_connection(
                    ("127.0.0.1", handle.port), timeout=30) as sock:
                # Request line, then stall mid-headers (slowloris).
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                sock.settimeout(30)
                assert sock.recv(1024) == b""
        finally:
            handle.stop()


class TestBatchDeadline:
    def test_batch_shares_one_request_deadline(self, tmp_path):
        """A stalled batch settles in ~one request_timeout, not one
        per item."""
        handle = serve_in_background(
            jobs=1, queue_depth=8, cache_dir=str(tmp_path),
            point_timeout=120.0, request_timeout=1.0,
        )
        try:
            client = ServeClient("127.0.0.1", handle.port,
                                 timeout=60.0)
            client.wait_ready()
            # Occupy the single worker with a ~4s point so the batch
            # behind it cannot settle before its deadline.
            blocker = {
                "program": HANG_PROGRAM,
                "config": {"max_cycles": 600_000},
            }
            blocker_thread = threading.Thread(
                target=lambda: client.request_json(
                    "POST", "/run", blocker
                ),
            )
            blocker_thread.start()
            deadline = time.monotonic() + 30
            while handle.service.health()["in_flight"] == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            started = time.perf_counter()
            status, _, body = client.request_json(
                "POST", "/batch",
                {"requests": [
                    {"program": "A_IMM A0, 21\nHALT"},
                    {"program": "A_IMM A0, 22\nHALT"},
                    {"program": "A_IMM A0, 23\nHALT"},
                ]},
            )
            elapsed = time.perf_counter() - started
            assert status == 200
            reasons = [
                entry["error"]["reason"] for entry in body["results"]
            ]
            assert reasons == ["request_timeout"] * 3
            # Sequential per-item deadlines would take >= 3s here.
            assert elapsed < 2.5
            blocker_thread.join(timeout=60)
        finally:
            handle.stop()


class TestBatchOverCapacity:
    def test_batch_larger_than_capacity_is_413(self, tmp_path):
        handle = serve_in_background(
            jobs=1, queue_depth=2, cache_dir=str(tmp_path),
        )
        try:
            client = ServeClient("127.0.0.1", handle.port)
            client.wait_ready()
            requests = [
                {"program": f"A_IMM A0, {30 + i}\nHALT"}
                for i in range(4)
            ]
            status, _, body = client.request_json(
                "POST", "/batch", {"requests": requests}
            )
            assert status == 413
            error = body["error"]
            assert error["reason"] == "batch_exceeds_capacity"
            assert error["fresh_points"] == 4
            assert error["capacity"] == 2
            # A batch that fits (after coalescing duplicates) is fine.
            entries = client.run_batch(
                [requests[0], dict(requests[0])], max_attempts=8
            )
            assert [entry["ok"] for entry in entries] == [True, True]
        finally:
            handle.stop()


class TestClientErrors:
    def test_serve_error_carries_detail(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.run({"workload": "LLL99"})
        assert excinfo.value.status == 400
        assert excinfo.value.reason == "unknown_workload"


class TestTraceOverTheWire:
    def test_traced_run_returns_attribution(self, client):
        body = client.run_raw(
            {"workload": "LLL1", "trace": True,
             "config": {"window_size": 8}},
            max_attempts=8,
        )
        assert body["ok"] is True
        result = wire_to_result(body["result"])
        attribution = result.extra["attribution"]
        assert sum(attribution["buckets"].values()) == result.cycles
        assert attribution["buckets"].get("unaccounted", 0) == 0
        assert attribution["stall_events"] == {
            reason: count for reason, count in result.stalls.items()
        }

    def test_untraced_run_has_no_attribution(self, client):
        result = client.run(
            {"workload": "LLL1", "config": {"window_size": 8}},
            max_attempts=8,
        )
        assert "attribution" not in result.extra

    def test_oversized_trace_budget_is_400(self, client):
        status, _, body = client.request_json(
            "POST", "/run",
            {"workload": "LLL1", "trace": True,
             "config": {"max_cycles": 5_000_000}},
        )
        assert status == 400
        assert body["error"]["reason"] == "trace_too_large"
