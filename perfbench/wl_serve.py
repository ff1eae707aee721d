"""serve: an open loop at a fixed rate against an in-process
``serve_in_background(jobs=1, ...)`` server.

The mix is mostly unique few-instruction ``program`` requests (each a
cache miss plus a cache write, simulating in microseconds), a tenth
``workload`` requests whose points the set-up cached (hits), and a
twenty-fifth ``"trace": true`` requests.  The simulation is tiny next to
the round trip, so parsing, admission, the dispatcher, pool IPC, the
cache and JSON dominate.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import HostSpeed, Outcome, Tracer, clock, median, percentile, \
    point_key, ratio, result_sha
from repro.analysis.parallel import ParallelRunner, run_point
from repro.isa import assemble
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import canonical_result_bytes, parse_sim_request, \
    result_to_wire, wire_to_result
from repro.serve.server import serve_in_background
from repro.serve.service import SimService

#: Offered load, requests per second: under a third of the
#: one-connection capacity of the in-process server (~400/s on a 2-core
#: host), so that the host's slow spells do not tip it into queueing.
RATE = 120.0
#: Load-generator threads, hence at most this many open connections.
SENDERS = 2
#: (workload, window) points cached during set-up and requested by name.
HITS = (("LLL3", 12), ("LLL11", 12), ("LLL12", 12), ("LLL1", 12))
#: The open loop runs in segments this long; between two segments, once
#: the first has drained, a host-speed sample is taken (see
#: ``common.HostSpeed``) and the next segment's clock starts.
SEGMENT = 1.5
#: Requests per layer in the traced run's peel.
PEEL_REQUESTS = 200
CLIENT_TIMEOUT = 10.0

_PROGRAM_OPS = (
    "A_ADD A3, A1, A2",
    "A_SUB A4, A2, A1",
    "A_MUL A4, A1, A1",
    "A_ADDI A3, A3, 7",
    "S_IMM S1, 1.5",
    "MOV S2, A1",
    "S_ADD S3, S2, S2",
)


def request_payload(rng: random.Random, uid: int) -> Tuple[str, dict]:
    """(kind, payload) for request ``uid`` of a seeded mix.

    The class depends on ``uid`` alone, so every run has the same share
    of each; the contents depend on the seed.
    """
    if uid % 10 == 0:
        loop, window = HITS[rng.randrange(len(HITS))]
        return "hit", {"workload": loop, "config": {"window_size": window}}
    lines = [f"A_IMM A1, {uid}", f"A_IMM A2, {rng.randrange(1, 1000)}"]
    lines += rng.sample(_PROGRAM_OPS, rng.randrange(1, 4))
    payload = {"program": "\n".join(lines) + "\nHALT",
               "config": {"window_size": rng.choice((8, 12, 16))}}
    if uid % 25 == 7:
        payload["trace"] = True
        return "trace", payload
    return "program", payload


@dataclass
class Request:
    uid: int
    kind: str
    payload: dict
    segment: int
    due: float                     # seconds after its segment starts
    sent: Optional[float] = None
    late: Optional[float] = None   # sent minus due, seconds
    done: Optional[float] = None
    #: the response as JSON text: one string, not a tree of objects
    #: for the cyclic garbage collector of the measured process
    body: Optional[str] = None
    error: Optional[str] = None


@dataclass
class ServeState:
    handle: object
    client: ServeClient
    seed: int
    digest: Dict[str, str]
    scratch: object
    segments: List[List[Request]] = field(default_factory=list)


def schedule(seed: int, seconds: float,
             first_uid: int) -> List[List[Request]]:
    """``RATE * seconds`` arrivals of a Poisson process on [0, seconds),
    cut into ``SEGMENT``-second segments.  Given their number, Poisson
    arrival times are sorted uniforms."""
    rng = random.Random(seed * 1_000_003 + first_uid)
    count = max(1, round(RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    segments: List[List[Request]] = [
        [] for _ in range(int(dues[-1] // SEGMENT) + 1)]
    for offset, due in enumerate(dues):
        kind, payload = request_payload(rng, first_uid + offset)
        segment = int(due // SEGMENT)
        segments[segment].append(Request(
            first_uid + offset, kind, payload, segment,
            due - segment * SEGMENT))
    return [segment for segment in segments if segment]


def setup(ctx) -> ServeState:
    handle = serve_in_background(
        jobs=1, cache_dir=ctx.scratch.new_dir("serve-cache"),
        queue_depth=32, point_timeout=30.0,
    )
    client = ServeClient("127.0.0.1", handle.port, timeout=CLIENT_TIMEOUT)
    client.wait_ready()
    for loop, window in HITS:
        client.run_raw({"workload": loop,
                        "config": {"window_size": window}})
    return ServeState(handle=handle, client=client, seed=ctx.seed,
                      digest=ctx.digest["serve"], scratch=ctx.scratch,
                      segments=schedule(ctx.seed, ctx.seconds, first_uid=1))


def teardown(state: ServeState) -> None:
    state.handle.stop()


def open_loop(state: ServeState, requests: List[Request],
              tracer: Tracer = None) -> float:
    """Send every request at its due time from ``SENDERS`` threads;
    returns the loop's start on the benchmark clock."""
    lock = threading.Lock()
    pending = iter(requests)
    start = clock() + 0.01

    def sender() -> None:
        while True:
            with lock:
                request = next(pending, None)
            if request is None:
                return
            delay = start + request.due - clock()
            if delay > 0:
                time.sleep(delay)
            request.sent = clock()
            request.late = request.sent - start - request.due
            try:
                body = state.client.run_raw(request.payload)
            except ServeError as exc:
                request.error = f"HTTP {exc.status} {exc.reason}"
            except OSError as exc:
                request.error = f"connection error: {exc}"
            request.done = clock()
            if request.error is None:
                request.body = json.dumps(body)
            if tracer is not None:
                op = tracer.add("serve.request", start + request.due,
                                request.done, rid=request.uid)
                tracer.add("loadgen.wait", start + request.due,
                           request.sent, parent=op, rid=request.uid)
                tracer.add("serve.run_raw", request.sent, request.done,
                           parent=op, rid=request.uid)

    threads = [threading.Thread(target=sender, name=f"perfbench-send-{i}")
               for i in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start


def check(state: ServeState, outcome: Outcome,
          requests: List[Request]) -> None:
    """Failures and wrong answers, after the loop (not timed)."""
    workloads = state.handle.service.workloads
    for request in requests:
        outcome.attempted += 1
        label = f"request {request.uid} ({request.kind})"
        if request.body is None:
            outcome.fail(f"{label}: {request.error or 'unanswered'}")
            continue
        served = wire_to_result(json.loads(request.body)["result"])
        point = parse_sim_request(request.payload, workloads).point
        if request.kind == "hit":
            key = point_key(point.engine, point.workload.name,
                            point.config)
            if state.digest.get(key) != result_sha(served):
                outcome.fail(f"{label}: differs from the golden digest",
                             mismatch=True)
            continue
        if canonical_result_bytes(served) \
                != canonical_result_bytes(run_point(point)):
            outcome.fail(f"{label}: differs from the in-process run",
                         mismatch=True)
        elif request.kind == "trace" \
                and served.extra["attribution"]["buckets"].get(
                    "unaccounted", 0):
            outcome.fail(f"{label}: unaccounted cycles", mismatch=True)


def segmented_loop(state: ServeState, segments: List[List[Request]],
                   tracer: Tracer = None
                   ) -> Tuple[List[List[float]], float]:
    """Run every segment; returns, per segment kept, each request's
    latency from its due time in reference milliseconds (failures:
    infinite), and the summed wall time of all segments.  Failures in
    segments left out come back as one more segment."""
    speed = HostSpeed()
    speed.sample()
    window = 0.0
    dropped_failures = 0
    for requests in segments:
        start = open_loop(state, requests, tracer)
        window += max(request.done for request in requests) - start
        latencies = [
            request.done - start - request.due
            if request.body is not None else float("inf")
            for request in requests
        ]
        # At most half the segments may be left out for a change of
        # host speed; their failures still count as over any limit.
        if not speed.end_interval(
                latencies, speed.discarded < len(segments) // 2):
            dropped_failures += latencies.count(float("inf"))
    kept = [[seconds * 1e3 for seconds in segment]
            for segment in speed.reference_intervals()]
    if dropped_failures:
        kept.append([float("inf")] * dropped_failures)
    return kept, window


def pooled(segments: List[List[float]]) -> List[float]:
    return [latency for segment in segments for latency in segment]


def run(state: ServeState, seconds: float):
    """The open loop over the schedule set-up built for ``seconds``."""
    by_segment, window = segmented_loop(state, state.segments)
    latencies = pooled(by_segment)
    requests = [r for segment in state.segments for r in segment]
    outcome = Outcome()
    check(state, outcome, requests)
    served = [json.loads(r.body) for r in requests if r.body is not None]
    cold = [body for body in served if not body["cache_hit"]]
    return outcome, {
        "sim_inst_per_s": ratio(
            sum(body["result"]["instructions"] for body in cold), window),
        "cold_points_per_s": ratio(len(cold), window),
        "warm_points_per_s": ratio(len(served) - len(cold), window),
        "goodput_rps": ratio(len(served), window),
        "latency_p50_ms": bounded(percentile(latencies, 50.0)),
        # The tail of a typical segment: the median over segments of
        # each one's p99.  A pooled p99 rests on a few rare stalls and
        # moved by a third between seeds.
        "latency_p99_ms": bounded(median(
            [percentile(segment, 99.0) for segment in by_segment])),
    }, {"latency_samples": len(latencies), "segments": len(state.segments),
        "pooled_p99_ms": bounded(percentile(latencies, 99.0)),
        "late_ms_p99": percentile([r.late * 1e3 for r in requests], 99.0)}


def bounded(latency_ms: float) -> float:
    """A percentile that lands on a failed request reads as the client
    timeout (JSON has no infinity)."""
    return min(latency_ms, CLIENT_TIMEOUT * 1e3)


def scrape(client: ServeClient) -> Dict[str, float]:
    """Unlabelled counters and summed labelled ones from /metrics."""
    values: Dict[str, float] = {}
    for line in client.metrics_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def _delta(after: Dict[str, float], before: Dict[str, float],
           name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def peel(state: ServeState, tracer: Tracer) -> Dict[str, float]:
    """Per-layer p50s over one request mix, one layer at a time:
    HTTP round trip, ``SimService.submit``, a pooled runner,
    ``run_point``, and the parse/encode steps on their own."""
    rng = random.Random(state.seed)
    payloads = []
    uid = 10_000_000
    while len(payloads) < PEEL_REQUESTS:
        kind, payload = request_payload(rng, uid)
        uid += 1
        if kind == "program":
            payloads.append(payload)
    workloads = state.handle.service.workloads

    def timed(name, call, items):
        for item in items:
            span = tracer.open(name)
            call(item)
            tracer.close(span)
        return median(tracer.durations(name)) * 1e3

    start = clock()
    for payload in payloads:
        assemble(payload["program"], name="request")
    assemble_s = clock() - start

    parse_ms = timed("serve.parse",
                     lambda p: parse_sim_request(p, workloads), payloads)
    requests = [parse_sim_request(p, workloads) for p in payloads]
    sim_ms = timed("serve.sim", lambda r: run_point(r.point), requests)
    results = [run_point(r.point) for r in requests]
    encode_ms = timed(
        "serve.encode",
        lambda result: json.dumps({"ok": True,
                                   "result": result_to_wire(result)}).encode(),
        results)

    runner = ParallelRunner(jobs=1, cache_dir=state.scratch.new_dir("pool"),
                            timeout=30.0, serial_fallback=False,
                            reuse_pool=True)
    try:
        runner.run_points_settled([requests[0].point])  # start the worker
        pool_ms = timed("serve.pool",
                        lambda r: runner.run_points_settled([r.point]),
                        requests[1:])
    finally:
        runner.close()

    service = SimService(jobs=1, queue_depth=32, point_timeout=30.0,
                         cache_dir=state.scratch.new_dir("service"))
    service.start()
    try:
        service.submit(requests[0])[0].result(timeout=CLIENT_TIMEOUT)
        service_ms = timed(
            "serve.service",
            lambda r: service.submit(r)[0].result(timeout=CLIENT_TIMEOUT),
            requests[1:])
    finally:
        service.drain()

    # The open loops never sent these uids, so the server misses too.
    roundtrip_ms = timed("serve.roundtrip", state.client.run_raw,
                         payloads[1:])
    return {
        "isa.assemble_s": assemble_s,
        "serve.roundtrip_ms": roundtrip_ms,
        "serve.service_ms": service_ms,
        "serve.pool_ms": pool_ms,
        "serve.sim_ms": sim_ms,
        "serve.parse_ms": parse_ms,
        "serve.encode_ms": encode_ms,
        "serve.http_self_ms": roundtrip_ms - service_ms - parse_ms
        - encode_ms,
        "serve.service_self_ms": service_ms - pool_ms,
        "serve.pool_self_ms": pool_ms - sim_ms,
    }


def traced(ctx, tracer: Tracer) -> Tuple[Outcome, Dict[str, float]]:
    """serve layers: an untraced and a traced open loop (per-request
    spans, /metrics deltas), then the layer peel."""
    window = min(3.0, ctx.seconds)
    state = setup(ctx)
    try:
        outcome = Outcome()
        untraced = schedule(ctx.seed, window, first_uid=1)
        latencies, _ = segmented_loop(state, untraced)
        untraced_p50 = percentile(pooled(latencies), 50.0)
        check(state, outcome, [r for seg in untraced for r in seg])
        segments = schedule(ctx.seed, window, first_uid=1_000_000)
        before = scrape(state.client)
        latencies, _ = segmented_loop(state, segments, tracer)
        after = scrape(state.client)
        traced_p50 = percentile(pooled(latencies), 50.0)
        requests = [r for seg in segments for r in seg]
        check(state, outcome, requests)
        late = [r.late * 1e3 for r in requests]
        hits = _delta(after, before, "repro_serve_cache_hits_total")
        misses = _delta(after, before, "repro_serve_cache_misses_total")
        run_ok = 'repro_serve_requests_total{endpoint="/run",code="200"}'
        run_all = sum(
            _delta(after, before, name) for name in after
            if name.startswith('repro_serve_requests_total{endpoint="/run"'))
        metrics = {
            "serve.rejected_429": _delta(
                after, before,
                'repro_serve_requests_total{endpoint="/run",code="429"}'),
            "serve.errors": run_all - _delta(after, before, run_ok),
            "serve.coalesced": _delta(after, before,
                                      "repro_serve_coalesced_total"),
            "serve.batches": _delta(after, before,
                                    "repro_serve_batches_total"),
            "serve.cache_hit_rate": ratio(hits, hits + misses),
            "loadgen.late_ms_p99": percentile(late, 99.0),
            "account.serve.remainder_share":
                tracer.remainder_share("serve.request"),
            "account.serve.overhead": ratio(traced_p50, untraced_p50) - 1.0,
        }
        metrics.update(peel(state, tracer))
    finally:
        teardown(state)
    return outcome, metrics

