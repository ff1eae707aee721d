"""Asyncio JSON-over-HTTP front end for the simulation service.

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams
(stdlib only -- no web framework), serving four endpoints:

* ``POST /run``    -- one simulation request -> one result;
* ``POST /batch``  -- ``{"requests": [...]}`` -> per-item results
  (invalid or failing items settle individually; they never poison the
  batch);
* ``GET /healthz`` -- liveness + version + queue snapshot;
* ``GET /metrics`` -- Prometheus text format.

Status mapping: protocol violations are **400** with a machine-readable
reason; a full admission queue is **429** with ``Retry-After``; a batch
with more distinct points than the service's total admission capacity
is **413** (it could never be admitted, so retrying is pointless); a
simulation that *runs and fails* (deadlock, engine fault) is **422**
with the :class:`~repro.machine.diagnostics.EngineDiagnostic` JSON in
the error body; drain mode is **503**; an expired request deadline is
**504**.  5xx responses otherwise indicate server bugs -- the load
generator's zero-5xx gate leans on this.

Shutdown: SIGTERM/SIGINT flips the service into drain mode (new work is
refused, queued work finishes, the worker pool is released) before the
loop stops -- ``kill -TERM`` on a busy server loses no admitted work.

Every request emits one structured (JSON) access-log line on the
``repro.serve.access`` logger.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from ..version import get_version
from .protocol import (
    LIMITS,
    ProtocolError,
    SimRequest,
    parse_batch,
    parse_sim_request,
    result_to_wire,
)
from .service import (
    BatchOverCapacity,
    ServiceBusy,
    ServiceDraining,
    SimService,
)

access_log = logging.getLogger("repro.serve.access")

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Hard bounds on the request head, so a client that stalls or dribbles
#: after the request line (slowloris) cannot hold a handler forever or
#: grow the header dict without bound.
_MAX_HEADER_BYTES = 16_384
_MAX_HEADER_COUNT = 100

#: Endpoint label values for metrics (unknown paths collapse to
#: "other" so a path-scanning client cannot explode label cardinality).
_KNOWN_ENDPOINTS = ("/run", "/batch", "/healthz", "/metrics")


class _Response:
    """One HTTP response plus the access-log annotations."""

    def __init__(self, status: int, body: bytes,
                 content_type: str = "application/json",
                 headers: Optional[List[Tuple[str, str]]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or []
        self.meta = meta or {}


def _json_response(status: int, payload: Dict[str, Any],
                   headers: Optional[List[Tuple[str, str]]] = None,
                   meta: Optional[Dict[str, Any]] = None) -> _Response:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _Response(status, body, "application/json", headers, meta)


def _error_response(status: int, reason: str, message: str,
                    headers: Optional[List[Tuple[str, str]]] = None,
                    **detail: Any) -> _Response:
    error: Dict[str, Any] = {"reason": reason, "message": message}
    error.update(detail)
    return _json_response(
        status, {"ok": False, "error": error}, headers,
        meta={"error": reason},
    )


class ServeApp:
    """HTTP front end bound to one :class:`SimService`."""

    def __init__(self, service: SimService,
                 request_timeout: Optional[float] = None,
                 idle_timeout: float = 60.0) -> None:
        self.service = service
        self.version = get_version()
        self.idle_timeout = idle_timeout
        if request_timeout is None and service.runner.timeout:
            # A request can outlive one point attempt by the retry
            # budget; past that the dispatcher has already failed it.
            request_timeout = (
                service.runner.timeout
                * (service.runner.max_retries + 2) + 30.0
            )
        self.request_timeout = request_timeout
        self._shutdown = asyncio.Event()
        self._conn_tasks: set = set()
        registry = service.metrics
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "HTTP requests, by endpoint and status code",
            ("endpoint", "code"),
        )
        self._m_latency = registry.histogram(
            "repro_serve_request_seconds",
            "HTTP request latency in seconds",
            ("endpoint",),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        self.service.start()
        return await asyncio.start_server(self._handle_conn, host, port)

    async def _close_connections(self) -> None:
        """Cancel idle keep-alive connection handlers at shutdown."""
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def run(self, host: str, port: int,
                  install_signals: bool = True,
                  ready_message: bool = True) -> int:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        server = await self.start(host, port)
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support
        bound = server.sockets[0].getsockname()
        if ready_message:
            print(
                f"repro serve {self.version}: listening on "
                f"{bound[0]}:{bound[1]} "
                f"(jobs={self.service.jobs}, "
                f"queue={self.service.admission.capacity})",
                flush=True,
            )
        await self._shutdown.wait()
        server.close()
        await server.wait_closed()
        drained = await loop.run_in_executor(None, self.service.drain)
        await self._close_connections()
        if ready_message:
            print(
                "repro serve: drained"
                if drained else "repro serve: drain timed out",
                flush=True,
            )
        return 0 if drained else 1

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        remote = f"{peer[0]}:{peer[1]}" if peer else "?"
        task = asyncio.current_task()
        if task is not None:
            # Tracked until done, close included, so that shutdown
            # cancels and awaits a handler still closing its socket.
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer, remote)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    @staticmethod
    async def _discard_body(reader: asyncio.StreamReader,
                            length: int,
                            cap: int = 16_000_000) -> None:
        """Read and drop up to ``cap`` bytes of a rejected body."""
        remaining = min(length, cap) if length > 0 else cap
        try:
            while remaining > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(65536, remaining)), 5.0
                )
                if not chunk:
                    break
                remaining -= len(chunk)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter,
                          remote: str) -> bool:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), self.idle_timeout
            )
        except asyncio.TimeoutError:
            return False
        if not request_line.strip():
            return False
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._write(
                writer, _error_response(
                    400, "bad_request", "malformed request line",
                ), close=True,
            )
            return False
        method, target, http_version = parts
        # The whole request head reads under the idle deadline, and
        # within hard size/count caps: a client that stalls mid-headers
        # or streams headers forever is cut off, not waited on.
        headers: Dict[str, str] = {}
        header_bytes = 0
        try:
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), self.idle_timeout
                )
                if line in (b"\r\n", b"\n", b""):
                    break
                header_bytes += len(line)
                if header_bytes > _MAX_HEADER_BYTES \
                        or len(headers) >= _MAX_HEADER_COUNT:
                    await self._write(
                        writer, _error_response(
                            400, "headers_too_large",
                            f"request headers exceed "
                            f"{_MAX_HEADER_COUNT} lines / "
                            f"{_MAX_HEADER_BYTES} bytes",
                        ), close=True,
                    )
                    return False
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except asyncio.TimeoutError:
            return False
        path = target.split("?", 1)[0]
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        started = time.perf_counter()
        oversized = length > LIMITS["max_body_bytes"] or length < 0
        if oversized:
            # Drain (bounded) what the client already sent, so it can
            # finish writing and actually read the 400 instead of
            # dying on a broken pipe.
            await self._discard_body(reader, length)
            response = _error_response(
                400, "body_too_large",
                f"request body exceeds "
                f"{LIMITS['max_body_bytes']} bytes",
                limit=LIMITS["max_body_bytes"], got=length,
            )
            body = b""
        else:
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), self.idle_timeout
                    )
                except asyncio.TimeoutError:
                    return False
            else:
                body = b""
            try:
                response = await self._dispatch(method, path, body)
            except Exception as exc:  # noqa: BLE001 - last-resort guard
                logging.getLogger("repro.serve").exception(
                    "handler error for %s %s", method, path
                )
                response = _error_response(
                    500, "internal_error",
                    f"{type(exc).__name__}: {exc}",
                )
        duration = time.perf_counter() - started
        wants_close = (
            headers.get("connection", "").lower() == "close"
            or http_version.upper() == "HTTP/1.0"
            or oversized
        )
        await self._write(writer, response, close=wants_close)
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        self._m_requests.inc(endpoint=endpoint, code=str(response.status))
        self._m_latency.observe(duration, endpoint=endpoint)
        self._access_log(remote, method, path, response,
                         len(body), duration)
        return not wants_close

    async def _write(self, writer: asyncio.StreamWriter,
                     response: _Response, close: bool) -> None:
        head = [
            f"HTTP/1.1 {response.status} "
            f"{_STATUS_TEXT.get(response.status, 'Unknown')}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        head += [f"{name}: {value}" for name, value in response.headers]
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
            + response.body
        )
        await writer.drain()

    def _access_log(self, remote: str, method: str, path: str,
                    response: _Response, bytes_in: int,
                    duration: float) -> None:
        record = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "remote": remote,
            "method": method,
            "path": path,
            "status": response.status,
            "ms": round(duration * 1000.0, 3),
            "bytes_in": bytes_in,
            "bytes_out": len(response.body),
        }
        record.update(response.meta)
        access_log.info(json.dumps(record, sort_keys=True))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> _Response:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._metrics()
        if path == "/run":
            if method != "POST":
                return self._method_not_allowed("POST")
            return await self._run_single(body)
        if path == "/batch":
            if method != "POST":
                return self._method_not_allowed("POST")
            return await self._run_batch(body)
        return _error_response(
            404, "not_found", f"no such endpoint: {path}",
        )

    @staticmethod
    def _method_not_allowed(allowed: str) -> _Response:
        return _error_response(
            405, "method_not_allowed",
            f"only {allowed} is supported here",
            headers=[("Allow", allowed)],
        )

    def _healthz(self) -> _Response:
        payload = self.service.health()
        payload["version"] = self.version
        return _json_response(200, payload)

    def _metrics(self) -> _Response:
        self.service.sync_fleet_metrics()
        text = self.service.metrics.render()
        return _Response(
            200, text.encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    # ------------------------------------------------------------------
    # simulation endpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                "bad_json", f"request body is not valid JSON: {exc}",
            ) from None

    async def _await_outcome(self, future: Any,
                             timeout: Optional[float] = None):
        """Await a dispatcher future under a deadline, without owning it.

        The shield matters: the concurrent future is settled by the
        dispatcher thread and may be shared by coalesced followers.
        ``wait_for`` cancels on timeout, and ``wrap_future`` chains
        that cancellation back into the (always-pending) concurrent
        future -- which would make the dispatcher's ``set_result``
        raise and abort every other waiter of the point.  Shielding
        confines the timeout to this waiter alone.
        """
        if timeout is None:
            timeout = self.request_timeout
        return await asyncio.wait_for(
            asyncio.shield(asyncio.wrap_future(future)), timeout
        )

    @staticmethod
    def _outcome_entry(outcome: Any, coalesced: bool,
                       request: SimRequest) -> Dict[str, Any]:
        """The wire entry of ``request``'s settled ``outcome``.

        Coalesced followers share their leader's outcome, and programs
        that differ only in name share a point, so the entry carries
        the requesting program's own name.  The wire form is a fresh
        mapping: the shared result is never touched.
        """
        if outcome.ok:
            result = result_to_wire(outcome.result)
            result["workload"] = request.point.workload.program.name
            return {
                "ok": True,
                "result": result,
                "cache_hit": outcome.cache_hit,
                "coalesced": coalesced,
                "attempts": outcome.attempts,
            }
        error: Dict[str, Any] = {
            "reason": "simulation_failed",
            "message": outcome.error or "unknown failure",
        }
        if outcome.diagnostic is not None:
            error["diagnostic"] = outcome.diagnostic
        return {"ok": False, "error": error}

    async def _run_single(self, body: bytes) -> _Response:
        try:
            payload = self._parse_json(body)
            request = parse_sim_request(payload, self.service.workloads)
        except ProtocolError as exc:
            return _json_response(
                400, {"ok": False, "error": exc.to_json()},
                meta={"error": exc.reason},
            )
        try:
            future, coalesced = self.service.submit(request)
        except ServiceBusy as busy:
            return _error_response(
                429, "busy",
                str(busy),
                headers=[("Retry-After", str(busy.retry_after))],
                retry_after=busy.retry_after,
            )
        except ServiceDraining:
            return _error_response(
                503, "draining", "service is draining; no new work",
            )
        try:
            outcome = await self._await_outcome(future)
        except asyncio.TimeoutError:
            return _error_response(
                504, "request_timeout",
                "the simulation did not settle within the request "
                "deadline",
            )
        entry = self._outcome_entry(outcome, coalesced, request)
        meta = {
            "coalesced": coalesced,
            "cache_hit": bool(entry.get("cache_hit")),
            "engine": request.point.engine,
            "workload": request.point.workload.name,
        }
        if entry["ok"]:
            return _json_response(200, entry, meta=meta)
        meta["error"] = "simulation_failed"
        return _json_response(422, entry, meta=meta)

    async def _run_batch(self, body: bytes) -> _Response:
        try:
            payload = self._parse_json(body)
            items = parse_batch(payload)
        except ProtocolError as exc:
            return _json_response(
                400, {"ok": False, "error": exc.to_json()},
                meta={"error": exc.reason},
            )
        entries: List[Optional[Dict[str, Any]]] = [None] * len(items)
        valid: List[Tuple[int, Any]] = []
        for index, item in enumerate(items):
            try:
                valid.append(
                    (index,
                     parse_sim_request(item, self.service.workloads))
                )
            except ProtocolError as exc:
                entries[index] = {"ok": False, "error": exc.to_json()}
        submissions: List[Tuple[int, SimRequest, Any, bool]] = []
        if valid:
            try:
                futures = self.service.submit_many(
                    [request for _, request in valid]
                )
            except ServiceBusy as busy:
                return _error_response(
                    429, "busy", str(busy),
                    headers=[("Retry-After", str(busy.retry_after))],
                    retry_after=busy.retry_after,
                )
            except BatchOverCapacity as exc:
                return _error_response(
                    413, "batch_exceeds_capacity", str(exc),
                    fresh_points=exc.fresh, capacity=exc.capacity,
                )
            except ServiceDraining:
                return _error_response(
                    503, "draining", "service is draining; no new work",
                )
            submissions = [
                (index, request, future, coalesced)
                for (index, request), (future, coalesced)
                in zip(valid, futures)
            ]
        # One deadline for the whole batch: each item awaits only the
        # time the batch has left, so the worst case is one request
        # timeout, not one per item.
        deadline = (
            time.monotonic() + self.request_timeout
            if self.request_timeout is not None else None
        )
        for index, request, future, coalesced in submissions:
            remaining = (
                max(0.0, deadline - time.monotonic())
                if deadline is not None else None
            )
            try:
                outcome = await self._await_outcome(
                    future, timeout=remaining
                )
            except asyncio.TimeoutError:
                entries[index] = {
                    "ok": False,
                    "error": {
                        "reason": "request_timeout",
                        "message": "point did not settle in time",
                    },
                }
                continue
            entries[index] = self._outcome_entry(
                outcome, coalesced, request
            )
        n_ok = sum(1 for entry in entries if entry and entry["ok"])
        return _json_response(
            200,
            {
                "ok": n_ok == len(entries),
                "results": entries,
                "n_ok": n_ok,
                "n_error": len(entries) - n_ok,
            },
            meta={"points": len(entries), "ok_points": n_ok},
        )
