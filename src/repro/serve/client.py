"""Blocking client for the simulation service.

A thin ``http.client`` wrapper (stdlib only) speaking the protocol in
:mod:`repro.serve.protocol`.  Results come back as real
:class:`~repro.machine.stats.SimResult` objects via the wire
deserializer, so client code is indifferent to whether a point ran
locally or over the network.

Backpressure handling is built in: a 429 raises
:class:`Backpressure` carrying the server's ``Retry-After`` hint, and
the ``run``/``run_batch`` helpers optionally honor it with bounded
retries -- the intended client-side half of the admission-control
contract.

.. code-block:: python

    client = ServeClient("127.0.0.1", 8642)
    client.wait_ready()
    result = client.run({"workload": "LLL3",
                         "config": {"window_size": 8}})
    print(result.ipc())
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple

from ..machine.stats import SimResult
from .protocol import wire_to_result


class ServeError(Exception):
    """A non-2xx response from the service.

    ``status`` is the HTTP code; ``reason`` and ``detail`` hold the
    machine-readable error body (when the server sent one).
    """

    def __init__(self, status: int, reason: str, message: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(f"HTTP {status} [{reason}]: {message}")
        self.status = status
        self.reason = reason
        self.message = message
        self.detail = detail or {}


class Backpressure(ServeError):
    """HTTP 429: the admission queue is full; retry after a delay."""

    def __init__(self, retry_after: int,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(429, "busy",
                         f"server busy; retry after {retry_after}s",
                         detail)
        self.retry_after = retry_after


class ServeClient:
    """One connection-per-request blocking client."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    # raw transport
    # ------------------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange; returns (status, headers, body bytes)."""
        # Deferred: ``http.client`` pulls in ``ssl`` and ``email``,
        # which processes that import but never call the client skip.
        import http.client

        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            lowered = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return response.status, lowered, data
        finally:
            conn.close()

    def request_json(self, method: str, path: str,
                     payload: Optional[Dict[str, Any]] = None
                     ) -> Tuple[int, Dict[str, str], Any]:
        status, headers, data = self.request(method, path, payload)
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"raw": data.decode("latin-1")}
        return status, headers, decoded

    @staticmethod
    def _raise_for_error(status: int, headers: Dict[str, str],
                         body: Any) -> None:
        error = body.get("error", {}) if isinstance(body, dict) else {}
        if status == 429:
            retry_after = int(
                headers.get("retry-after",
                            str(error.get("retry_after", 1)))
            )
            raise Backpressure(retry_after, detail=error)
        raise ServeError(
            status,
            str(error.get("reason", "error")),
            str(error.get("message", f"HTTP {status}")),
            detail=error,
        )

    # ------------------------------------------------------------------
    # simulation calls
    # ------------------------------------------------------------------

    def run_raw(self, request: Dict[str, Any],
                max_attempts: int = 1,
                backoff_cap: float = 5.0) -> Dict[str, Any]:
        """POST /run; returns the raw response entry.

        With ``max_attempts > 1``, 429s are retried after the server's
        ``Retry-After`` hint (capped at ``backoff_cap`` seconds so
        tests stay fast).  Other errors raise immediately.
        """
        attempt = 0
        while True:
            attempt += 1
            status, headers, body = self.request_json(
                "POST", "/run", request
            )
            if status == 200:
                return body
            if status == 429 and attempt < max_attempts:
                retry_after = min(
                    backoff_cap,
                    float(headers.get("retry-after", "1")),
                )
                time.sleep(max(0.05, retry_after))
                continue
            self._raise_for_error(status, headers, body)

    def run(self, request: Dict[str, Any],
            max_attempts: int = 1,
            backoff_cap: float = 5.0) -> SimResult:
        """POST /run; returns the reconstructed :class:`SimResult`."""
        body = self.run_raw(request, max_attempts, backoff_cap)
        return wire_to_result(body["result"])

    def run_batch(self, requests: List[Dict[str, Any]],
                  max_attempts: int = 1,
                  backoff_cap: float = 5.0) -> List[Dict[str, Any]]:
        """POST /batch; returns the per-item entry list.

        Items are dicts: ``{"ok": True, "result": ...}`` or
        ``{"ok": False, "error": ...}`` -- per-item failures do not
        raise, matching the batch semantics.
        """
        attempt = 0
        while True:
            attempt += 1
            status, headers, body = self.request_json(
                "POST", "/batch", {"requests": requests}
            )
            if status == 200:
                return body["results"]
            if status == 429 and attempt < max_attempts:
                retry_after = min(
                    backoff_cap,
                    float(headers.get("retry-after", "1")),
                )
                time.sleep(max(0.05, retry_after))
                continue
            self._raise_for_error(status, headers, body)

    # ------------------------------------------------------------------
    # observability calls
    # ------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        status, headers, body = self.request_json("GET", "/healthz")
        if status != 200:
            self._raise_for_error(status, headers, body)
        return body

    def metrics_text(self) -> str:
        status, _, data = self.request("GET", "/metrics")
        if status != 200:
            raise ServeError(status, "error", "metrics unavailable")
        return data.decode("utf-8")

    def wait_ready(self, timeout: float = 30.0,
                   interval: float = 0.1) -> Dict[str, Any]:
        """Poll /healthz until the service answers or time runs out."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (OSError, ServeError) as exc:
                last_error = exc
                time.sleep(interval)
        raise TimeoutError(
            f"service at {self.host}:{self.port} not ready within "
            f"{timeout}s: {last_error}"
        )
