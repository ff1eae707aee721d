"""Run the whole service stack on a background thread.

:func:`serve_in_background` embeds the :mod:`repro.serve.app` front end
and its :class:`~repro.serve.service.SimService` in this process, on an
ephemeral port, for the test suite and perfbench's ``serve`` workload.
The front end and ``asyncio`` are imported on the first call, so a
process that only imports this module does not load them.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Optional

from .service import SimService

if TYPE_CHECKING:
    import asyncio

    from .app import ServeApp


class ServerHandle:
    """A running server on a background thread."""

    def __init__(self, app: ServeApp, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop, port: int) -> None:
        self.app = app
        self.service = app.service
        self.thread = thread
        self.loop = loop
        self.port = port

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain, then stop the loop and join the thread."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.app.request_shutdown)
            self.thread.join(timeout)


def serve_in_background(host: str = "127.0.0.1", port: int = 0,
                        request_timeout: Optional[float] = None,
                        idle_timeout: float = 60.0,
                        **service_kwargs: Any) -> ServerHandle:
    """Start a full server on an ephemeral port; returns its handle.

    The handle exposes the bound ``port``, the underlying service (for
    white-box assertions), and ``stop()`` for a graceful drain.
    """
    import asyncio

    from .app import ServeApp

    service = SimService(**service_kwargs)
    app = ServeApp(service, request_timeout=request_timeout,
                   idle_timeout=idle_timeout)
    started = threading.Event()
    holder: Dict[str, Any] = {}

    def _main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop

        async def _run() -> None:
            server = await app.start(host, port)
            holder["port"] = server.sockets[0].getsockname()[1]
            started.set()
            await app._shutdown.wait()
            server.close()
            await server.wait_closed()
            await loop.run_in_executor(None, service.drain)
            await app._close_connections()

        try:
            loop.run_until_complete(_run())
        finally:
            loop.close()

    thread = threading.Thread(
        target=_main, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("server failed to start within 30s")
    return ServerHandle(app, thread, holder["loop"], holder["port"])
