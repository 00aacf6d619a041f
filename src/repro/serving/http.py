"""A minimal stdlib asyncio HTTP/1.1 server base for JSON endpoints.

:class:`JsonHttpServer` is the plumbing half of what used to live inside
:class:`~repro.serving.server.InferenceServer`: request parsing with header
and body limits, keep-alive connection handling, JSON response encoding,
graceful drain on shutdown, and the ``serve()`` / ``start_in_thread()``
lifecycle.  Subclasses implement one coroutine::

    async def _dispatch(self, method, path, body) -> (status, payload)

and may override the narrow hooks (``_clock``, ``_record_request``,
``_on_drain``, ``_startup_message``) to attach stats or drain extra
machinery.  Both the inference server and the distributed campaign worker
(:mod:`repro.distributed.worker`) are built on this class, so they share
one tested implementation of the wire protocol.  The startup line (which
names ``http://HOST:PORT``) and ``server stopped`` are logged at INFO.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

logger = logging.getLogger(__name__)

#: Request bodies above this are refused with 413 (a DoS guard, not a limit
#: any legitimate block corpus approaches).
MAX_BODY_BYTES = 8 << 20

#: Longest request line / header section we accept.
MAX_HEADER_BYTES = 64 << 10

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServingError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServerHandle:
    """A running server on a background thread (see ``start_in_thread``)."""

    def __init__(self, server: "JsonHttpServer",
                 thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Request graceful shutdown and wait for the server thread."""
        self.server.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop within "
                               f"{timeout} seconds")


class JsonHttpServer:
    """Asyncio TCP server speaking just enough HTTP/1.1 for JSON endpoints."""

    #: Thread name used by :meth:`start_in_thread`.
    thread_name = "repro-http"

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8000,
                 drain_seconds: float = 10.0) -> None:
        self.host = host
        self.requested_port = port
        #: The bound port — equals ``requested_port`` unless that was 0
        #: (ephemeral); set once the listening socket exists.
        self.port: Optional[int] = None
        #: How long shutdown waits for in-flight requests before closing
        #: their connections anyway.
        self.drain_seconds = drain_seconds
        self._draining = False
        self._active_requests = 0
        self._connections: Set[asyncio.StreamWriter] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, Dict[str, Any]]:
        raise NotImplementedError

    def _clock(self) -> float:
        """Monotonic clock used for per-request timing (stats hook)."""
        return time.perf_counter()

    def _record_request(self, path: str, seconds: float,
                        payload: Any, status: int) -> None:
        """Called once per handled request; default is a no-op."""

    async def _on_drain(self) -> None:
        """Called during shutdown after the listener closes; default no-op."""

    def _startup_message(self) -> str:
        return f"listening on http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """One HTTP/1.1 request, or ``None`` on clean EOF between requests."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise ServingError(400, "truncated HTTP request")
        except asyncio.LimitOverrunError:
            raise ServingError(400, "request headers too large")
        if len(head) > MAX_HEADER_BYTES:
            raise ServingError(400, "request headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise ServingError(400, f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _separator, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServingError(400, "malformed Content-Length header")
        if content_length > MAX_BODY_BYTES:
            raise ServingError(
                413, f"request body of {content_length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit")
        body = (await reader.readexactly(content_length)
                if content_length else b"")
        return method, path.split("?", 1)[0], headers, body

    @staticmethod
    def _encode_response(status: int, payload: Dict[str, Any],
                         keep_alive: bool) -> bytes:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                f"\r\n")
        return head.encode("latin-1") + body

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServingError as error:
                    writer.write(self._encode_response(
                        error.status, {"error": str(error)}, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (headers.get("connection", "keep-alive").lower()
                              != "close")
                self._active_requests += 1
                started = self._clock()
                try:
                    status, payload = await self._dispatch(method, path, body)
                except Exception as error:  # noqa: BLE001 - last-resort 500
                    status, payload = 500, {"error": f"internal error: {error}"}
                finally:
                    self._active_requests -= 1
                self._record_request(path, self._clock() - started,
                                     payload, status)
                if self._draining:
                    keep_alive = False
                writer.write(self._encode_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels the handler mid-request.  Nothing awaits this
            # task, and Python 3.11's stream server logs a handler task that
            # ends cancelled as an asyncio ERROR, so it ends normally here.
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # CancelledError here means the loop is tearing the handler
                # down during shutdown; the connection is closed either way.
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Trigger graceful shutdown (safe to call from any thread)."""
        loop, stop_event = self._loop, self._stop_event
        if loop is None or stop_event is None:
            return
        if loop.is_running():
            loop.call_soon_threadsafe(stop_event.set)

    async def _serve_async(
            self, ready: Optional[threading.Event] = None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port)
        self.port = server.sockets[0].getsockname()[1]
        if threading.current_thread() is threading.main_thread():
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(signum,
                                                  self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    break
        logger.info(self._startup_message())
        if ready is not None:
            ready.set()
        try:
            await self._stop_event.wait()
        finally:
            # Graceful shutdown: stop accepting, finish everything already
            # submitted (up to drain_seconds), then close connections.
            self._draining = True
            server.close()
            await server.wait_closed()
            await self._on_drain()
            deadline = self._loop.time() + self.drain_seconds
            while self._active_requests > 0 and self._loop.time() < deadline:
                await asyncio.sleep(0.005)
            for writer in list(self._connections):
                writer.close()
            logger.info("server stopped")

    def serve(self) -> None:
        """Run the server on this thread until SIGINT/SIGTERM (blocking)."""
        try:
            asyncio.run(self._serve_async())
        except KeyboardInterrupt:
            pass

    def start_in_thread(self) -> ServerHandle:
        """Run the server on a daemon thread; returns once the port is bound."""
        ready = threading.Event()

        def _run() -> None:
            try:
                asyncio.run(self._serve_async(ready))
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._startup_error = error
            finally:
                ready.set()

        thread = threading.Thread(target=_run, name=self.thread_name,
                                  daemon=True)
        thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError("server did not start within 30 seconds")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}")
        return ServerHandle(self, thread)
