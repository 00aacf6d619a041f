"""Pluggable cell executors for matrix campaigns.

An executor turns cell tasks (:mod:`repro.distributed.cells`) into running
work and hands back :class:`CellHandle`\\ s the scheduler polls.  Three are
built in, registered in :data:`repro.api.registries.EXECUTORS` under the
entry-point group ``repro.executors`` (third parties can add, say, a
cluster-queue executor without touching this repository):

* ``inline`` — run each cell synchronously in-process; the reference
  executor every other one must agree with byte-for-byte;
* ``pool`` — one OS process per in-flight cell (fork-preferring, like the
  engine's pool), up to ``spec.workers`` at a time;
* ``remote`` — POST each cell to a ``repro worker`` HTTP endpoint
  (:mod:`repro.distributed.worker`), one in-flight cell per worker URL,
  with ``/healthz`` heartbeats so a dead worker is detected even while the
  request is still blocked.

Every failure mode — a raising campaign, a worker process dying without a
result, a remote worker disconnecting mid-cell, a scheduler-side cancel —
surfaces as the same plain *outcome* dict ``execute_cell`` would have
returned (``status: "error"``), so the scheduler's retry/ledger logic never
special-cases the transport.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import urlparse

from repro.api.registries import EXECUTORS
from repro.distributed.cells import execute_cell
from repro.engine.engine import process_context


def _error_outcome(task: Dict[str, Any], message: str,
                   traceback_text: Optional[str] = None) -> Dict[str, Any]:
    """A transport-level failure shaped exactly like an execution failure."""
    return {"status": "error", "cell": task.get("cell", "?"),
            "attempt": int(task.get("attempt", 1)), "error": message,
            "traceback": traceback_text, "elapsed_seconds": 0.0}


class CellHandle:
    """One in-flight cell attempt; poll until an outcome dict appears."""

    def __init__(self, task: Dict[str, Any]) -> None:
        self.task = task

    def poll(self) -> Optional[Dict[str, Any]]:
        """The outcome dict once the attempt finished, else ``None``."""
        raise NotImplementedError

    def cancel(self, reason: str) -> Dict[str, Any]:
        """Abort the attempt (e.g. timeout); returns the error outcome."""
        raise NotImplementedError


class CellExecutor:
    """Runs cell tasks; ``capacity`` bounds concurrently in-flight cells."""

    capacity: int = 1

    def submit(self, task: Dict[str, Any]) -> CellHandle:
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (idempotent)."""


# ----------------------------------------------------------------------
# Inline
# ----------------------------------------------------------------------
class _InlineHandle(CellHandle):
    def __init__(self, task: Dict[str, Any]) -> None:
        super().__init__(task)
        self._outcome = execute_cell(task)

    def poll(self) -> Optional[Dict[str, Any]]:
        return self._outcome

    def cancel(self, reason: str) -> Dict[str, Any]:
        return self._outcome  # already finished by construction


class InlineExecutor(CellExecutor):
    """Synchronous in-process execution, one cell at a time."""

    capacity = 1

    def submit(self, task: Dict[str, Any]) -> CellHandle:
        return _InlineHandle(task)


# ----------------------------------------------------------------------
# Local process pool
# ----------------------------------------------------------------------
def _cell_entry(connection: Any, task: Dict[str, Any]) -> None:
    """Child-process entry point (module-level: picklable under spawn)."""
    try:
        connection.send(execute_cell(task))
    finally:
        connection.close()


class _ProcessHandle(CellHandle):
    def __init__(self, task: Dict[str, Any], context: Any) -> None:
        super().__init__(task)
        self._parent, child = context.Pipe(duplex=False)
        self._process = context.Process(target=_cell_entry, args=(child, task),
                                        daemon=True)
        self._process.start()
        child.close()
        self._outcome: Optional[Dict[str, Any]] = None

    def poll(self) -> Optional[Dict[str, Any]]:
        if self._outcome is not None:
            return self._outcome
        if self._parent.poll(0):
            try:
                self._outcome = self._parent.recv()
            except EOFError:
                self._outcome = _error_outcome(
                    self.task, "CellProcessDied: worker process closed the "
                               "result pipe without sending an outcome")
            self._finalize()
            return self._outcome
        if not self._process.is_alive():
            # Died between our last poll and now without writing a result
            # (e.g. killed by the OS); exit code is all we have.
            self._outcome = _error_outcome(
                self.task, f"CellProcessDied: worker process exited with "
                           f"code {self._process.exitcode} before reporting "
                           f"an outcome")
            self._finalize()
            return self._outcome
        return None

    def cancel(self, reason: str) -> Dict[str, Any]:
        if self._outcome is None:
            if self._process.is_alive():
                self._process.terminate()
            self._outcome = _error_outcome(
                self.task, f"CellCancelled: {reason}")
            self._finalize()
        return self._outcome

    def _finalize(self) -> None:
        self._process.join(timeout=5.0)
        self._parent.close()


class ProcessCellExecutor(CellExecutor):
    """One forked OS process per in-flight cell, ``workers`` at a time."""

    def __init__(self, workers: int) -> None:
        self._context = process_context()
        self.capacity = max(1, int(workers))

    def submit(self, task: Dict[str, Any]) -> CellHandle:
        return _ProcessHandle(task, self._context)


# ----------------------------------------------------------------------
# Remote workers
# ----------------------------------------------------------------------
class WorkerClient:
    """Minimal stdlib HTTP client for one ``repro worker`` endpoint."""

    def __init__(self, url: str, timeout: Optional[float] = None) -> None:
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http") or parsed.hostname is None:
            raise ValueError(f"worker URL must be http://host:port, got {url!r}")
        self.url = url
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout

    def request(self, method: str, path: str, payload: Any = None,
                timeout: Optional[float] = None) -> Dict[str, Any]:
        import http.client

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout)
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            decoded = json.loads(data.decode()) if data else {}
            if response.status >= 400:
                raise RuntimeError(
                    f"worker {self.url} returned {response.status}: "
                    f"{decoded.get('error', data.decode()[:200])}")
            return decoded
        finally:
            connection.close()

    def healthy(self, timeout: float = 2.0) -> bool:
        try:
            return self.request("GET", "/healthz",
                                timeout=timeout).get("status") == "ok"
        except Exception:  # noqa: BLE001 - liveness probe
            return False


class _RemoteHandle(CellHandle):
    def __init__(self, task: Dict[str, Any], client: WorkerClient,
                 heartbeat_seconds: float,
                 release: Callable[[str], None]) -> None:
        super().__init__(task)
        self._client = client
        self._heartbeat_seconds = heartbeat_seconds
        self._release = release
        self._released = False
        self._lock = threading.Lock()
        self._result: Optional[Dict[str, Any]] = None
        self._outcome: Optional[Dict[str, Any]] = None
        self._last_heartbeat = time.monotonic()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro-matrix-{task['cell']}")
        self._thread.start()

    def _run(self) -> None:
        try:
            result = self._client.request("POST", "/run", self.task)
        except Exception as error:  # noqa: BLE001 - transport failure as data
            result = _error_outcome(
                self.task, f"WorkerUnreachable: {self._client.url}: "
                           f"{type(error).__name__}: {error}")
        with self._lock:
            self._result = result

    def poll(self) -> Optional[Dict[str, Any]]:
        if self._outcome is not None:
            return self._outcome
        with self._lock:
            result = self._result
        if result is not None:
            self._outcome = result
            self._finish()
            return self._outcome
        # The POST blocks for the whole cell; a worker that died after
        # accepting it may leave the socket half-open for a long time, so
        # probe liveness out of band while the request is in flight.
        now = time.monotonic()
        if now - self._last_heartbeat >= self._heartbeat_seconds:
            self._last_heartbeat = now
            if not self._client.healthy():
                self._outcome = _error_outcome(
                    self.task, f"WorkerUnreachable: {self._client.url} "
                               f"stopped answering /healthz mid-cell")
                self._finish()
                return self._outcome
        return None

    def cancel(self, reason: str) -> Dict[str, Any]:
        if self._outcome is None:
            self._outcome = _error_outcome(
                self.task, f"CellCancelled: {reason}")
            self._finish()
        return self._outcome

    def _finish(self) -> None:
        if not self._released:
            self._released = True
            self._release(self._client.url)


class RemoteExecutor(CellExecutor):
    """Dispatch cells to ``repro worker`` endpoints, one in-flight each."""

    def __init__(self, worker_urls: List[str],
                 heartbeat_seconds: float = 5.0) -> None:
        if not worker_urls:
            raise ValueError("RemoteExecutor needs at least one worker URL")
        self._clients = {url: WorkerClient(url) for url in worker_urls}
        self._free: List[str] = list(worker_urls)
        self._heartbeat_seconds = heartbeat_seconds
        self.capacity = len(worker_urls)

    def submit(self, task: Dict[str, Any]) -> CellHandle:
        if not self._free:
            raise RuntimeError("RemoteExecutor over capacity: no free worker")
        url = self._free.pop(0)
        return _RemoteHandle(task, self._clients[url],
                             self._heartbeat_seconds,
                             release=self._free.append)


# ----------------------------------------------------------------------
# Registry entries — factories take the MatrixCampaignSpec
# ----------------------------------------------------------------------
@EXECUTORS.register("inline", summary="Synchronous in-process execution "
                                      "(the byte-identity reference)")
def build_inline_executor(spec: Any) -> CellExecutor:
    return InlineExecutor()


@EXECUTORS.register("pool", aliases=("process", "processes"),
                    summary="Local process pool, spec.workers cells in flight")
def build_pool_executor(spec: Any) -> CellExecutor:
    return ProcessCellExecutor(spec.workers)


@EXECUTORS.register("remote", aliases=("workers",),
                    summary="HTTP dispatch to 'repro worker' endpoints")
def build_remote_executor(spec: Any) -> CellExecutor:
    return RemoteExecutor(list(spec.worker_urls),
                          heartbeat_seconds=spec.heartbeat_seconds)
