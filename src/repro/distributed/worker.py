"""The remote campaign worker: ``repro worker``.

A thin HTTP wrapper around :func:`repro.distributed.cells.execute_cell`,
built on the same :class:`~repro.serving.http.JsonHttpServer` base as the
inference server, so both remote services share one tested wire protocol.

Endpoints:

* ``GET /healthz`` — liveness + a couple of counters; the remote executor's
  heartbeat probe while a cell is in flight.
* ``POST /run`` — execute one cell task (blocking for the cell's duration);
  the response body is the outcome dict, errors included, so the scheduler's
  retry logic sees remote failures exactly like local ones.

The cell runs on a worker thread (``run_in_executor``) so the event loop
stays responsive to heartbeats mid-cell.  ``drain_seconds`` defaults low:
a worker asked to stop mid-cell should drop the connection promptly — the
scheduler treats the disconnect as a failed attempt and retries elsewhere,
which is also what makes the disconnect tests deterministic.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any, Dict, Tuple

from repro.serving.http import JsonHttpServer, ServingError

logger = logging.getLogger(__name__)


class CampaignWorker(JsonHttpServer):
    """Serve matrix cells over HTTP for the ``remote`` executor."""

    thread_name = "repro-worker"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 drain_seconds: float = 0.5) -> None:
        super().__init__(host=host, port=port, drain_seconds=drain_seconds)
        self.cells_completed = 0
        self.cells_failed = 0
        self._busy = 0

    def health_payload(self) -> Dict[str, Any]:
        return {"status": "ok", "busy": self._busy,
                "cells_completed": self.cells_completed,
                "cells_failed": self.cells_failed}

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path in ("/healthz", "/health"):
            if method != "GET":
                raise ServingError(405, f"{path} only supports GET")
            return 200, self.health_payload()
        if path == "/run":
            if method != "POST":
                raise ServingError(405, "/run only supports POST")
            try:
                task = json.loads(body.decode("utf-8")) if body else None
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ServingError(400, f"request body is not JSON: {error}")
            if not isinstance(task, dict) or "campaign" not in task:
                raise ServingError(
                    400, "expected a cell task object with a 'campaign' key")
            return 200, await self._run_cell(task)
        raise ServingError(404, f"unknown endpoint {method} {path} "
                                f"(have: GET /healthz, POST /run)")

    async def _run_cell(self, task: Dict[str, Any]) -> Dict[str, Any]:
        from repro.distributed.cells import execute_cell

        self._busy += 1
        try:
            loop = asyncio.get_running_loop()
            outcome = await loop.run_in_executor(None, execute_cell, task)
        finally:
            self._busy -= 1
        if outcome.get("status") == "ok":
            self.cells_completed += 1
        else:
            self.cells_failed += 1
        logger.info(f"cell {outcome.get('cell', '?')} attempt "
                    f"{outcome.get('attempt', '?')}: {outcome.get('status')}")
        return outcome

    def _startup_message(self) -> str:
        return (f"campaign worker listening on http://{self.host}:{self.port} "
                f"(POST /run, GET /healthz)")
