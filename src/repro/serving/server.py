"""The stdlib-only inference server: deployment bundles behind HTTP/JSON.

:class:`InferenceServer` binds a :class:`~repro.api.session.Session` (built
from a deployment bundle or a spec) to the shared
:class:`~repro.serving.http.JsonHttpServer` plumbing, speaking just enough
HTTP/1.1 for three endpoints:

* ``POST /predict`` — ``{"blocks": ["add rax, rbx; ..."]}`` in, predicted
  timings out.  Requests hitting the result LRU are answered inline;
  misses are parsed and funneled through the
  :class:`~repro.serving.coalescer.RequestCoalescer` so concurrent clients
  share engine megabatches.  Any other top-level key is a 400 that names
  it (see :data:`PREDICT_KEYS`).
* ``GET /healthz`` — liveness plus drain state.
* ``GET /stats`` — uptime, QPS, batch-size histogram, cache hit rate,
  p50/p99 latency, and the session's own engine counters.

Shutdown is graceful: the listener closes first, in-flight requests finish
through a coalescer drain, responses are written, and only then do
connections die.  Everything here is standard library — ``asyncio``,
``json``, ``threading`` — on top of the package itself.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.session import Session
from repro.api.specs import PredictSpec, ServeSpec
from repro.engine.binding import LRUCache, parameter_arrays_digest
from repro.isa.parser import ParseError, parse_block
from repro.serving.coalescer import RequestCoalescer
from repro.serving.http import JsonHttpServer, ServingError
from repro.serving.stats import ServerStats


#: Top-level keys a ``/predict`` body may hold: the ``blocks`` list and an
#: optional client-chosen ``trace_id``, which tracing layers read to join a
#: request's client and server spans (``perfbench`` sends it when tracing).
PREDICT_KEYS = ("blocks", "trace_id")


class InferenceServer(JsonHttpServer):
    """Serves one session's predictions over HTTP/JSON (see module doc)."""

    thread_name = "repro-serving"

    def __init__(self, session: Session, *, host: str = "127.0.0.1",
                 port: int = 8000, max_batch_size: int = 64,
                 max_batch_wait_ms: float = 2.0, cache_size: int = 4096) -> None:
        super().__init__(host=host, port=port)
        self.session = session
        self._table = session.load_table_or_default(
            getattr(session.spec, "table_path", None))
        self.table_digest = parameter_arrays_digest(
            session.adapter.arrays_from_table(self._table))
        #: ``normalized block text -> timing`` for the one table served.
        self.cache = LRUCache(cache_size)
        self.stats = ServerStats()
        self.coalescer = RequestCoalescer(
            self._simulate_batch, max_batch_size=max_batch_size,
            max_wait=max_batch_wait_ms / 1e3,
            on_batch=self.stats.record_batch)

    # ------------------------------------------------------------------
    # Construction from specs / bundles
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Union[ServeSpec, Dict[str, Any]],
                  **overrides: Any) -> "InferenceServer":
        """Build server + session from a :class:`~repro.api.specs.ServeSpec`.

        With ``bundle_path`` the session comes from
        :meth:`Session.from_bundle` (serving the bundled table); otherwise a
        :class:`PredictSpec` session serves ``table_path`` or the default
        table.
        """
        if isinstance(spec, dict):
            spec = ServeSpec.from_dict({**spec, **overrides})
        else:
            spec = spec.with_overrides(overrides)
        if spec.bundle_path is not None:
            session = Session.from_bundle(
                spec.bundle_path, engine_workers=spec.engine_workers)
        else:
            session = Session.from_spec(PredictSpec(
                target=spec.target, simulator=spec.simulator,
                table_path=spec.table_path,
                engine_workers=spec.engine_workers))
        return cls(session, host=spec.host, port=spec.port,
                   max_batch_size=spec.max_batch_size,
                   max_batch_wait_ms=spec.max_batch_wait_ms,
                   cache_size=spec.cache_size)

    # ------------------------------------------------------------------
    # Prediction path
    # ------------------------------------------------------------------
    def _simulate_batch(self, blocks: List[Any]) -> List[float]:
        """Synchronous batch prediction; runs in the loop's executor."""
        return [float(value)
                for value in self.session.predict(blocks, self._table)]

    @staticmethod
    def _cache_key(text: str) -> str:
        return " ".join(text.split())

    async def _predict(self, texts: List[str]) -> Dict[str, Any]:
        timings: List[Optional[float]] = [None] * len(texts)
        miss_positions: List[int] = []
        miss_keys: List[str] = []
        miss_blocks: List[Any] = []
        for position, text in enumerate(texts):
            if not isinstance(text, str):
                raise ServingError(
                    400, f"blocks[{position}]: expected a string, "
                         f"got {type(text).__name__}")
            key = self._cache_key(text)
            cached = self.cache.get(key)
            if cached is not None:
                timings[position] = cached
                continue
            try:
                block = parse_block(text, self.session.adapter.opcode_table)
            except ParseError as error:
                raise ServingError(400, f"blocks[{position}]: {error}")
            miss_positions.append(position)
            miss_keys.append(key)
            miss_blocks.append(block)
        if miss_blocks:
            try:
                values = await self.coalescer.submit(miss_blocks)
            except RuntimeError as error:
                raise ServingError(503, str(error))
            for position, key, value in zip(miss_positions, miss_keys, values):
                timings[position] = value
                self.cache.put(key, value)
        return {
            "timings": timings,
            "table_digest": self.table_digest,
            "cache_hits": len(texts) - len(miss_blocks),
        }

    # ------------------------------------------------------------------
    # Endpoint payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": self.stats.uptime_seconds,
            "target": self.session.target_name,
            "simulator": self.session.spec.simulator,
            "table_digest": self.table_digest,
            "draining": self._draining,
        }

    def stats_payload(self) -> Dict[str, Any]:
        payload = self.stats.snapshot(self.cache)
        payload["table_digest"] = self.table_digest
        payload["draining"] = self._draining
        payload["coalescer"] = {
            "max_batch_size": self.coalescer.max_batch_size,
            "max_batch_wait_ms": self.coalescer.max_wait * 1e3,
            "batches_executed": self.coalescer.batches_executed,
        }
        payload["session"] = self.session.stats()
        return payload

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": f"{path} only supports GET"}
            return 200, self.health_payload()
        if path == "/stats":
            if method != "GET":
                return 405, {"error": f"{path} only supports GET"}
            return 200, self.stats_payload()
        if path == "/predict":
            if method != "POST":
                return 405, {"error": f"{path} only supports POST"}
            if self._draining:
                return 503, {"error": "server is draining"}
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return 400, {"error": f"request body is not JSON: {error}"}
            if not isinstance(payload, dict) or "blocks" not in payload:
                return 400, {"error": 'request body must be an object with '
                                      'a "blocks" list'}
            unknown = sorted(key for key in payload if key not in PREDICT_KEYS)
            if unknown:
                return 400, {"error": f"unknown request key(s) "
                                      f"{', '.join(map(repr, unknown))} "
                                      f"(expected {', '.join(PREDICT_KEYS)})"}
            texts = payload["blocks"]
            if not isinstance(texts, list):
                return 400, {"error": '"blocks" must be a list of strings'}
            try:
                return 200, await self._predict(texts)
            except ServingError as error:
                return error.status, {"error": str(error)}
        return 404, {"error": f"unknown path {path!r} (have /predict, "
                              f"/healthz, /stats)"}

    # ------------------------------------------------------------------
    # JsonHttpServer hooks
    # ------------------------------------------------------------------
    def _clock(self) -> float:
        return self.stats._clock()

    def _record_request(self, path: str, seconds: float,
                        payload: Any, status: int) -> None:
        num_blocks = (len(payload.get("timings", []))
                      if isinstance(payload, dict) else 0)
        self.stats.record_request(path, seconds, num_blocks=num_blocks,
                                  error=status >= 400)

    async def _on_drain(self) -> None:
        # Refuse new predict work but finish everything already coalesced.
        await self.coalescer.drain()

    def _startup_message(self) -> str:
        return (f"serving {self.session.target_name}/"
                f"{self.session.spec.simulator} on "
                f"http://{self.host}:{self.port} "
                f"(table {self.table_digest[:12]}...)")
