"""Serving-side observability: the counters behind ``/stats``.

Everything is updated from the server's event-loop thread only, so plain
attributes suffice — no locks.  Latencies are kept in a bounded ring so a
long-lived server reports *recent* p50/p99 rather than a lifetime average;
batch sizes are a sparse exact histogram (``size -> count``), which is
cheap because sizes are bounded by the coalescer's ``max_batch_size``.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Any, Deque, Dict, Optional


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(fraction * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


class ServerStats:
    """Request/batch/latency accounting for one server instance."""

    #: Ring capacity for per-request latencies (recent-window percentiles).
    LATENCY_WINDOW = 4096

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._started = clock()
        self.started_unix = time.time()
        self.requests_total = 0
        self.predict_requests = 0
        self.predict_blocks = 0
        self.errors = 0
        self.batches = 0
        self.batched_blocks = 0
        self.batch_sizes: Counter = Counter()
        self._latencies: Deque[float] = deque(maxlen=self.LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, path: str, latency_seconds: float,
                       num_blocks: int = 0, error: bool = False) -> None:
        self.requests_total += 1
        if error:
            self.errors += 1
        if path == "/predict" and not error:
            self.predict_requests += 1
            self.predict_blocks += num_blocks
            self._latencies.append(latency_seconds)

    def record_batch(self, num_blocks: int, num_requests: int) -> None:
        self.batches += 1
        self.batched_blocks += num_blocks
        self.batch_sizes[num_blocks] += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    def snapshot(self, cache: Optional[Any] = None) -> Dict[str, Any]:
        """The plain-data payload ``/stats`` serves.

        ``cache`` is the server's result
        :class:`~repro.engine.binding.LRUCache`; its counters become
        ``result_cache``.
        """
        uptime = max(self.uptime_seconds, 1e-9)
        latencies = sorted(self._latencies)
        payload: Dict[str, Any] = {
            "uptime_seconds": self.uptime_seconds,
            "started_unix": self.started_unix,
            "requests_total": self.requests_total,
            "predict_requests": self.predict_requests,
            "predict_blocks": self.predict_blocks,
            "errors": self.errors,
            "qps": self.predict_requests / uptime,
            "blocks_per_sec": self.predict_blocks / uptime,
            "batches": self.batches,
            "mean_batch_size": (self.batched_blocks / self.batches
                                if self.batches else 0.0),
            "batch_size_histogram": {str(size): count for size, count
                                     in sorted(self.batch_sizes.items())},
            "latency_ms": {
                "count": len(latencies),
                "p50": percentile(latencies, 0.50) * 1e3,
                "p99": percentile(latencies, 0.99) * 1e3,
                "max": (latencies[-1] * 1e3 if latencies else 0.0),
            },
        }
        if cache is not None:
            lookups = cache.hits + cache.misses
            payload["result_cache"] = {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": (cache.hits / lookups) if lookups else 0.0,
            }
        return payload
