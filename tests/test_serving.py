"""Serving-layer tests: coalescer, stats, and the server.

The coalescer's contract is the one that matters most: responses are
matched back to their requests and are deterministic regardless of how
concurrent submissions happened to be batched.  The server tests run the
real asyncio HTTP server on an ephemeral port and hit it from real client
threads.
"""

import asyncio
import json
import threading

import pytest

from repro.api import PredictSpec, ServeSpec, Session
from repro.engine.binding import LRUCache
from repro.serving import (InferenceServer, RequestCoalescer, ServerStats,
                           ServingClient, run_load)
from repro.serving.client import LoadReport
from repro.serving.stats import percentile

BLOCK_TEXTS = [
    "addq %rax, %rbx",
    "addq %rax, %rbx; imulq %rbx, %rcx",
    "movq 16(%rsp), %rax; addq %rax, %rbx",
    "xorq %rax, %rax; subq %rcx, %rdx",
    "imulq %rcx, %rdx; imulq %rdx, %rcx",
    "movq %rax, 8(%rsp); movq 8(%rsp), %rbx",
]


# ----------------------------------------------------------------------
# RequestCoalescer
# ----------------------------------------------------------------------
class TestRequestCoalescer:
    def test_responses_match_requests_under_concurrency(self):
        batches = []

        def run_batch(items):
            batches.append(len(items))
            return [item * 10.0 for item in items]

        async def scenario():
            coalescer = RequestCoalescer(run_batch, max_batch_size=64,
                                         max_wait=0.01)
            results = await asyncio.gather(*[
                coalescer.submit([float(i), float(i) + 0.5])
                for i in range(20)])
            await coalescer.drain()
            return results

        results = asyncio.run(scenario())
        for i, result in enumerate(results):
            assert result == [i * 10.0, (i + 0.5) * 10.0]
        # The whole burst coalesced into far fewer executions than requests.
        assert sum(batches) == 40
        assert len(batches) < 20

    def test_results_independent_of_batching(self):
        def run_batch(items):
            return [item + 1.0 for item in items]

        async def run_with(max_batch_size, max_wait):
            coalescer = RequestCoalescer(run_batch, max_batch_size,
                                         max_wait=max_wait)
            results = await asyncio.gather(*[
                coalescer.submit([float(i)]) for i in range(12)])
            await coalescer.drain()
            return results

        unbatched = asyncio.run(run_with(1, 0.0))
        batched = asyncio.run(run_with(64, 0.05))
        assert unbatched == batched

    def test_max_batch_size_respected(self):
        batches = []

        def run_batch(items):
            batches.append(len(items))
            return [0.0] * len(items)

        async def scenario():
            coalescer = RequestCoalescer(run_batch, max_batch_size=4,
                                         max_wait=0.05)
            await asyncio.gather(*[coalescer.submit([0.0, 0.0])
                                   for _ in range(10)])
            await coalescer.drain()

        asyncio.run(scenario())
        assert all(size <= 4 for size in batches)

    def test_oversized_request_still_executes(self):
        async def scenario():
            coalescer = RequestCoalescer(lambda items: [0.0] * len(items),
                                         max_batch_size=2, max_wait=0.0)
            return await coalescer.submit([1.0] * 7)

        assert asyncio.run(scenario()) == [0.0] * 7

    def test_exception_propagates_to_submitters(self):
        def run_batch(items):
            raise RuntimeError("engine exploded")

        async def scenario():
            coalescer = RequestCoalescer(run_batch, max_wait=0.0)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await coalescer.submit([1.0])
            await coalescer.drain()

        asyncio.run(scenario())

    def test_submit_after_drain_rejected(self):
        async def scenario():
            coalescer = RequestCoalescer(lambda items: [0.0] * len(items))
            await coalescer.drain()
            with pytest.raises(RuntimeError, match="draining"):
                await coalescer.submit([1.0])

        asyncio.run(scenario())

    def test_empty_submit_returns_empty(self):
        async def scenario():
            coalescer = RequestCoalescer(lambda items: [0.0] * len(items))
            result = await coalescer.submit([])
            await coalescer.drain()
            return result

        assert asyncio.run(scenario()) == []

    def test_wrong_result_length_raises(self):
        async def scenario():
            coalescer = RequestCoalescer(lambda items: [0.0], max_wait=0.0)
            with pytest.raises(RuntimeError, match="results"):
                await coalescer.submit([1.0, 2.0])
            await coalescer.drain()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# ServerStats
# ----------------------------------------------------------------------
class TestServerStats:
    def test_snapshot_fields(self):
        stats = ServerStats()
        stats.record_request("/predict", 0.010, num_blocks=4)
        stats.record_request("/predict", 0.030, num_blocks=2)
        stats.record_request("/predict", 0.020, num_blocks=1, error=True)
        stats.record_request("/healthz", 0.001)
        stats.record_batch(6, 2)
        snapshot = stats.snapshot()
        assert snapshot["requests_total"] == 4
        assert snapshot["predict_requests"] == 2  # errors excluded
        assert snapshot["predict_blocks"] == 6
        assert snapshot["errors"] == 1
        assert snapshot["batches"] == 1
        assert snapshot["mean_batch_size"] == 6.0
        assert snapshot["batch_size_histogram"] == {"6": 1}
        assert snapshot["latency_ms"]["count"] == 2
        assert snapshot["latency_ms"]["p50"] == pytest.approx(10.0)
        assert snapshot["latency_ms"]["max"] == pytest.approx(30.0)
        json.dumps(snapshot)

    @pytest.mark.parametrize("values, fraction, expected", [
        ([], 0.5, 0.0), ([7.0], 0.99, 7.0), ([1.0, 2.0, 3.0, 4.0], 0.5, 3.0),
        ([1.0, 2.0, 3.0, 4.0], 0.0, 1.0), ([1.0, 2.0, 3.0, 4.0], 1.0, 4.0),
        (list(range(101)), 0.99, 99.0),
    ], ids=["empty", "single", "median_rounds_up", "min", "max", "p99"])
    def test_percentile_is_nearest_rank(self, values, fraction, expected):
        assert percentile(values, fraction) == expected

    def test_result_cache_counters_and_empty_window(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1.0)
        cache.get("a")
        cache.get("b")
        snapshot = ServerStats().snapshot(cache=cache)
        assert snapshot["result_cache"] == {"entries": 1, "hits": 1, "misses": 1,
                                            "hit_rate": 0.5}
        assert snapshot["latency_ms"] == {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        assert snapshot["mean_batch_size"] == 0.0


class TestLoadReport:
    def test_summary_rates_and_latency_percentiles(self):
        report = LoadReport(num_clients=2, requests=4, blocks=10, elapsed_seconds=2.0,
                            latencies=[0.004, 0.001, 0.003, 0.002],
                            errors=["request 4: timed out"])
        assert report.summary() == {
            "num_clients": 2, "requests": 4, "blocks": 10, "elapsed_seconds": 2.0,
            "qps": 2.0, "blocks_per_sec": 5.0,
            "latency_ms": {"p50": 3.0, "p99": 4.0}, "errors": 1}

    def test_zero_elapsed_time_does_not_divide_by_zero(self):
        report = LoadReport(num_clients=1, requests=0, blocks=0, elapsed_seconds=0.0)
        assert (report.qps, report.blocks_per_sec, report.latency_ms(0.5)) == (0.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# InferenceServer end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def running_server():
    server = InferenceServer.from_spec(
        ServeSpec(target="haswell", simulator="mca", port=0,
                  max_batch_wait_ms=1.0))
    handle = server.start_in_thread()
    yield server, handle
    if handle.thread.is_alive():
        handle.stop()


class TestInferenceServer:
    def test_concurrent_clients_match_direct_predict(self, running_server):
        server, handle = running_server
        requests = [[text] for text in BLOCK_TEXTS] * 3
        report = run_load(handle.host, handle.port, requests, num_clients=6)
        assert not report.errors
        assert report.requests == len(requests)

        from repro.isa.parser import parse_block

        session = Session.from_spec(PredictSpec(target="haswell"))
        expected = {text: float(session.predict(
            [parse_block(text, session.adapter.opcode_table)])[0])
            for text in BLOCK_TEXTS}
        for index, blocks in enumerate(requests):
            assert report.results[index] == [expected[blocks[0]]]

    def test_healthz(self, running_server):
        _server, handle = running_server
        with ServingClient(handle.host, handle.port) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["target"] == "haswell"
        assert health["draining"] is False
        assert health["uptime_seconds"] > 0

    def test_stats_endpoint_reports_serving_counters(self, running_server):
        _server, handle = running_server
        with ServingClient(handle.host, handle.port) as client:
            client.predict(BLOCK_TEXTS[:2])
            client.predict(BLOCK_TEXTS[:2])  # second hit comes from cache
            stats = client.stats()
        assert stats["predict_requests"] >= 2
        assert stats["batches"] >= 1
        cache = stats["result_cache"]
        assert set(cache) == {"entries", "hits", "misses", "hit_rate"}
        assert cache["hits"] >= 2
        assert cache["hit_rate"] == cache["hits"] / (cache["hits"] + cache["misses"])
        assert stats["session"]["predict_calls"] >= 1
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        assert stats["coalescer"]["max_batch_size"] == 64

    def test_repeated_query_served_from_cache(self, running_server):
        server, handle = running_server
        with ServingClient(handle.host, handle.port) as client:
            first = client.predict_raw([BLOCK_TEXTS[0]])
            second = client.predict_raw([BLOCK_TEXTS[0]])
        assert second["timings"] == first["timings"]
        assert second["cache_hits"] == 1
        assert first["table_digest"] == server.table_digest

    def test_parse_error_is_400_naming_the_block(self, running_server):
        _server, handle = running_server
        with ServingClient(handle.host, handle.port) as client:
            with pytest.raises(RuntimeError, match=r"400.*blocks\[1\]"):
                client.predict(["addq %rax, %rbx", "not assembly !!"])

    def test_malformed_json_is_400(self, running_server):
        _server, handle = running_server
        import http.client

        connection = http.client.HTTPConnection(handle.host, handle.port,
                                                timeout=10)
        connection.request("POST", "/predict", body="{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    @staticmethod
    def _post_predict(handle, body):
        import http.client

        connection = http.client.HTTPConnection(handle.host, handle.port,
                                                timeout=10)
        connection.request("POST", "/predict", body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        return response.status, payload

    def test_unknown_top_level_key_is_400_naming_it(self, running_server):
        _server, handle = running_server
        status, payload = self._post_predict(
            handle, {"blocks": [BLOCK_TEXTS[0]], "tabel": {}})
        assert status == 400
        assert "'tabel'" in payload["error"]

    def test_trace_id_is_an_accepted_key(self, running_server):
        _server, handle = running_server
        status, payload = self._post_predict(
            handle, {"blocks": [BLOCK_TEXTS[0]], "trace_id": 7})
        assert status == 200
        assert len(payload["timings"]) == 1

    def test_unknown_path_is_404_and_wrong_method_is_405(self, running_server):
        _server, handle = running_server
        import http.client

        connection = http.client.HTTPConnection(handle.host, handle.port,
                                                timeout=10)
        connection.request("GET", "/nope")
        response = connection.getresponse()
        assert response.status == 404
        response.read()
        connection.request("GET", "/predict")
        response = connection.getresponse()
        assert response.status == 405
        response.read()
        connection.close()

    def test_from_spec_with_bundle(self, tmp_path):
        import os

        bundle_path = os.path.join(tmp_path, "hsw.bundle")
        Session.from_spec(
            PredictSpec(target="haswell")).export_bundle(bundle_path)
        server = InferenceServer.from_spec(
            ServeSpec(bundle_path=bundle_path, port=0))
        assert server.session.bundle_manifest is not None
        assert (server.table_digest
                == server.session.bundle_manifest.table_digest)


class TestGracefulShutdown:
    def test_in_flight_requests_finish_and_new_ones_are_refused(self):
        server = InferenceServer.from_spec(
            ServeSpec(target="haswell", simulator="mca", port=0,
                      max_batch_wait_ms=40.0))
        handle = server.start_in_thread()
        results = {}

        def slow_request():
            # max_batch_wait_ms holds this request open long enough for
            # stop() to land while it is in flight.
            with ServingClient(handle.host, handle.port) as client:
                results["timings"] = client.predict([BLOCK_TEXTS[0]])

        thread = threading.Thread(target=slow_request)
        thread.start()
        # Wait until the server has the request registered, then stop.
        deadline = threading.Event()
        for _ in range(200):
            if server.stats.requests_total or server.coalescer.pending_items:
                break
            deadline.wait(0.005)
        handle.stop(timeout=15)
        thread.join(timeout=15)
        assert not thread.is_alive()
        # The in-flight request completed with a real answer...
        session = Session.from_spec(PredictSpec(target="haswell"))
        from repro.isa.parser import parse_block

        expected = float(session.predict(
            [parse_block(BLOCK_TEXTS[0], session.adapter.opcode_table)])[0])
        assert results["timings"] == [expected]
        # ... and the server is gone: new connections fail.
        with pytest.raises(OSError):
            ServingClient(handle.host, handle.port, timeout=2).healthz()

    def test_stop_is_idempotent_and_thread_exits(self):
        server = InferenceServer.from_spec(
            ServeSpec(target="haswell", simulator="mca", port=0))
        handle = server.start_in_thread()
        handle.stop()
        assert not handle.thread.is_alive()
        server.request_stop()  # no-op after shutdown


def test_smoke_module_runs():
    from repro.serving import smoke

    assert smoke.main() == 0
