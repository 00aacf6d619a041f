#!/usr/bin/env python3
"""Load-generate against the inference server and report QPS / latency.

Points N concurrent clients (:func:`repro.serving.run_load`) at a running
``repro serve`` instance — or, with ``--self-hosted``, boots a demo server
on an ephemeral port first so the example runs with no setup::

    # terminal 1                       # terminal 2
    python -m repro.cli serve \\       python examples/serving_client.py \\
        --uarch haswell --port 8000        --port 8000 --clients 8

    # or all-in-one:
    python examples/serving_client.py --self-hosted

Each request carries a few distinct generated basic blocks, so the numbers
measure serving + coalesced simulation rather than the server's result
cache.  The report shows client-side QPS and p50/p99 latency next to the
server's own ``/stats`` (mean batch size, cache hit rate) — watching
``mean_batch_size`` rise with ``--clients`` is the whole point of the
request coalescer.
"""

import argparse
import json
import logging

from repro.serving import ServingClient, run_load


def generate_requests(num_requests: int, blocks_per_request: int,
                      seed: int) -> list:
    from repro.bhive.generator import BlockGenerator

    generator = BlockGenerator(seed=seed)
    texts = []
    seen = set()
    for block in generator.generate_blocks(8 * num_requests * blocks_per_request):
        text = "; ".join(block.to_assembly().splitlines())
        if text not in seen:
            seen.add(text)
            texts.append(text)
        if len(texts) >= num_requests * blocks_per_request:
            break
    return [texts[i * blocks_per_request:(i + 1) * blocks_per_request]
            for i in range(len(texts) // blocks_per_request)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads")
    parser.add_argument("--requests", type=int, default=200,
                        help="total requests across all clients")
    parser.add_argument("--blocks-per-request", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--self-hosted", action="store_true",
                        help="boot a demo haswell/mca server on an ephemeral "
                             "port instead of targeting --host/--port")
    arguments = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")

    handle = None
    host, port = arguments.host, arguments.port
    if arguments.self_hosted:
        from repro.serving import InferenceServer

        handle = InferenceServer.from_spec(
            {"target": "haswell", "simulator": "mca", "port": 0}).start_in_thread()
        host, port = handle.host, handle.port

    requests = generate_requests(arguments.requests,
                                 arguments.blocks_per_request, arguments.seed)
    print(f"Sending {len(requests)} requests "
          f"({arguments.blocks_per_request} blocks each) from "
          f"{arguments.clients} clients to http://{host}:{port} ...")
    try:
        report = run_load(host, port, requests, num_clients=arguments.clients)
        with ServingClient(host, port) as client:
            server_stats = client.stats()
    finally:
        if handle is not None:
            handle.stop()

    print()
    print(f"Client side: {report.qps:.0f} req/s "
          f"({report.blocks_per_sec:.0f} blocks/s), "
          f"p50 {report.latency_ms(0.50):.2f}ms, "
          f"p99 {report.latency_ms(0.99):.2f}ms, "
          f"{len(report.errors)} errors")
    print(f"Server side: mean batch size "
          f"{server_stats['mean_batch_size']:.1f} over "
          f"{server_stats['batches']} batches, cache hit rate "
          f"{server_stats['result_cache']['hit_rate']:.0%}")
    print()
    print(json.dumps({"client": report.summary(),
                      "server": {key: server_stats[key]
                                 for key in ("qps", "mean_batch_size",
                                             "latency_ms", "result_cache")}},
                     indent=2))


if __name__ == "__main__":
    main()
