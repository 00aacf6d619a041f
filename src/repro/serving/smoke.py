"""CI smoke: boot a server, round-trip one request, shut down gracefully.

Run as ``python -m repro.serving.smoke``.  Exercises the whole serving
stack end to end in a few seconds: ephemeral-port boot, ``/healthz``,
a ``/predict`` round trip checked bit-identical against the direct
``Session.predict`` path, ``/stats``, and a graceful stop.
"""

from __future__ import annotations

import sys

from repro.api import PredictSpec, ServeSpec, Session
from repro.isa.parser import parse_block
from repro.serving.client import ServingClient
from repro.serving.server import InferenceServer

BLOCKS = [
    "addq %rax, %rbx; imulq %rbx, %rcx",
    "movq 16(%rsp), %rax; addq %rax, %rbx; movq %rbx, 24(%rsp)",
    "xorq %rax, %rax",
]


def main() -> int:
    spec = ServeSpec(target="haswell", simulator="mca", port=0,
                     max_batch_wait_ms=1.0)
    handle = InferenceServer.from_spec(spec).start_in_thread()
    try:
        with ServingClient(handle.host, handle.port) as client:
            health = client.healthz()
            assert health["status"] == "ok", health
            served = [float(v) for v in client.predict(BLOCKS)]
            stats = client.stats()
            assert stats["predict_requests"] >= 1, stats
    finally:
        handle.stop()

    session = Session.from_spec(PredictSpec(target="haswell",
                                            simulator="mca"))
    blocks = [parse_block(text.replace(";", "\n"),
                          session.adapter.opcode_table)
              for text in BLOCKS]
    expected = [float(v) for v in session.predict(blocks)]
    assert served == expected, (served, expected)
    print(f"serving smoke ok: {len(BLOCKS)} blocks round-tripped "
          f"bit-identically, graceful stop clean")
    return 0


if __name__ == "__main__":
    from repro.cli import print_messages

    with print_messages():
        sys.exit(main())
