"""Run ``repro serve`` on a bundle, optionally with the benchmark's spans.

Usage::

    python3 perfbench/serve_launcher.py --bundle B [--trace OUT.json]

The server keeps its default knobs (64-block batches, a 2 ms window, a
4,096-entry cache), binds an ephemeral port and prints it on startup.  With
``--trace`` the layer wrappers are installed before the server is built, and
the spans are written to ``OUT.json`` when SIGTERM shuts the server down.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--trace", default=None)
    arguments = parser.parse_args()

    tracer = None
    if arguments.trace:
        import spans

        tracer = spans.Tracer()
        spans.install_layers(tracer)
        spans.install_serving(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", "--bundle", arguments.bundle, "--port", "0",
                           "--workers", "0"])
    finally:
        if tracer is not None:
            tracer.restore()
            tracer.write(arguments.trace)


if __name__ == "__main__":
    sys.exit(main())
