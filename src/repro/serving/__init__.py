"""repro.serving — prediction-as-a-service on top of the Session API.

A tuned parameter table's whole value is cheap repeated prediction; this
package wraps the warm :class:`~repro.api.session.Session` engine caches in
a long-running, stdlib-only inference server:

* :class:`InferenceServer` (:mod:`repro.serving.server`) — an ``asyncio``
  HTTP/JSON server with ``/predict``, ``/healthz``, and ``/stats``
  endpoints, loadable from a deployment bundle
  (:mod:`repro.api.bundle`) or a spec, with graceful shutdown that drains
  in-flight requests;
* :class:`RequestCoalescer` (:mod:`repro.serving.coalescer`) — batches
  concurrent ``/predict`` requests into engine megabatches under a
  max-batch-size / max-wait policy, with per-request results matched back
  deterministically;
* :class:`ServerStats` (:mod:`repro.serving.stats`) — uptime, QPS,
  batch-size histogram, cache hit rate, p50/p99 latency;
* :class:`ServingClient` / :func:`run_load` (:mod:`repro.serving.client`) —
  a tiny stdlib client and the load generator behind
  ``examples/serving_client.py`` and the ``serving_latency`` benchmark.

Quickstart::

    from repro.api import ServeSpec
    from repro.serving import InferenceServer

    server = InferenceServer.from_spec(ServeSpec(bundle_path="haswell.bundle"))
    handle = server.start_in_thread()      # or server.serve() to block
    ...
    handle.stop()                          # graceful: drains in-flight work

No dependencies beyond the standard library and the package itself.
"""

from repro.serving.client import LoadReport, ServingClient, run_load
from repro.serving.coalescer import RequestCoalescer
from repro.serving.http import ServerHandle
from repro.serving.server import InferenceServer
from repro.serving.stats import ServerStats

__all__ = [
    "InferenceServer",
    "ServerHandle",
    "RequestCoalescer",
    "ServerStats",
    "ServingClient",
    "LoadReport",
    "run_load",
]
