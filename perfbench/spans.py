"""Spans and counts around the calls into each layer of ``repro``.

Nothing under ``src/`` is changed: :func:`install_layers` wraps the layers'
public entry points from here, before the session is built.  Class methods
are patched on their class; module functions are patched in the module
that calls them (a name imported with ``from x import f`` is bound in the
importer).  :meth:`Tracer.restore` puts every original back.

Two kinds of wrapper:

* a *span* records ``[id, name, start, end, parent, request]`` in memory;
  the parent is the innermost open span of the same thread or asyncio task
  (a context variable), and ``request`` is the id of the ``serve`` request
  being handled, shared by every span of that request in either process;
* a *leaf* wrapper (hot functions called hundreds of thousands of times)
  only adds its call count and duration to totals, and charges the
  duration to the innermost open span, so that span's self time excludes it.

A span's self time is its duration minus the time its child spans cover
and minus its leaf time (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Span record layout.
ID, NAME, START, END, PARENT, REQUEST = range(6)


class Tracer:
    """In-memory spans, leaf totals and counts for one process."""

    def __init__(self, clock: Callable[[], Any] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        #: name -> [calls, seconds] of leaf wrappers.
        self.leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        #: name -> observed values (e.g. per-request queue waits).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: span id -> leaf seconds charged to it.
        self.leaf_seconds: Dict[int, float] = defaultdict(float)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None)
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> Tuple[list, contextvars.Token]:
        record = [next(self._ids), name, self.clock(), None,
                  self.current.get(), self.request.get()]
        self.spans.append(record)
        return record, self.current.set(record[ID])

    def close(self, record: list, token: contextvars.Token) -> None:
        record[END] = self.clock()
        self.current.reset(token)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def _charge_leaf(self, name: str, seconds: float) -> None:
        totals = self.leaves[name]
        totals[0] += 1
        totals[1] += seconds
        parent = self.current.get()
        if parent is not None:
            self.leaf_seconds[parent] += seconds

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, function: Callable, name: str, leaf: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """``function`` timed as a span (or leaf) called ``name``.

        ``after(result, *args, **kwargs)`` runs once the call returns, to
        record counts from its arguments or result.
        """
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def span_async(*args, **kwargs):
                record, token = tracer.open(name)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer.close(record, token)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return span_async

        if leaf:
            @functools.wraps(function)
            def leaf_call(*args, **kwargs):
                started = tracer.clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._charge_leaf(name, tracer.clock() - started)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return leaf_call

        @functools.wraps(function)
        def span_call(*args, **kwargs):
            record, token = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(record, token)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return span_call

    def replace(self, owner: Any, attribute: str, replacement: Any) -> Any:
        """Set ``owner.attribute``; :meth:`restore` undoes it.  Returns the
        attribute as it was (a class's own ``__dict__`` entry for classes)."""
        original = (owner.__dict__[attribute] if isinstance(owner, type)
                    else getattr(owner, attribute))
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))
        return original

    def patch(self, owner: Any, attribute: str, name: str, **options: Any) -> None:
        """Replace ``owner.attribute`` by its wrapped version."""
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(raw.__func__, name, **options))
        else:
            wrapped = self.wrap(raw, name, **options)
        self.replace(owner, attribute, wrapped)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": [{"id": record[ID], "name": record[NAME],
                       "start": record[START], "end": record[END],
                       "parent": record[PARENT], "request": record[REQUEST],
                       "leaf_s": self.leaf_seconds.get(record[ID], 0.0)}
                      for record in self.spans if record[END] is not None],
            "leaves": {name: {"calls": int(calls), "seconds": seconds}
                       for name, (calls, seconds) in self.leaves.items()},
            "counts": dict(self.counts),
            "samples": dict(self.samples),
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def covered(intervals: Sequence[Tuple[float, float]], start: float,
            end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lower, upper in sorted(intervals):
        lower, upper = max(lower, reach), min(upper, end)
        if upper > lower:
            total += upper - lower
            reach = upper
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus child-span coverage minus leaf time."""
    children: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: max(0.0, span["end"] - span["start"]
                            - covered(children[span["id"]], span["start"],
                                      span["end"])
                            - span.get("leaf_s", 0.0))
            for span in spans}


def install_layers(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports on."""
    import repro.api.bundle
    import repro.bhive
    import repro.core.adapters
    import repro.core.surrogate as surrogate
    import repro.corpus.sharded as sharded
    import repro.engine.factories
    import repro.engine.megabatch
    import repro.llvm_mca.megabatch
    import repro.llvm_mca.simulator
    from repro.api.session import Session
    from repro.autodiff.optim import SGD, Adam
    from repro.autodiff.tensor import Tensor
    from repro.campaigns.runner import CampaignRunner
    from repro.core.parameters import ParameterSpec
    from repro.engine.compile import BlockCompiler
    from repro.engine.engine import SimulationEngine
    from repro.pipeline import stages
    from repro.pipeline.checkpoint import CheckpointStore

    # repro.pipeline: stages and checkpoint writes.
    for stage, name in ((stages.CollectDatasetStage, "collect"),
                        (stages.TrainSurrogateStage, "train"),
                        (stages.OptimizeTableStage, "optimize"),
                        (stages.RefinementRoundStage, "refine"),
                        (stages.ExtractEvaluateStage, "eval")):
        tracer.patch(stage, "run", f"pipeline.{name}")

    def _written(path: Any, store: Any = None, *_args: Any, **_kwargs: Any) -> None:
        path = path if isinstance(path, str) else store.manifest_path
        tracer.add("pipeline.checkpoint_bytes", os.path.getsize(path))

    for method in ("save_json", "save_arrays", "save_parameter_arrays",
                   "_write_manifest"):
        tracer.patch(CheckpointStore, method, "pipeline.checkpoint",
                     leaf=True, after=_written)

    # repro.engine: calls, cache and compile counters, table digests.  The
    # counters are read outside the span so they do not count as engine time.
    tracer.patch(SimulationEngine, "run_one", "engine.run")
    engine_run = SimulationEngine.run_one

    @functools.wraps(engine_run)
    def run_one(engine: Any, table: Any, blocks: Any) -> Any:
        before = engine.stats
        result = engine_run(engine, table, blocks)
        after = engine.stats
        tracer.add("engine.calls")
        tracer.add("engine.blocks", len(blocks))
        for key in ("executed", "result_hits", "result_misses", "compile_misses"):
            tracer.add(f"engine.{key}", after[key] - before[key])
        return result

    tracer.replace(SimulationEngine, "run_one", run_one)
    tracer.patch(BlockCompiler, "compile", "engine.compile", leaf=True)
    for module in (repro.core.adapters, repro.engine.factories):
        tracer.patch(module, "mca_table_digest", "engine.digest", leaf=True)

    # repro.llvm_mca kernels: lockstep lanes against scalar-fallback lanes.
    def _lanes(_result: Any, _parameters: Any, corpus: Any, *_rest: Any) -> None:
        tracer.add("kernel.lockstep_lanes", corpus.num_blocks)

    tracer.patch(repro.llvm_mca.megabatch, "simulate_packed_mca",
                 "kernel.lockstep", after=_lanes)
    tracer.patch(repro.llvm_mca.simulator, "simulate_bound_mca",
                 "kernel.scalar", leaf=True)
    tracer.patch(repro.engine.megabatch, "pack_corpus", "kernel.pack", leaf=True)

    # repro.core.surrogate: featurization, packing, forward passes.
    tracer.patch(surrogate, "pack_block_arrays", "featurize.pack", leaf=True)
    tracer.patch(surrogate, "table_digest", "featurize.digest", leaf=True)
    tracer.patch(ParameterSpec, "normalize_for_surrogate_training",
                 "featurize.normalize", leaf=True)
    for kind in (surrogate.AnalyticalSurrogate, surrogate.PooledSurrogate,
                 surrogate.IthemalSurrogate):
        if "forward_batch" in kind.__dict__:
            tracer.patch(kind, "forward_batch", "surrogate.forward")

    # repro.autodiff: backward passes and optimizer steps.
    tracer.patch(Tensor, "backward", "autodiff.backward")
    for optimizer in (SGD, Adam):
        tracer.patch(optimizer, "step", "autodiff.step")

    # repro.campaigns.
    def _variants(result: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.add("campaign.variants", result.num_variants)

    tracer.patch(CampaignRunner, "run", "campaign.run", after=_variants)

    # Set-up layers: repro.bhive, repro.corpus, repro.api.
    tracer.patch(repro.bhive, "build_dataset", "bhive.dataset")

    def _shards(corpus: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.add("corpus.shards", corpus.num_shards)

    def _bytes(_result: Any, _path: str, payload: bytes) -> None:
        tracer.add("corpus.bytes_written", len(payload))

    tracer.patch(sharded.ShardedCorpus, "build", "corpus.build", after=_shards)
    tracer.patch(sharded, "_atomic_write", "corpus.write", leaf=True, after=_bytes)
    tracer.patch(sharded.ShardedCorpus, "_load_shard_entries", "corpus.read")
    tracer.patch(repro.api.bundle, "export_bundle", "api.export_bundle")
    tracer.patch(Session, "from_bundle", "api.from_bundle")


def install_serving(tracer: Tracer) -> None:
    """Wrap the inference server's request path (server process only)."""
    import json as json_module

    import repro.serving.server as server
    from repro.serving.coalescer import RequestCoalescer

    handler = server.InferenceServer.__dict__["_dispatch"]

    @functools.wraps(handler)
    async def dispatch(self: Any, method: str, path: str, body: bytes) -> Any:
        request_id = None
        if path == "/predict":
            try:
                request_id = json_module.loads(body).get("trace_id")
            except (ValueError, AttributeError):
                request_id = None
        token = tracer.request.set(request_id)
        try:
            return await handler(self, method, path, body)
        finally:
            tracer.request.reset(token)

    tracer.replace(server.InferenceServer, "_dispatch", dispatch)
    tracer.patch(server.InferenceServer, "_predict", "serving.request")
    tracer.patch(server, "parse_block", "serving.parse", leaf=True)

    def _batch(_result: Any, _server: Any, blocks: Sequence[Any]) -> None:
        tracer.add("serving.batch_blocks", len(blocks))

    tracer.patch(server.InferenceServer, "_simulate_batch", "serving.batch",
                 after=_batch)

    # Queue wait: pending requests leave the coalescer in arrival order, so
    # a FIFO of submit times pairs each taken request with its own.
    submitted: Deque[float] = deque()
    submit = RequestCoalescer.__dict__["submit"]
    take = RequestCoalescer.__dict__["_take_batch"]

    @functools.wraps(submit)
    async def timed_submit(self: Any, items: Sequence[Any]) -> Any:
        if items and not self._closing:
            submitted.append(tracer.clock())
        return await submit(self, items)

    @functools.wraps(take)
    def timed_take(self: Any) -> Any:
        batch = take(self)
        now = tracer.clock()
        for _ in batch:
            tracer.samples["serving.queue_wait"].append(now - submitted.popleft())
        return batch

    tracer.replace(RequestCoalescer, "submit", timed_submit)
    tracer.replace(RequestCoalescer, "_take_batch", timed_take)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric: name -> (unit, better).  Times are in
#: reference-speed units; a layer a workload does not use reads 0.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "pipeline.collect_s": ("s", "lower"),
    "pipeline.train_s": ("s", "lower"),
    "pipeline.optimize_s": ("s", "lower"),
    "pipeline.refine_s": ("s", "lower"),
    "pipeline.eval_s": ("s", "lower"),
    "pipeline.checkpoint_writes": ("count", "lower"),
    "pipeline.checkpoint_s": ("s", "lower"),
    "pipeline.checkpoint_mb": ("MB", "lower"),
    "engine.calls": ("count", "lower"),
    "engine.blocks_per_call": ("blocks", "higher"),
    "engine.self_s": ("s", "lower"),
    "engine.executed": ("count", "lower"),
    "engine.hit_ratio": ("ratio", "higher"),
    "engine.compile_misses": ("count", "lower"),
    "engine.compile_s": ("s", "lower"),
    "engine.digest_s": ("s", "lower"),
    "kernel.lockstep_lanes": ("count", "higher"),
    "kernel.lockstep_s": ("s", "lower"),
    "kernel.scalar_lanes": ("count", "lower"),
    "kernel.scalar_s": ("s", "lower"),
    "kernel.lockstep_ratio": ("ratio", "higher"),
    "kernel.pack_s": ("s", "lower"),
    "featurize.pack_s": ("s", "lower"),
    "featurize.normalize_s": ("s", "lower"),
    "featurize.digest_calls": ("count", "lower"),
    "featurize.digest_s": ("s", "lower"),
    "featurize.block_hit_ratio": ("ratio", "higher"),
    "featurize.table_hit_ratio": ("ratio", "higher"),
    "surrogate.forward_calls": ("count", "lower"),
    "surrogate.forward_s": ("s", "lower"),
    "autodiff.backward_calls": ("count", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.step_calls": ("count", "lower"),
    "autodiff.step_s": ("s", "lower"),
    "campaign.variants": ("count", "higher"),
    "campaign.self_s": ("s", "lower"),
    "serving.cache_hit_ratio": ("ratio", "higher"),
    "serving.parse_s": ("s", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.batch_blocks": ("blocks", "higher"),
    "serving.queue_wait_ms_p50": ("ms", "lower"),
    "serving.queue_wait_ms_p99": ("ms", "lower"),
    "serving.engine_ms_p50": ("ms", "lower"),
    "bhive.dataset_s": ("s", "lower"),
    "corpus.build_s": ("s", "lower"),
    "corpus.shards": ("count", "lower"),
    "corpus.mb_written": ("MB", "lower"),
    "corpus.read_s": ("s", "lower"),
    "api.export_bundle_s": ("s", "lower"),
    "api.from_bundle_s": ("s", "lower"),
    "trace.main_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traces: Sequence[Dict[str, Any]], factor: float,
                  featurization: Dict[str, int],
                  cache_hit_ratio: float = 0.0) -> Dict[str, float]:
    """The per-layer numbers of :data:`LAYER_METRICS` from exported traces.

    ``traces`` are :meth:`Tracer.to_dict` payloads (this process's and, for
    ``serve``, the server's); ``factor`` turns host seconds into
    reference-speed seconds; ``featurization`` is the change in
    ``featurization_cache_stats()`` over the traced phases.
    """
    from refspeed import percentile

    leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    counts: Dict[str, float] = defaultdict(float)
    samples: Dict[str, List[float]] = defaultdict(list)
    for trace in traces:
        for name, totals in trace["leaves"].items():
            leaves[name][0] += totals["calls"]
            leaves[name][1] += totals["seconds"]
        for name, value in trace["counts"].items():
            counts[name] += value
        for name, values in trace.get("samples", {}).items():
            samples[name].extend(values)
    durations: Dict[str, List[float]] = defaultdict(list)
    self_seconds: Dict[str, float] = defaultdict(float)
    for trace in traces:
        # Span ids are unique within one process's trace only.
        own = self_times(trace["spans"])
        for span in trace["spans"]:
            durations[span["name"]].append(span["end"] - span["start"])
            self_seconds[span["name"]] += own[span["id"]]

    def seconds(name: str) -> float:
        return (sum(durations[name]) + leaves[name][1]) * factor

    def calls(name: str) -> float:
        return len(durations[name]) + leaves[name][0]

    def milliseconds(values: List[float], fraction: float) -> float:
        return percentile(values, fraction) * factor * 1e3 if values else 0.0

    scalar_lanes = calls("kernel.scalar")
    lockstep_lanes = counts["kernel.lockstep_lanes"]
    lookups = counts["engine.result_hits"] + counts["engine.result_misses"]
    batches = durations["serving.batch"]
    waits = samples["serving.queue_wait"]
    metrics = {
        "pipeline.collect_s": seconds("pipeline.collect"),
        "pipeline.train_s": seconds("pipeline.train"),
        "pipeline.optimize_s": seconds("pipeline.optimize"),
        "pipeline.refine_s": seconds("pipeline.refine"),
        "pipeline.eval_s": seconds("pipeline.eval"),
        "pipeline.checkpoint_writes": calls("pipeline.checkpoint"),
        "pipeline.checkpoint_s": seconds("pipeline.checkpoint"),
        "pipeline.checkpoint_mb": counts["pipeline.checkpoint_bytes"] / 2 ** 20,
        "engine.calls": counts["engine.calls"],
        "engine.blocks_per_call": _ratio(counts["engine.blocks"],
                                         counts["engine.calls"]),
        "engine.self_s": self_seconds["engine.run"] * factor,
        "engine.executed": counts["engine.executed"],
        "engine.hit_ratio": _ratio(counts["engine.result_hits"], lookups),
        "engine.compile_misses": counts["engine.compile_misses"],
        "engine.compile_s": seconds("engine.compile"),
        "engine.digest_s": seconds("engine.digest"),
        "kernel.lockstep_lanes": lockstep_lanes,
        "kernel.lockstep_s": seconds("kernel.lockstep"),
        "kernel.scalar_lanes": scalar_lanes,
        "kernel.scalar_s": seconds("kernel.scalar"),
        "kernel.lockstep_ratio": _ratio(lockstep_lanes,
                                        lockstep_lanes + scalar_lanes),
        "kernel.pack_s": seconds("kernel.pack"),
        "featurize.pack_s": seconds("featurize.pack"),
        "featurize.normalize_s": seconds("featurize.normalize"),
        "featurize.digest_calls": calls("featurize.digest"),
        "featurize.digest_s": seconds("featurize.digest"),
        "featurize.block_hit_ratio": _ratio(
            featurization.get("block_hits", 0),
            featurization.get("block_hits", 0) + featurization.get("block_misses", 0)),
        "featurize.table_hit_ratio": _ratio(
            featurization.get("table_hits", 0),
            featurization.get("table_hits", 0) + featurization.get("table_misses", 0)),
        "surrogate.forward_calls": calls("surrogate.forward"),
        "surrogate.forward_s": seconds("surrogate.forward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.backward_s": seconds("autodiff.backward"),
        "autodiff.step_calls": calls("autodiff.step"),
        "autodiff.step_s": seconds("autodiff.step"),
        "campaign.variants": counts["campaign.variants"],
        "campaign.self_s": self_seconds["campaign.run"] * factor,
        "serving.cache_hit_ratio": cache_hit_ratio,
        "serving.parse_s": seconds("serving.parse"),
        "serving.batches": float(len(batches)),
        "serving.batch_blocks": _ratio(counts["serving.batch_blocks"], len(batches)),
        "serving.queue_wait_ms_p50": milliseconds(waits, 0.50),
        "serving.queue_wait_ms_p99": milliseconds(waits, 0.99),
        "serving.engine_ms_p50": milliseconds(batches, 0.50),
        "bhive.dataset_s": seconds("bhive.dataset"),
        "corpus.build_s": seconds("corpus.build"),
        "corpus.shards": counts["corpus.shards"],
        "corpus.mb_written": counts["corpus.bytes_written"] / 2 ** 20,
        "corpus.read_s": seconds("corpus.read"),
        "api.export_bundle_s": seconds("api.export_bundle"),
        "api.from_bundle_s": seconds("api.from_bundle"),
    }
    return {name: float(value) for name, value in metrics.items()}
