"""The three workloads: ``tune``, ``sweep`` and ``serve``.

Each workload is a class with the same steps, which ``run.py`` times:

* ``IMPORTS`` names the modules the other steps use; ``run.py`` imports
  them with the program, so their import time counts in ``setup_s``;
* ``REPLAYS`` is 1 when the operations of every unit are pooled for the
  percentiles, or the number of units whose per-operation medians are
  (see :func:`refspeed.replay_medians`); a run measures at least that many;
* ``inputs(seed)`` generates everything the seed drives (not timed);
* ``setup(inputs, directory)`` is one set-up repetition (``setup_s``);
* ``main(state)`` is the measured phase at fixed work (``main_s``); it
  returns its outcome and the times of its repeated operation (``p50_ms``,
  ``p99_ms``): ``(start, end)``, or ``(start, end, cpu)`` for an operation
  that runs alone on the main thread (:func:`refspeed.operation_seconds`);
* ``check(state, outcome)`` verifies the outputs (not timed);
* ``close(state)`` releases what ``setup`` made.

Every run uses ``engine_workers=0``.  Blocks longer than
:data:`MAX_BLOCK_LENGTH` instructions (3% of generated blocks) are left
out of every workload's inputs: the few long ones a seed happens to draw
would otherwise set up to a third of a run's time, and runs of different
seeds would not be comparable.  ``README.md`` records why each workload exists, the
layers it stresses and bypasses, and its sizing facts.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "haswell"

#: Longest block, in instructions, any workload uses.
MAX_BLOCK_LENGTH = 16


def digest(payload: Any) -> str:
    """Short content digest of JSON-serializable ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def block_text(block: Any) -> str:
    """A block as the one-line text ``/predict`` accepts."""
    return "; ".join(block.to_assembly().splitlines())


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def save_dataset(examples: Sequence[Any], uarch_name: str, seed: int,
                 path: str) -> None:
    """Write length-capped labeled blocks as a dataset JSON file."""
    from repro.bhive import BasicBlockDataset

    os.makedirs(os.path.dirname(path), exist_ok=True)
    BasicBlockDataset(examples=list(examples), uarch_name=uarch_name,
                      seed=seed).save_json(path)


def stamp() -> Tuple[float, float]:
    """Wall clock and this thread's CPU clock, to time an operation that
    runs alone on its thread (see :func:`refspeed.operation_seconds`)."""
    return time.perf_counter(), time.thread_time()


def operation(started: Tuple[float, float],
              ended: Tuple[float, float]) -> Tuple[float, float, float]:
    """``(start, end, cpu)`` of an operation between two :func:`stamp`\\ s."""
    return started[0], ended[0], ended[1] - started[1]


class TrainingSteps:
    """Times of every surrogate-training minibatch step.

    Wraps the minibatch loop where surrogate training calls it, and that
    loop's per-batch loss callback: a step runs from one batch's loss call
    to the next (forward, backward, optimizer step, bookkeeping).  Table
    optimization steps, three times slower and only 12% as many, are left
    out so the percentiles describe one kind of operation.  A step runs on
    the main thread alone, so it is timed by that thread's CPU clock too:
    a step the host stalled for 10 ms shows only its own CPU time.
    """

    def __init__(self) -> None:
        self.steps: List[Tuple[float, float, float]] = []
        self._module: Any = None
        self._original: Any = None

    def install(self) -> None:
        import repro.core.surrogate_training as training

        self._module, self._original = training, training.run_minibatch_loop
        original, steps = self._original, self.steps

        def loop(num_examples: int, compute_batch_loss: Any, *args: Any,
                 **kwargs: Any) -> Any:
            marks: List[Tuple[float, float]] = []

            def timed_loss(indices: Any) -> Any:
                marks.append(stamp())
                return compute_batch_loss(indices)

            result = original(num_examples, timed_loss, *args, **kwargs)
            marks.append(stamp())
            steps.extend(map(operation, marks, marks[1:]))
            return result

        training.run_minibatch_loop = loop

    def remove(self) -> None:
        if self._module is not None:
            self._module.run_minibatch_loop = self._original
            self._module = None


@dataclass
class Check:
    """Outcome of a workload's output checks."""

    attempted: int
    failed: int
    correct: bool
    #: Facts printed as diagnostics (``test_mape`` among them for tune).
    notes: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------
class Tune:
    """``Session.tune()`` on 300 haswell blocks with the ``fast`` preset."""

    name = "tune"
    IMPORTS = ("repro.api.session", "repro.bhive", "repro.core.difftune",
               "repro.pipeline.pipeline", "repro.eval.metrics",
               "repro.engine.factories", "repro.llvm_mca.megabatch",
               "numpy.ma", "numpy.random")
    REPLAYS = 1
    NUM_BLOCKS = 300
    #: Generated before capping; the measurement screen and the length cap
    #: keep about 325 of them.
    GENERATED_BLOCKS = 340

    def inputs(self, seed: int) -> Dict[str, Any]:
        return {"target": TARGET, "simulator": "mca", "preset": "fast",
                "seed": seed, "engine_workers": 0}

    def setup(self, inputs: Dict[str, Any], directory: str,
              trace_path: Optional[str] = None) -> Dict[str, Any]:
        """The ground-truth dataset build plus the session."""
        from repro.api import Session, TuneSpec
        from repro.bhive import build_dataset

        measured = build_dataset(TARGET, num_blocks=self.GENERATED_BLOCKS,
                                 seed=inputs["seed"])
        kept = [example for example in measured
                if len(example.block) <= MAX_BLOCK_LENGTH][:self.NUM_BLOCKS]
        if len(kept) < self.NUM_BLOCKS:
            raise RuntimeError(f"only {len(kept)} blocks survived the length cap")
        path = os.path.join(directory, "dataset.json")
        save_dataset(kept, measured.uarch_name, inputs["seed"], path)
        session = Session.from_spec(TuneSpec(
            dataset_path=path, checkpoint_dir=os.path.join(directory, "checkpoints"),
            **inputs))
        session.dataset()
        return {"session": session, "inputs": inputs, "dataset_path": path}

    def input_digest(self, state: Dict[str, Any]) -> str:
        dataset = state["session"].dataset()
        return digest([state["inputs"], [block_text(example.block)
                                         for example in dataset],
                       [example.timing for example in dataset]])

    def main(self, state: Dict[str, Any], tracer: Any = None
             ) -> Tuple[Any, List[Tuple[float, float, float]]]:
        """``Session.tune()``; the operations are surrogate-training steps."""
        steps = TrainingSteps()
        steps.install()
        try:
            result = state["session"].tune()
        finally:
            steps.remove()
        return result, steps.steps

    def check(self, state: Dict[str, Any], outcome: Any) -> Check:
        """``test_mape`` must equal ``Session.evaluate`` on a fresh session."""
        from repro.api import EvaluateSpec, Session

        fresh = Session.from_spec(EvaluateSpec(dataset_path=state["dataset_path"],
                                               engine_workers=0))
        evaluated = fresh.evaluate(outcome.learned_table, split="test")
        correct = bool(outcome.completed
                       and evaluated["error"] == outcome.test_error)
        return Check(attempted=1, failed=0 if correct else 1, correct=correct,
                     notes={"test_mape": outcome.test_error,
                            "evaluate_error": evaluated["error"],
                            "expert_test_mape": outcome.default_test_error,
                            "examples": outcome.raw.simulated_dataset_size})

    def throughput(self, check: Check, main_s: float, raw_s: float) -> Dict[str, float]:
        examples = check.notes["examples"]
        return {"examples_per_ref_s": examples / main_s,
                "examples_per_wall_s": examples / raw_s}

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        return vm_hwm_mb()

    def close(self, state: Dict[str, Any]) -> None:
        pass


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class Sweep:
    """A 10x10 DispatchWidth x ReorderBufferSize grid campaign, run twice.

    The campaign evaluates 100 variants plus the base table on 1,500
    train-split corpus blocks: 151,500 (table, block) pairs, just above the
    engine LRU's 131,072 entries, so the re-run on the same session finds
    none of its pairs still cached.
    """

    name = "sweep"
    IMPORTS = ("repro.api.session", "repro.corpus", "repro.pipeline",
               "repro.campaigns.runner", "repro.campaigns.presets",
               "repro.eval.metrics", "repro.engine.factories",
               "repro.llvm_mca.megabatch", "numpy.ma", "numpy.random")
    REPLAYS = 1
    CORPUS_BLOCKS = 3000
    SHARD_SIZE = 512
    CAMPAIGN_BLOCKS = 1500
    #: Variants per campaign chunk, so per ``Session.predict`` call.  Two
    #: keep every call multi-table and make 51 calls per campaign: enough
    #: for a tail percentile (p90) with ten samples beyond it.
    CHUNK_SIZE = 2

    def inputs(self, seed: int) -> Dict[str, Any]:
        from repro.campaigns.presets import FIG5_DISPATCH_WIDTHS, FIG5_ROB_SIZES

        return {
            "corpus": {"target": TARGET, "num_blocks": self.CORPUS_BLOCKS,
                       "shard_size": self.SHARD_SIZE, "seed": seed},
            "campaign": {
                "strategy": "grid", "strategy_options": {"mode": "product"},
                "axes": [{"field": "DispatchWidth",
                          "values": list(FIG5_DISPATCH_WIDTHS)},
                         {"field": "ReorderBufferSize",
                          "values": list(FIG5_ROB_SIZES)}],
                "split": "train", "max_blocks": self.CAMPAIGN_BLOCKS,
                "chunk_size": self.CHUNK_SIZE},
        }

    def setup(self, inputs: Dict[str, Any], directory: str,
              trace_path: Optional[str] = None) -> Dict[str, Any]:
        """Build the corpus, then read its length-capped train split back."""
        from repro.api import CorpusSpec, EvaluateSpec, Session
        from repro.bhive.dataset import LabeledBlock

        corpus = Session.from_spec(CorpusSpec(
            directory=os.path.join(directory, "corpus"), engine_workers=0,
            **inputs["corpus"])).build_corpus()
        train = corpus.split_view("train")
        kept = [LabeledBlock(block=block, timing=float(timing))
                for block, timing in zip(train, train.timings())
                if len(block) <= MAX_BLOCK_LENGTH]
        path = os.path.join(directory, "train.json")
        save_dataset(kept, corpus.uarch_name, inputs["corpus"]["seed"], path)
        session = Session.from_spec(EvaluateSpec(dataset_path=path,
                                                 engine_workers=0))
        blocks, _ = session.split("train")
        if len(blocks) < self.CAMPAIGN_BLOCKS:
            raise RuntimeError(f"only {len(blocks)} capped train blocks")
        return {"session": session, "inputs": inputs,
                "fingerprint": corpus.content_fingerprint()}

    def input_digest(self, state: Dict[str, Any]) -> str:
        return digest([state["inputs"], state["fingerprint"]])

    def main(self, state: Dict[str, Any], tracer: Any = None
             ) -> Tuple[Tuple[Any, Any], List[Tuple[float, float, float]]]:
        """The campaign and its re-run; the operations are their
        ``Session.predict`` calls (one per chunk, one for the base table),
        which run on the main thread alone."""
        import spans
        from repro.api.session import Session

        session, campaign = state["session"], state["inputs"]["campaign"]
        calls = spans.Tracer(clock=stamp)
        calls.patch(Session, "predict", "sweep.predict")
        try:
            outcome = session.run_campaign(campaign), session.run_campaign(campaign)
        finally:
            calls.restore()
        return outcome, [operation(record[spans.START], record[spans.END])
                         for record in calls.spans]

    def check(self, state: Dict[str, Any], outcome: Tuple[Any, Any]) -> Check:
        """The re-run's report must be byte-identical to the cold run's."""
        cold, rerun = outcome
        identical = (json.dumps(cold.report, sort_keys=True)
                     == json.dumps(rerun.report, sort_keys=True))
        mismatched = sum(first["error"] != second["error"] for first, second
                         in zip(cold.report["variants"], rerun.report["variants"]))
        failed = mismatched + abs(cold.num_variants - rerun.num_variants)
        best = min(cold.report["variants"], key=lambda variant: variant["error"])
        return Check(attempted=cold.num_variants + rerun.num_variants,
                     failed=failed, correct=identical and failed == 0,
                     notes={"pairs": 2 * (cold.num_variants + 1) * self.CAMPAIGN_BLOCKS,
                            "variants": cold.num_variants,
                            "best_assignment": best["assignment"],
                            "best_mape": best["error"],
                            "reports_identical": identical})

    def throughput(self, check: Check, main_s: float, raw_s: float) -> Dict[str, float]:
        pairs = check.notes["pairs"]
        return {"pairs_per_ref_s": pairs / main_s, "pairs_per_wall_s": pairs / raw_s}

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        return vm_hwm_mb()

    def close(self, state: Dict[str, Any]) -> None:
        pass


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
LAUNCHER = os.path.join(HERE, "serve_launcher.py")


class Server:
    """``repro serve`` on a bundle, in its own process (via the launcher)."""

    def __init__(self, bundle_path: str, trace_path: Optional[str] = None) -> None:
        command = [sys.executable, "-u", LAUNCHER, "--bundle", bundle_path]
        if trace_path is not None:
            command += ["--trace", trace_path]
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                        stderr=subprocess.STDOUT, text=True)
        self.port = None
        self.lines: List[str] = []
        for line in self.process.stdout:
            self.lines.append(line)
            if " on http://" in line:
                self.port = int(line.split(" on http://", 1)[1].split()[0]
                                .rsplit(":", 1)[1])
                break
        if self.port is None:
            self.process.wait(timeout=30)
            raise RuntimeError("server did not start:\n" + "".join(self.lines))
        # Keep draining output so the server never blocks on a full pipe.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Graceful SIGTERM shutdown; waits until the process has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)


class Connection:
    """One keep-alive HTTP/JSON connection; the benchmark's own client."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def predict(self, blocks: Sequence[str],
                trace_id: Optional[int] = None) -> Tuple[int, Dict[str, Any]]:
        body: Dict[str, Any] = {"blocks": list(blocks)}
        if trace_id is not None:
            body["trace_id"] = trace_id
        self.http.request("POST", "/predict", body=json.dumps(body),
                          headers={"Content-Type": "application/json"})
        response = self.http.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.http.close()


@dataclass
class Exchange:
    """One request as the client saw it."""

    index: int
    start: float
    end: float
    status: int
    payload: Dict[str, Any]


class Serve:
    """Closed-loop load on ``repro serve`` from two client connections."""

    name = "serve"
    IMPORTS = ("repro.api.session", "repro.api.bundle", "repro.bhive.generator",
               "repro.isa.parser", "numpy.random")
    #: Each unit replays the same requests on a fresh server; a request's
    #: latency is its median over three of them.  Pooled, the p99 followed
    #: the time the host stole (``steal`` in ``/proc/stat``): one unit's
    #: p99 moved from 6.5 to 9.0 ms with the same inputs.
    REPLAYS = 3
    NUM_REQUESTS = 3000
    BLOCKS_PER_REQUEST = 4
    HOT_BLOCKS = 256
    HOT_PROBABILITY = 0.5
    CLIENTS = 2

    def __init__(self) -> None:
        #: Expected timings per bundle manifest; every unit of a run exports
        #: the same bundle, so the reference session predicts only once.
        self._expected: Dict[str, Dict[str, float]] = {}

    def inputs(self, seed: int) -> Dict[str, Any]:
        """The hot set and the request stream; every other block is new."""
        from repro.bhive.generator import BlockGenerator

        block_seed, slot_seed = (
            int(value) % (1 << 31)
            for value in np.random.SeedSequence(seed).generate_state(2))
        rng = np.random.default_rng(slot_seed)
        slots = self.NUM_REQUESTS * self.BLOCKS_PER_REQUEST
        is_hot = rng.random(slots) < self.HOT_PROBABILITY
        hot_picks = rng.integers(0, self.HOT_BLOCKS, size=slots)
        needed = self.HOT_BLOCKS + int((~is_hot).sum())
        generator = BlockGenerator(seed=block_seed)
        distinct: List[str] = []
        seen = set()
        while len(distinct) < needed:
            for block in generator.generate_blocks(needed - len(distinct)):
                text = block_text(block)
                if len(block) <= MAX_BLOCK_LENGTH and text not in seen:
                    seen.add(text)
                    distinct.append(text)
        hot, fresh = distinct[:self.HOT_BLOCKS], iter(distinct[self.HOT_BLOCKS:])
        texts = [hot[hot_picks[slot]] if is_hot[slot] else next(fresh)
                 for slot in range(slots)]
        per = self.BLOCKS_PER_REQUEST
        return {"hot": hot, "requests": [texts[index * per:(index + 1) * per]
                                         for index in range(self.NUM_REQUESTS)]}

    def setup(self, inputs: Dict[str, Any], directory: str,
              trace_path: Optional[str] = None) -> Dict[str, Any]:
        """Bundle export, server boot, and a warm-up pass over the hot set."""
        from repro.api import BundleSpec, Session

        os.makedirs(directory, exist_ok=True)
        bundle_path = os.path.join(directory, "haswell.bundle")
        Session.from_spec(BundleSpec(target=TARGET, engine_workers=0)
                          ).export_bundle(bundle_path)
        server = Server(bundle_path, trace_path)
        try:
            connection = Connection(server.port)
            hot, per = inputs["hot"], self.BLOCKS_PER_REQUEST
            for start in range(0, len(hot), per):
                status, payload = connection.predict(hot[start:start + per])
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {payload}")
            connection.close()
        except BaseException:
            server.stop()
            raise
        return {"server": server, "bundle": bundle_path, "inputs": inputs}

    def input_digest(self, state: Dict[str, Any]) -> str:
        return digest(state["inputs"])

    def main(self, state: Dict[str, Any], tracer: Any = None
             ) -> Tuple[List[Exchange], List[Tuple[float, float]]]:
        """Every request; the operations are the requests, timed at the client."""
        requests = state["inputs"]["requests"]
        port = state["server"].port
        exchanges: List[Optional[Exchange]] = [None] * len(requests)
        barrier = threading.Barrier(self.CLIENTS)

        def client(worker: int) -> None:
            connection = Connection(port)
            barrier.wait()
            try:
                for index in range(worker, len(requests), self.CLIENTS):
                    if tracer is not None:
                        tracer.request.set(index)
                        record, token = tracer.open("serving.client")
                    started = time.perf_counter()
                    try:
                        status, payload = connection.predict(
                            requests[index],
                            trace_id=index if tracer is not None else None)
                    except (OSError, http.client.HTTPException, ValueError) as error:
                        connection.close()
                        connection = Connection(port)
                        status, payload = 0, {"error": str(error)}
                    ended = time.perf_counter()
                    if tracer is not None:
                        tracer.close(record, token)
                    exchanges[index] = Exchange(index, started, ended, status,
                                                payload)
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(worker,))
                   for worker in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = [exchange for exchange in exchanges if exchange is not None]
        return done, [(exchange.start, exchange.end) for exchange in done]

    def check(self, state: Dict[str, Any], outcome: List[Exchange]) -> Check:
        """Every served timing must equal a fresh ``Session.from_bundle`` predict.

        A non-200 response or a mismatched timing counts as a failed request.
        """
        from repro.api import Session
        from repro.api.bundle import read_manifest
        from repro.isa.parser import parse_block

        inputs = state["inputs"]
        key = digest(read_manifest(state["bundle"]).to_dict())
        if key not in self._expected:
            reference = Session.from_bundle(state["bundle"], engine_workers=0)
            unique = sorted({text for request in inputs["requests"]
                             for text in request})
            table = reference.adapter.opcode_table
            self._expected[key] = dict(zip(unique, (
                float(value) for value in reference.predict(
                    [parse_block(text, table) for text in unique]))))
        expected = self._expected[key]
        failed = len(inputs["requests"]) - len(outcome)
        hits = blocks = 0
        for exchange in outcome:
            want = [expected[text] for text in inputs["requests"][exchange.index]]
            if exchange.status != 200 or exchange.payload.get("timings") != want:
                failed += 1
                continue
            hits += exchange.payload["cache_hits"]
            blocks += len(want)
        return Check(attempted=len(inputs["requests"]), failed=failed,
                     correct=failed == 0,
                     notes={"cache_hit_ratio": hits / max(blocks, 1),
                            "requests": len(outcome)})

    def throughput(self, check: Check, main_s: float, raw_s: float) -> Dict[str, float]:
        requests = check.notes["requests"]
        return {"requests_per_ref_s": requests / main_s,
                "requests_per_wall_s": requests / raw_s}

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        return vm_hwm_mb(str(state["server"].pid))

    def close(self, state: Dict[str, Any]) -> None:
        state["server"].stop()


WORKLOADS = {workload.name: workload for workload in (Tune, Sweep, Serve)}
