"""The campaign runner: expand a spec into table variants and evaluate them.

Execution model:

* the strategy proposes rounds of variant assignments (see
  :mod:`repro.campaigns.strategies`);
* each round is cut into ``chunk_size`` chunks, and each chunk becomes one
  batched :class:`~repro.engine.engine.SimulationEngine` call through the
  session's shared adapter — so the per-digest result cache, the megabatch
  kernels, and the process pool all apply, and repeated variants (adaptive
  survivors, repeated campaigns on one session) hit cache;
* with ``checkpoint_dir`` set, every finished chunk is persisted through
  :class:`~repro.pipeline.checkpoint.CheckpointStore` (payload + rng stream
  position).  Resume is a *deterministic replay*: the rng stream is consumed
  identically whether a chunk is recomputed or loaded, so a killed campaign
  resumed with ``resume=True`` produces a byte-identical report.  JSON float
  serialization round-trips exactly, which makes the replay bit-identical.

The streamed report (``report_path``) is rewritten atomically after every
chunk, so long campaigns can be watched mid-flight.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import storage
from repro.api.registries import SIMULATORS, STRATEGIES
from repro.campaigns.report import build_report, write_report
from repro.campaigns.spec import (SAMPLE_KEY, AxisSpec, CampaignSpec,
                                  ResolvedAxis, resolve_axes, resolve_axis)
from repro.eval.metrics import mean_absolute_percentage_error


def campaign_fingerprint(spec: CampaignSpec, blocks: Sequence[Any],
                         timings: np.ndarray) -> str:
    """Digest identifying one campaign problem (spec identity + corpus).

    Execution-only knobs are excluded (see
    :meth:`~repro.campaigns.spec.CampaignSpec.identity_dict`) so an
    interrupted run and its ``resume=True`` continuation bind the same
    checkpoint directory.
    """
    digest = storage.hasher()
    digest.update(json.dumps(spec.identity_dict(), sort_keys=True).encode())
    digest.update(np.ascontiguousarray(
        np.asarray(timings, dtype=np.float64)).tobytes())
    for block in blocks:
        digest.update(repr(block.structural_key()).encode())
    return digest.hexdigest()[:16]


@dataclass
class CampaignResult:
    """Outcome of one campaign run (plain data)."""

    report: Dict[str, Any]
    report_path: Optional[str]
    #: Variants evaluated (or replayed) across all rounds.
    num_variants: int
    resumed_chunks: int
    executed_chunks: int
    elapsed_seconds: float

    @property
    def variants(self) -> List[Dict[str, Any]]:
        return self.report["variants"]

    @property
    def best_variants(self) -> List[Dict[str, Any]]:
        return self.report.get("best_variants", [])

    @property
    def status(self) -> str:
        return self.report["status"]


class CampaignRunner:
    """Execute one :class:`CampaignSpec` through a :class:`Session`.

    A session may be supplied to share its adapter (and therefore its engine
    result cache) across campaigns; it must agree with the spec on the
    simulator and the evaluation corpus.  Without one, the runner builds a
    session from the spec.
    """

    def __init__(self, spec: CampaignSpec, session: Any = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        spec.validate()
        self.spec = spec
        if session is None:
            from repro.api.session import Session

            session = Session(spec, log=log)
        else:
            self._check_session(spec, session)
        self.session = session
        self.log = log or getattr(session, "log", None) or (lambda message: None)

    @staticmethod
    def _check_session(spec: CampaignSpec, session: Any) -> None:
        theirs = SIMULATORS.resolve(session.spec.simulator)
        ours = SIMULATORS.resolve(spec.simulator)
        if theirs != ours:
            raise ValueError(f"session simulator {theirs!r} does not match "
                             f"campaign simulator {ours!r}")
        for field_name in ("dataset_path", "corpus_path", "num_blocks", "seed",
                           "narrow_sampling"):
            theirs = session._spec_get(field_name)
            ours = getattr(spec, field_name)
            if theirs is not None and theirs != ours:
                raise ValueError(
                    f"session {field_name}={theirs!r} does not match "
                    f"campaign {field_name}={ours!r}; campaigns evaluate on "
                    f"the session's dataset")

    def run(self, max_chunks: Optional[int] = None) -> CampaignResult:
        """Run (or resume) the campaign.

        ``max_chunks`` stops after that many processed chunks with status
        ``"interrupted"`` — the hook the resume tests use to simulate a
        killed campaign at every checkpoint boundary.
        """
        start = time.perf_counter()
        spec = self.spec
        session = self.session
        adapter = session.adapter
        axes = resolve_axes(list(spec.axes), spec.simulator)
        axes_by_label = {axis.label: axis for axis in axes}
        base_table = session.load_table_or_default(spec.table_path)
        blocks, timings = session.split(spec.split)
        if spec.max_blocks is not None:
            blocks = blocks[:spec.max_blocks]
            timings = timings[:spec.max_blocks]
        if not blocks:
            raise ValueError("campaign has no evaluation blocks")
        baseline_error = float(mean_absolute_percentage_error(
            session.predict(blocks, base_table), timings))

        store = None
        if spec.checkpoint_dir is not None:
            from repro.pipeline.checkpoint import CheckpointStore

            store = CheckpointStore(spec.checkpoint_dir)
            store.bind_fingerprint(campaign_fingerprint(spec, blocks, timings),
                                   spec.resume)
            if not spec.resume:
                store.reset()

        strategy = STRATEGIES.get(spec.strategy)(
            axes, spec.num_variants, spec.strategy_options)
        rng = np.random.default_rng(spec.seed)
        parameter_spec = adapter.parameter_spec()
        #: Full-table draw index -> sampled ParameterArrays (kept so adaptive
        #: survivors are re-evaluated without redrawing).
        samples: Dict[int, Any] = {}
        records: List[Dict[str, Any]] = []
        resumed_chunks = executed_chunks = processed_chunks = 0
        interrupted = False

        while not interrupted:
            round_ = strategy.propose(rng)
            if round_ is None:
                break
            subset_len = max(1, math.ceil(round_.block_fraction * len(blocks)))
            subset, subset_timings = blocks[:subset_len], timings[:subset_len]
            num_chunks = math.ceil(len(round_.assignments) / spec.chunk_size)
            round_errors: List[float] = []
            for chunk_index in range(num_chunks):
                if max_chunks is not None and processed_chunks >= max_chunks:
                    interrupted = True
                    break
                chunk = round_.assignments[chunk_index * spec.chunk_size:
                                           (chunk_index + 1) * spec.chunk_size]
                # Replay determinism: full-table draws consume the rng stream
                # whether or not this chunk is served from its checkpoint.
                for assignment in chunk:
                    draw = assignment.get(SAMPLE_KEY)
                    if draw is not None and draw not in samples:
                        samples[draw] = parameter_spec.sample(rng)
                stage = f"round{round_.index:03d}_chunk{chunk_index:04d}"
                if store is not None and spec.resume and store.is_complete(stage):
                    payload = store.load_json(stage, "chunk.json")
                    errors = [float(error) for error in payload["errors"]]
                    resumed_chunks += 1
                else:
                    tables = [self._variant_table(assignment, base_table, axes,
                                                  samples, adapter)
                              for assignment in chunk]
                    predictions = session.predict(subset, tables)
                    errors = [float(mean_absolute_percentage_error(
                        row, subset_timings)) for row in predictions]
                    if store is not None:
                        store.save_json(stage, "chunk.json",
                                        {"assignments": chunk, "errors": errors})
                        store.mark_complete(stage, rng)
                    executed_chunks += 1
                processed_chunks += 1
                for assignment, error in zip(chunk, errors):
                    records.append({"round": round_.index,
                                    "block_fraction": round_.block_fraction,
                                    "assignment": dict(assignment),
                                    "error": error})
                round_errors.extend(errors)
                if spec.report_path is not None:
                    write_report(spec.report_path,
                                 build_report(spec, list(axes_by_label), records,
                                              baseline_error, "running"))
                self.log(f"[campaign] round {round_.index} chunk "
                         f"{chunk_index + 1}/{num_chunks}: "
                         f"{len(records)} variants evaluated")
            else:
                strategy.observe(round_, round_errors)

        status = "interrupted" if interrupted else "complete"
        report = build_report(spec, list(axes_by_label), records,
                              baseline_error, status)
        if spec.report_path is not None:
            write_report(spec.report_path, report)
        return CampaignResult(report=report, report_path=spec.report_path,
                              num_variants=len(records),
                              resumed_chunks=resumed_chunks,
                              executed_chunks=executed_chunks,
                              elapsed_seconds=time.perf_counter() - start)

    @staticmethod
    def _variant_table(assignment: Dict[str, int], base_table: Any,
                       axes: Sequence[ResolvedAxis], samples: Dict[int, Any],
                       adapter: Any) -> Any:
        draw = assignment.get(SAMPLE_KEY)
        if draw is not None:
            return adapter.native_table(samples[draw])
        table = base_table.copy()
        for axis in axes:
            value = assignment.get(axis.label)
            if value is not None:
                axis.apply(table, value)
        return table


def run_campaign(spec: Any, session: Any = None,
                 log: Optional[Callable[[str], None]] = None,
                 max_chunks: Optional[int] = None) -> CampaignResult:
    """Run a campaign from a :class:`CampaignSpec` or a plain spec dict."""
    if isinstance(spec, dict):
        spec = CampaignSpec.from_dict(spec)
    return CampaignRunner(spec, session=session, log=log).run(max_chunks=max_chunks)


def sweep_error_curve(table: Any, dataset: Any, field: str,
                      values: Sequence[int], max_blocks: Optional[int] = None,
                      simulator: str = "mca",
                      engine: Any = None) -> List[Tuple[int, float]]:
    """Error curve of one axis swept over a dataset's test split.

    The single-axis backbone of the Figure-5 sensitivity curves: one
    batched engine call over the swept tables, so each block compiles once
    and is reused for every value.
    """
    plugin = SIMULATORS.get(simulator)
    examples = dataset.test_examples
    if max_blocks is not None:
        examples = examples[:max_blocks]
    blocks = [example.block for example in examples]
    targets = np.array([example.timing for example in examples])
    axis = resolve_axis(AxisSpec(field=field,
                                 values=[int(value) for value in values]),
                        plugin)
    candidates = []
    for value in axis.values:
        candidate = table.copy()
        axis.apply(candidate, value)
        candidates.append(candidate)
    if engine is None:
        engine = plugin.engine_factory()
    predictions = engine.run(candidates, blocks)
    return [(int(value), mean_absolute_percentage_error(row, targets))
            for value, row in zip(axis.values, predictions)]
