"""The fault-tolerant matrix scheduler.

:func:`run_matrix` drives one :class:`~repro.distributed.spec.MatrixCampaignSpec`
to a terminal outcome per cell:

* cells share one on-disk :class:`~repro.corpus.sharded.ShardedCorpus` per
  target (built once, resumable), so block generation and ground-truth
  measurement are not repeated per simulator;
* an executor from the EXECUTORS registry runs up to ``capacity`` cells at
  a time; a failed attempt is retried with exponential backoff until
  ``max_retries`` is exhausted, at which point the cell lands in the
  failed-cell ledger *without* sinking its siblings;
* a slow attempt past ``cell_timeout_seconds`` is cancelled (counting as a
  failed attempt);
* with ``checkpoint_dir`` set, every terminal cell outcome is persisted in
  a fingerprint-pinned :class:`~repro.storage.PinnedManifest`;
  ``resume=True`` skips completed cells, and each cell's own campaign
  checkpoints live under
  ``<checkpoint_dir>/cells/<cell>`` so a killed *attempt* resumes its
  chunks too.

Determinism contract: a cell's result depends only on its concrete
:class:`~repro.campaigns.spec.CampaignSpec` (deterministic by the campaign
replay guarantee) and fault injection is attempt-number-based, so the
aggregate report is byte-identical across executors and across
kill/resume — the property the ``matrix_campaign`` bench scenario and the
resume tests assert.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import storage
from repro.api.registries import EXECUTORS
from repro.core.parameters import ParameterSpec
from repro.distributed.cells import make_task
from repro.distributed.report import build_matrix_report, write_report
from repro.distributed.spec import MatrixCampaignSpec, cell_key

logger = logging.getLogger(__name__)

#: Scheduler poll interval while cells are in flight.
_POLL_SECONDS = 0.01


def matrix_fingerprint(spec: MatrixCampaignSpec) -> str:
    """Digest of the matrix's result-determining identity, table sampler included."""
    payload = json.dumps(spec.identity_dict(), sort_keys=True).encode()
    return storage.digest(
        payload + f" sampler {ParameterSpec.SAMPLER_REVISION}".encode())[:16]


@dataclass
class MatrixResult:
    """Outcome of one matrix run (plain data)."""

    report: Dict[str, Any]
    report_path: Optional[str]
    #: Terminal outcome payload per cell (completed cells only).
    cell_outcomes: Dict[str, Dict[str, Any]]
    #: Cells served from the checkpoint without re-running.
    resumed_cells: List[str] = field(default_factory=list)
    #: Cells that reached a terminal outcome during this run.
    executed_cells: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def status(self) -> str:
        return self.report["status"]

    @property
    def failed_cells(self) -> List[Dict[str, Any]]:
        return self.report["failed_cells"]


@dataclass
class _CellState:
    """Scheduler bookkeeping for one not-yet-terminal cell."""

    key: str
    target: str
    simulator: str
    campaign_payload: Dict[str, Any]
    fail_attempts: int
    delay_seconds: float
    attempts: int = 0
    next_eligible: float = 0.0


def _final_status(outcomes: Dict[str, Dict[str, Any]], total_cells: int,
                  interrupted: bool) -> str:
    if interrupted or len(outcomes) < total_cells:
        return "interrupted"
    if any(outcome["status"] != "ok" for outcome in outcomes.values()):
        return "partial"
    return "complete"


def _build_shared_corpora(spec: MatrixCampaignSpec, pending: List[_CellState]):
    """One resumable on-disk corpus per distinct pending target.

    Every cell of a target points at its target's corpus, so block
    generation and measurement happen once per target, not per cell.
    Returns ``(corpus_path_by_target, temp_dir_holder)``; the holder keeps
    an anonymous corpus directory alive until the run finishes.  Skipped
    when the campaign body brings its own dataset.
    """
    if spec.campaign.get("dataset_path") is not None:
        return {}, None
    temp_dir = None
    corpus_root = spec.corpus_dir
    if corpus_root is None:
        if spec.checkpoint_dir is not None:
            corpus_root = os.path.join(spec.checkpoint_dir, "corpora")
        else:
            import tempfile

            temp_dir = tempfile.TemporaryDirectory(prefix="repro-matrix-")
            corpus_root = temp_dir.name
    from repro.corpus import ShardedCorpus

    paths: Dict[str, str] = {}
    for state in pending:
        if state.target in paths:
            continue
        probe = spec.cell_campaign(state.target, state.simulator)
        path = os.path.join(corpus_root, state.target)
        logger.info(f"building shared corpus for {state.target} "
                    f"({probe.num_blocks} blocks) at {path}")
        ShardedCorpus.build(path, uarch_name=state.target,
                            num_blocks=probe.num_blocks, seed=probe.seed,
                            resume=True)
        paths[state.target] = path
    return paths, temp_dir


def run_matrix(spec: Any, max_cells: Optional[int] = None) -> MatrixResult:
    """Run (or resume) a matrix campaign to per-cell terminal outcomes.

    ``max_cells`` stops the run after that many cells reach a terminal
    outcome *this run* (status ``"interrupted"``) — the hook the resume
    tests use to kill the matrix at every cell boundary.
    """
    if isinstance(spec, dict):
        spec = MatrixCampaignSpec.from_dict(spec)
    spec.validate()
    start = time.perf_counter()

    pairs = spec.resolve_cells()
    # Terminal cell outcomes; the campaign runner checkpoints a cell's chunks.
    checkpoint: Optional[storage.PinnedManifest] = None
    outcomes: Dict[str, Dict[str, Any]] = {}
    if spec.checkpoint_dir is not None:
        checkpoint = storage.PinnedManifest(spec.checkpoint_dir,
                                            owner="matrix spec")
        checkpoint.bind_fingerprint(matrix_fingerprint(spec), spec.resume)
        if spec.resume:
            outcomes = dict(checkpoint.entries)
        else:
            checkpoint.reset()
    resumed_cells = [cell_key(target, simulator)
                     for target, simulator in pairs
                     if cell_key(target, simulator) in outcomes]
    if resumed_cells:
        logger.info(f"resumed {len(resumed_cells)} completed cells: "
                    f"{', '.join(resumed_cells)}")

    cell_report_dir = spec.cell_report_dir
    if cell_report_dir is None and spec.checkpoint_dir is not None:
        cell_report_dir = os.path.join(spec.checkpoint_dir, "cell_reports")

    pending: List[_CellState] = []
    for target, simulator in pairs:
        key = cell_key(target, simulator)
        if key in outcomes:
            continue
        pending.append(_CellState(
            key=key, target=target, simulator=simulator,
            campaign_payload={},  # filled below once corpora exist
            fail_attempts=spec.fail_cells.get(key, 0),
            delay_seconds=float(spec.delay_cells.get(key, 0.0))))

    corpus_paths, temp_corpus = _build_shared_corpora(spec, pending)
    for state in pending:
        cell_checkpoint = (os.path.join(spec.checkpoint_dir, "cells", state.key)
                           if spec.checkpoint_dir is not None else None)
        report_path = (os.path.join(cell_report_dir,
                                    f"{state.key}.campaign_report.json")
                       if cell_report_dir is not None else None)
        state.campaign_payload = spec.cell_campaign(
            state.target, state.simulator,
            corpus_path=corpus_paths.get(state.target),
            checkpoint_dir=cell_checkpoint, resume=cell_checkpoint is not None,
            report_path=report_path).to_dict()

    executor = EXECUTORS.get(spec.executor)(spec)
    executed_cells: List[str] = []
    interrupted = False
    total_cells = len(pairs)

    def write_running_report() -> None:
        if spec.report_path is not None:
            write_report(spec.report_path,
                         build_matrix_report(spec, outcomes, "running"))

    def record_terminal(state: _CellState, payload: Dict[str, Any]) -> None:
        outcomes[state.key] = payload
        executed_cells.append(state.key)
        if checkpoint is not None:
            checkpoint.record(state.key, payload)
        write_running_report()

    try:
        queue: List[_CellState] = list(pending)
        in_flight: Dict[str, Any] = {}  # cell key -> (handle, state, started)
        while queue or in_flight:
            if interrupted:
                break
            now = time.monotonic()
            # Fill free capacity with the first eligible (backoff-respecting)
            # queued cells, preserving canonical order.
            for state in list(queue):
                if len(in_flight) >= executor.capacity:
                    break
                if state.next_eligible > now:
                    continue
                queue.remove(state)
                state.attempts += 1
                task = make_task(state.key, state.target, state.simulator,
                                 state.attempts, state.campaign_payload,
                                 fail_attempts=state.fail_attempts,
                                 delay_seconds=state.delay_seconds)
                logger.info(f"cell {state.key}: attempt {state.attempts} "
                            f"of {spec.max_retries + 1}")
                in_flight[state.key] = (executor.submit(task), state,
                                        time.monotonic())
            progressed = False
            for key, (handle, state, started) in list(in_flight.items()):
                outcome = handle.poll()
                if (outcome is None and spec.cell_timeout_seconds is not None
                        and time.monotonic() - started
                        >= spec.cell_timeout_seconds):
                    outcome = handle.cancel(
                        f"cell exceeded timeout of "
                        f"{spec.cell_timeout_seconds}s")
                if outcome is None:
                    continue
                progressed = True
                del in_flight[key]
                if outcome["status"] == "ok":
                    record_terminal(state, {
                        "status": "ok", "target": state.target,
                        "simulator": state.simulator,
                        "attempts": state.attempts,
                        "report": outcome["report"],
                        "num_variants": outcome["num_variants"]})
                    logger.info(f"cell {state.key}: completed "
                                f"({outcome['num_variants']} variants)")
                elif state.attempts > spec.max_retries:
                    record_terminal(state, {
                        "status": "failed", "target": state.target,
                        "simulator": state.simulator,
                        "attempts": state.attempts,
                        "error": outcome["error"],
                        "traceback": outcome.get("traceback")})
                    logger.warning(f"cell {state.key}: FAILED after "
                                   f"{state.attempts} attempts: {outcome['error']}")
                else:
                    backoff = (spec.retry_backoff_seconds
                               * (2 ** (state.attempts - 1)))
                    state.next_eligible = time.monotonic() + backoff
                    queue.append(state)
                    logger.warning(f"cell {state.key}: attempt "
                                   f"{state.attempts} failed ({outcome['error']}); "
                                   f"retrying in {backoff:.2f}s")
                if (max_cells is not None
                        and len(executed_cells) >= max_cells):
                    interrupted = True
                    break
            if interrupted:
                # Cells still in flight stay non-terminal: a resume re-runs
                # them from their own campaign checkpoints.
                for key, (handle, state, _) in list(in_flight.items()):
                    handle.cancel("matrix interrupted")
                in_flight.clear()
                break
            if not progressed and (queue or in_flight):
                time.sleep(_POLL_SECONDS)
    finally:
        executor.close()
        if temp_corpus is not None:
            temp_corpus.cleanup()

    status = _final_status(outcomes, total_cells, interrupted)
    report = build_matrix_report(spec, outcomes, status)
    if spec.report_path is not None:
        write_report(spec.report_path, report)
    return MatrixResult(report=report, report_path=spec.report_path,
                        cell_outcomes=dict(outcomes),
                        resumed_cells=resumed_cells,
                        executed_cells=executed_cells,
                        elapsed_seconds=time.perf_counter() - start)
