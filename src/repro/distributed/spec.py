"""Declarative matrix-campaign specifications.

A matrix campaign fans **one** campaign body (a
:class:`~repro.campaigns.spec.CampaignSpec` minus its ``target`` /
``simulator`` identity) across a grid of *cells* — one campaign per
``(target, simulator)`` pair — and aggregates the per-cell reports into a
single comparison matrix.  The cell set is either explicit (``cells``) or
derived from the registries: by default every registered target crossed
with every simulator that can sweep the campaign's axes.

Execution knobs name a pluggable executor from the EXECUTORS registry
(inline / local process pool / remote workers), per-cell retry with
exponential backoff, per-cell timeouts, and checkpoint-backed resume.  Like
every other :mod:`repro.api` spec, the whole thing round-trips through JSON
and validates eagerly — each cell's concrete :class:`CampaignSpec` is
constructed and validated up front, so an axis one simulator cannot sweep
fails before any cell runs, naming the offending cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.registries import EXECUTORS, SIMULATORS, TARGETS
from repro.api.specs import SpecValidationError, _SpecBase, resolve_registry_key
from repro.campaigns.spec import CampaignSpec

#: CampaignSpec fields the matrix layer owns; the campaign body may not
#: set them (identity comes from the cell, execution from the matrix).
_RESERVED_CAMPAIGN_FIELDS = ("target", "simulator", "corpus_path",
                             "checkpoint_dir", "resume", "report_path")


def cell_key(target: str, simulator: str) -> str:
    """Stable cell identifier: ``<target>__<simulator>``."""
    return f"{target}__{simulator}"


def _check_list(name: str, value: Any, items: str) -> None:
    """Reject a non-list ``value`` (a string would iterate by character)."""
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(
            name, f"expected a list of {items}, got {type(value).__name__} "
                  f"({value!r})")


def _resolve_keys(name: str, values: Optional[List[Any]], registry: Any) -> List[str]:
    """Every registry key of ``values`` (``None``: the whole registry)."""
    if values is None:
        return registry.names()
    _check_list(name, values, f"{registry.kind} names")
    return [resolve_registry_key(f"{name}[{index}]", value, registry)
            for index, value in enumerate(values)]


@dataclass
class MatrixCampaignSpec(_SpecBase):
    """One campaign body × a grid of (target, simulator) cells.

    ``campaign`` is a plain :class:`CampaignSpec` payload dict without the
    reserved identity/execution fields.  ``targets`` / ``simulators``
    default to the full registries; an explicit ``cells`` list of
    ``{"target": ..., "simulator": ...}`` dicts overrides both.  Fault
    injection (``fail_cells``) deterministically fails the first N attempts
    of named cells — the hook the retry/ledger tests and the failure
    acceptance criterion are built on, and part of the spec's identity so
    an injected failure replays identically on resume.
    """

    #: The shared campaign body (CampaignSpec fields minus the reserved ones).
    campaign: Dict[str, Any] = field(default_factory=dict)
    #: Target registry keys; ``None`` = every registered target.
    targets: Optional[List[str]] = None
    #: Simulator registry keys; ``None`` = every registered simulator.
    simulators: Optional[List[str]] = None
    #: Explicit cell list (overrides ``targets`` × ``simulators``).
    cells: Optional[List[Dict[str, str]]] = None
    #: EXECUTORS registry key: ``inline``, ``pool``, or ``remote``.
    executor: str = "inline"
    #: Concurrent cells for the ``pool`` executor.
    workers: int = 2
    #: Worker base URLs (``http://host:port``) for the ``remote`` executor.
    worker_urls: List[str] = field(default_factory=list)
    #: Failed cells are retried up to this many times (attempts = retries+1).
    max_retries: int = 2
    #: First-retry delay; doubles per subsequent retry of the same cell.
    retry_backoff_seconds: float = 0.25
    #: Kill a cell attempt running longer than this (``None`` = no limit).
    cell_timeout_seconds: Optional[float] = None
    #: Remote-worker liveness probe interval while a cell is in flight.
    heartbeat_seconds: float = 5.0
    #: Where shared per-target corpora live; ``None`` uses
    #: ``<checkpoint_dir>/corpora`` (or a temporary directory without one).
    corpus_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    #: Aggregate ``matrix_report.json`` destination.
    report_path: Optional[str] = None
    #: Per-cell ``campaign_report.json`` directory; ``None`` uses
    #: ``<checkpoint_dir>/cell_reports`` when checkpointing, else skips them.
    cell_report_dir: Optional[str] = None
    #: Deterministic fault injection: cell key -> fail the first N attempts
    #: (``-1`` = every attempt, landing the cell in the failed ledger).
    fail_cells: Dict[str, int] = field(default_factory=dict)
    #: Deterministic slow-down: cell key -> seconds slept per attempt
    #: (execution-only; drives the timeout/disconnect tests).
    delay_cells: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Cell resolution
    # ------------------------------------------------------------------
    def resolve_cells(self) -> List[Tuple[str, str]]:
        """The ordered, canonical ``(target, simulator)`` grid.

        A malformed or unknown entry raises :class:`SpecValidationError`
        naming it (``targets[i]``, ``simulators[i]``, ``cells[i].target``
        or ``cells[i].simulator``) with the registry's suggestion.
        """
        if self.cells is not None:
            _check_list("cells", self.cells, "{'target': ..., 'simulator': ...} dicts")
            resolved = []
            for index, cell in enumerate(self.cells):
                if (not isinstance(cell, dict) or "target" not in cell
                        or "simulator" not in cell):
                    raise SpecValidationError(
                        f"cells[{index}]",
                        f"expected {{'target': ..., 'simulator': ...}}, "
                        f"got {cell!r}")
                resolved.append(
                    (resolve_registry_key(f"cells[{index}].target", cell["target"], TARGETS),
                     resolve_registry_key(f"cells[{index}].simulator", cell["simulator"],
                                  SIMULATORS)))
        else:
            targets = _resolve_keys("targets", self.targets, TARGETS)
            simulators = _resolve_keys("simulators", self.simulators, SIMULATORS)
            resolved = [(target, simulator) for target in targets
                        for simulator in simulators]
        seen: Dict[Tuple[str, str], int] = {}
        for index, pair in enumerate(resolved):
            if pair in seen:
                raise SpecValidationError(
                    "cells", f"duplicate cell {cell_key(*pair)!r} "
                             f"(positions {seen[pair]} and {index})")
            seen[pair] = index
        if not resolved:
            raise SpecValidationError("cells", "matrix has no cells")
        return resolved

    def cell_campaign(self, target: str, simulator: str,
                      corpus_path: Optional[str] = None,
                      checkpoint_dir: Optional[str] = None,
                      resume: bool = False,
                      report_path: Optional[str] = None) -> CampaignSpec:
        """The concrete :class:`CampaignSpec` of one cell."""
        payload = dict(self.campaign)
        payload["target"] = target
        payload["simulator"] = simulator
        if corpus_path is not None:
            payload["corpus_path"] = corpus_path
        if checkpoint_dir is not None:
            payload["checkpoint_dir"] = checkpoint_dir
            payload["resume"] = resume
        if report_path is not None:
            payload["report_path"] = report_path
        return CampaignSpec.from_dict(payload)

    # ------------------------------------------------------------------
    # Validation / identity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not isinstance(self.campaign, dict):
            raise SpecValidationError(
                "campaign", f"expected a CampaignSpec payload dict, "
                            f"got {type(self.campaign).__name__}")
        for reserved in _RESERVED_CAMPAIGN_FIELDS:
            if reserved in self.campaign:
                raise SpecValidationError(
                    f"campaign.{reserved}",
                    "is owned by the matrix layer (cells set their own "
                    "identity; checkpoints/reports/corpora come from the "
                    "matrix spec)")
        self._check_registry("executor", EXECUTORS)
        self._check_positive("workers")
        if not isinstance(self.worker_urls, (list, tuple)) or not all(
                isinstance(url, str) for url in self.worker_urls):
            raise SpecValidationError(
                "worker_urls", f"expected a list of http://host:port strings, "
                               f"got {self.worker_urls!r}")
        if EXECUTORS.resolve(self.executor) == "remote" and not self.worker_urls:
            raise SpecValidationError(
                "worker_urls", "the remote executor needs at least one worker "
                               "URL (start workers with 'repro worker')")
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise SpecValidationError(
                "max_retries", f"expected an int >= 0, got {self.max_retries!r}")
        if (not isinstance(self.retry_backoff_seconds, (int, float))
                or self.retry_backoff_seconds < 0):
            raise SpecValidationError(
                "retry_backoff_seconds",
                f"expected a number >= 0, got {self.retry_backoff_seconds!r}")
        if self.cell_timeout_seconds is not None and (
                not isinstance(self.cell_timeout_seconds, (int, float))
                or self.cell_timeout_seconds <= 0):
            raise SpecValidationError(
                "cell_timeout_seconds",
                f"expected a positive number, got {self.cell_timeout_seconds!r}")
        if (not isinstance(self.heartbeat_seconds, (int, float))
                or self.heartbeat_seconds <= 0):
            raise SpecValidationError(
                "heartbeat_seconds",
                f"expected a positive number, got {self.heartbeat_seconds!r}")
        for name in ("corpus_dir", "checkpoint_dir", "report_path",
                     "cell_report_dir"):
            self._check_type(name, (str,), allow_none=True)
        self._check_type("resume", (bool,))
        if self.resume and self.checkpoint_dir is None:
            raise SpecValidationError("resume", "requires checkpoint_dir to be set")
        pairs = self.resolve_cells()
        keys = {cell_key(target, simulator) for target, simulator in pairs}
        for injection, expected in (("fail_cells", int), ("delay_cells", (int, float))):
            mapping = getattr(self, injection)
            if not isinstance(mapping, dict):
                raise SpecValidationError(
                    injection, f"expected a dict keyed by cell, got {mapping!r}")
            for key, value in mapping.items():
                if key not in keys:
                    raise SpecValidationError(
                        f"{injection}[{key!r}]",
                        f"names no cell of this matrix (cells: "
                        f"{', '.join(sorted(keys))})")
                if isinstance(value, bool) or not isinstance(value, expected):
                    raise SpecValidationError(
                        f"{injection}[{key!r}]", f"bad value {value!r}")
        # Each cell's concrete campaign must itself be valid — catches axes
        # a cell's simulator cannot sweep before anything executes.
        for target, simulator in pairs:
            try:
                self.cell_campaign(target, simulator).validate()
            except SpecValidationError as error:
                raise SpecValidationError(
                    f"campaign.{error.field}",
                    f"invalid for cell {cell_key(target, simulator)!r}: "
                    f"{str(error).split(': ', 1)[-1]}") from error

    def identity_dict(self) -> Dict[str, Any]:
        """The result-determining fields, for fingerprints and reports.

        Execution-only knobs (executor choice, worker counts/URLs, backoff
        pacing, timeouts, every directory/path) are excluded: a matrix run
        inline or across a pool, interrupted or resumed, from any corpus
        directory, must emit a byte-identical aggregate report.
        ``fail_cells`` stays — an injected failure *is* part of the result
        (it lands in the failed-cell ledger) — as does ``max_retries``,
        which fixes the attempt count a ledger entry records.
        """
        payload = self.to_dict()
        for key in ("executor", "workers", "worker_urls",
                    "retry_backoff_seconds", "cell_timeout_seconds",
                    "heartbeat_seconds", "corpus_dir",
                    "checkpoint_dir", "resume", "report_path",
                    "cell_report_dir", "delay_cells"):
            payload.pop(key)
        return payload
