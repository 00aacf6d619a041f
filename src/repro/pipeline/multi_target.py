"""Fan a tuning run out over several microarchitecture targets.

``repro tune --targets haswell ivybridge skylake zen2`` runs one
:meth:`Session.tune() <repro.api.session.Session.tune>` per target, each from
its own :class:`~repro.api.specs.TuneSpec`.  Targets are independent —
separate datasets, adapters, checkpoints — so they fan out across a process
pool: a module-level, picklable task function, the ``fork``-preferring
context of :func:`~repro.engine.engine.process_context`, and deterministic
per-target results regardless of scheduling.  ``workers <= 1`` runs the
targets sequentially in-process.

Give every spec its own ``checkpoint_dir`` (``repro tune`` uses
``<checkpoint_root>/<target>/``) and a killed multi-target run resumes per
target: finished targets replay instantly from their final-stage artifacts,
the interrupted one picks up at its first incomplete stage.

:mod:`repro.api` is imported inside the functions, so
:mod:`repro.core.difftune` can import :mod:`repro.pipeline` first.
"""

from __future__ import annotations

import logging
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.engine.engine import process_context

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.specs import TuneSpec

logger = logging.getLogger(__name__)


@dataclass
class TargetOutcome:
    """Result of tuning one target (plain data, returned across processes)."""

    target: str
    completed: bool
    train_error: Optional[float] = None
    test_error: Optional[float] = None
    default_test_error: Optional[float] = None
    elapsed_seconds: float = 0.0
    resumed_stages: List[str] = field(default_factory=list)
    #: The learned native parameter table; ``None`` unless the run completed.
    learned_table: Optional[Any] = None
    stopped_after: Optional[str] = None
    #: ``"ExceptionType: message"`` when the target's run raised (the
    #: fan-out records the failure instead of sinking its siblings).
    error: Optional[str] = None
    #: Full traceback text of the failure, for post-mortem without re-running.
    traceback: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def tune_target(spec: "TuneSpec") -> TargetOutcome:
    """Run ``Session.tune()`` for one target (module-level: pool-picklable).

    One crashing target must not abort the fan-out: an exception comes back
    as a failed outcome carrying ``error`` and ``traceback``, so siblings
    finish and the caller decides what a partial result is worth.
    ``elapsed_seconds`` covers the whole target, dataset build included.
    """
    from repro.api.session import Session

    start_time = time.time()
    try:
        result = Session.from_spec(spec).tune()
    except Exception as error:  # noqa: BLE001 - converted to outcome data
        return TargetOutcome(
            target=spec.target, completed=False,
            elapsed_seconds=time.time() - start_time,
            error=f"{type(error).__name__}: {error}",
            traceback=traceback_module.format_exc())
    return TargetOutcome(target=spec.target, completed=result.completed,
                         train_error=result.train_error,
                         test_error=result.test_error,
                         default_test_error=result.default_test_error,
                         elapsed_seconds=time.time() - start_time,
                         resumed_stages=result.resumed_stages,
                         learned_table=result.learned_table,
                         stopped_after=result.stopped_after)


def tune_targets(specs: Sequence["TuneSpec"], workers: int = 0
                 ) -> Dict[str, TargetOutcome]:
    """Tune every target, fanning out across processes when ``workers > 1``.

    Every spec is validated, and the targets checked for duplicates (aliases
    included), before any target runs.  Returns outcomes keyed by each
    spec's ``target``, in input order.  The parallel path produces the same
    outcomes as the sequential one — each target's run is fully determined
    by its spec.  A pool worker that dies (killed, out of memory) breaks
    the pool: targets that finished keep their outcomes, and every other
    target gets a failed outcome naming ``BrokenProcessPool``.  Each run
    logs its stages under ``repro.*``; pool workers inherit the parent's
    logging setup when forked, so parallel targets' lines interleave.
    """
    from repro.api.registries import TARGETS
    from repro.api.specs import SpecValidationError

    seen: Dict[str, str] = {}
    for spec in specs:
        spec.validate()
        key = TARGETS.resolve(spec.target)
        if key in seen:
            raise SpecValidationError(
                "target", f"duplicate targets: {seen[key]!r} and "
                          f"{spec.target!r} both name {key!r}")
        seen[key] = spec.target
    if workers > 1 and len(specs) > 1:
        processes = min(workers, len(specs))
        logger.info(f"tuning {len(specs)} targets across {processes} worker processes")
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=process_context()) as pool:
            futures = [pool.submit(tune_target, spec) for spec in specs]
            outcomes = []
            for spec, future in zip(specs, futures):
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as error:
                    outcomes.append(TargetOutcome(
                        target=spec.target, completed=False,
                        error=f"{type(error).__name__}: {error}",
                        traceback=traceback_module.format_exc()))
    else:
        outcomes = []
        for spec in specs:
            logger.info(f"tuning target {spec.target}")
            outcomes.append(tune_target(spec))
    return {outcome.target: outcome for outcome in outcomes}
