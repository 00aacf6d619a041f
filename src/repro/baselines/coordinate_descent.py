"""Greedy coordinate-descent baseline over named parameter fields.

This is the "manual tuning, automated" baseline: sweep one parameter field at
a time over a small candidate range, keep the best value, and repeat.  It is
much more sample-efficient than global black-box search when parameters are
nearly independent (the global DispatchWidth sweep of Figure 5 is exactly one
such coordinate sweep), but it cannot capture interactions between fields —
which is the regime DiffTune's joint gradient-based optimization targets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.search import CandidateScorer
from repro.core.adapters import SimulatorAdapter
from repro.core.parameters import ParameterArrays
from repro.isa.basic_block import BasicBlock

logger = logging.getLogger(__name__)


#: Full passes over the parameter fields.
ROUNDS = 2
#: Values tried per field per pass (evenly spread over the field's sampling
#: range).
CANDIDATES_PER_FIELD = 5


@dataclass
class CoordinateDescentConfig:
    """Hyper-parameters of the coordinate-descent baseline.

    Attributes:
        evaluation_budget: Total block evaluations allowed; the sweep stops
            early when the budget runs out.
        blocks_per_evaluation: Blocks drawn per candidate evaluation.
        seed: Random seed.
    """

    evaluation_budget: int = 20_000
    blocks_per_evaluation: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.blocks_per_evaluation < 1:
            raise ValueError("blocks_per_evaluation must be >= 1")


@dataclass
class CoordinateDescentResult:
    """Outcome of a coordinate-descent run."""

    best_arrays: ParameterArrays
    best_error: float
    evaluations: int
    sweep_history: List[Tuple[str, float, float]]
    """Per-sweep records of ``(field name, chosen value, batch error)``."""


class CoordinateDescentTuner:
    """Sweeps one parameter field at a time, keeping improvements."""

    def __init__(self, adapter: SimulatorAdapter,
                 config: Optional[CoordinateDescentConfig] = None) -> None:
        self.adapter = adapter
        self.config = config or CoordinateDescentConfig()

    def tune(self, blocks: Sequence[BasicBlock],
             true_timings: np.ndarray,
             initial_arrays: Optional[ParameterArrays] = None) -> CoordinateDescentResult:
        """Sweep fields to minimize MAPE on ``blocks``.

        Args:
            blocks: Evaluation blocks.
            true_timings: Ground-truth timings aligned with ``blocks``.
            initial_arrays: Starting point; defaults to a random sample from
                the parameter sampling distribution (never the expert table,
                to keep the comparison with DiffTune from-scratch).
        """
        spec = self.adapter.parameter_spec()
        config = self.config
        rng = np.random.default_rng(config.seed)
        scorer = CandidateScorer(self.adapter, blocks, true_timings, rng,
                                 blocks_per_evaluation=config.blocks_per_evaluation,
                                 budget=config.evaluation_budget)

        current = (initial_arrays.copy() if initial_arrays is not None
                   else spec.sample(rng))
        (current_score,) = scorer.score([current])
        history: List[Tuple[str, float, float]] = []

        # A per-instruction candidate sets the *whole column* for its field:
        # the per-opcode resolution that DiffTune has is deliberately absent.
        fields = ([(field.name, True) for field in spec.global_fields]
                  + [(field.name, False) for field in spec.per_instruction_fields])

        for _ in range(ROUNDS):
            for name, is_global in fields:
                if not scorer.affords(CANDIDATES_PER_FIELD):
                    break
                field_ = spec.field_by_name(name)
                candidates = np.linspace(field_.sample_low, field_.sample_high,
                                         CANDIDATES_PER_FIELD)
                best_value: Optional[float] = None
                for value in candidates:
                    candidate = current.copy()
                    if is_global:
                        candidate.global_values[spec.global_field_slice(name)] = value
                    else:
                        candidate.per_instruction_values[
                            :, spec.per_instruction_field_slice(name)] = value
                    (score,) = scorer.score([candidate])
                    if score < current_score:
                        current, current_score = candidate, score
                        best_value = float(value)
                if best_value is not None:
                    history.append((name, best_value, current_score))
                    logger.info(f"{name} -> {best_value:g} (batch error {current_score:.3f})")

        best_arrays = spec.clip_to_bounds(spec.round_to_integers(current))
        return CoordinateDescentResult(best_arrays=best_arrays,
                                       best_error=scorer.full_error(best_arrays),
                                       evaluations=scorer.evaluations,
                                       sweep_history=history)
