"""Standalone simulated-annealing baseline over simulator parameter tables.

OpenTuner's ensemble already contains an annealing-flavoured technique; this
module provides simulated annealing as a *standalone* black-box baseline so
the ablation benchmarks can separate "the bandit ensemble" from "any single
classic technique" when reproducing the Section V-C comparison.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.search import CandidateScorer
from repro.core.adapters import SimulatorAdapter
from repro.core.parameters import ParameterArrays
from repro.isa.basic_block import BasicBlock

logger = logging.getLogger(__name__)


#: Starting acceptance temperature (in units of MAPE, so 0.5 means a
#: 50-percentage-point regression is accepted with probability 1/e at the
#: start).
INITIAL_TEMPERATURE = 0.5
#: Multiplicative temperature decay per step.
COOLING_RATE = 0.97
#: Width of the Gaussian proposal, as a fraction of each gene's sampling
#: range; shrinks with the temperature.
STEP_SCALE = 0.25


@dataclass
class AnnealingConfig:
    """Hyper-parameters of the simulated-annealing baseline.

    Attributes:
        evaluation_budget: Total block evaluations allowed (budget parity with
            DiffTune, as in Section V-C).
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
class AnnealingResult:
    """Outcome of a simulated-annealing run."""

    best_arrays: ParameterArrays
    best_error: float
    steps: int
    evaluations: int
    accepted_moves: int
    error_history: List[float]


class SimulatedAnnealingTuner:
    """Tunes a simulator's parameters with classic simulated annealing."""

    def __init__(self, adapter: SimulatorAdapter,
                 config: Optional[AnnealingConfig] = None) -> None:
        self.adapter = adapter
        self.config = config or AnnealingConfig()

    def tune(self, blocks: Sequence[BasicBlock], true_timings: np.ndarray) -> AnnealingResult:
        """Anneal parameter tables to minimize MAPE on ``blocks``."""
        spec = self.adapter.parameter_spec()
        config = self.config
        rng = np.random.default_rng(config.seed)
        scorer = CandidateScorer(self.adapter, blocks, true_timings, rng,
                                 blocks_per_evaluation=config.blocks_per_evaluation,
                                 budget=config.evaluation_budget)
        low, high = spec.sample_bounds()

        current = np.clip(spec.sample(rng).to_flat_vector(), low, high)
        (current_score,) = scorer.score([spec.rounded_arrays(current)])
        best, best_score = current.copy(), current_score
        temperature = INITIAL_TEMPERATURE
        accepted = 0
        steps = 0
        history: List[float] = [best_score]

        while scorer.affords():
            steps += 1
            spread = (high - low) * STEP_SCALE * max(temperature / INITIAL_TEMPERATURE, 0.05)
            proposal = np.clip(current + rng.normal(0.0, 1.0, size=current.shape) * spread,
                               low, high)
            (score,) = scorer.score([spec.rounded_arrays(proposal)])
            delta = score - current_score
            if delta <= 0.0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
                current, current_score = proposal, score
                accepted += 1
                if score < best_score:
                    best, best_score = proposal.copy(), score
                    logger.info(f"step {steps}: new best batch error {score:.3f}")
            temperature *= COOLING_RATE
            history.append(best_score)

        best_arrays = spec.clip_to_bounds(spec.rounded_arrays(best))
        return AnnealingResult(best_arrays=best_arrays,
                               best_error=scorer.full_error(best_arrays), steps=steps,
                               evaluations=scorer.evaluations, accepted_moves=accepted,
                               error_history=history)
