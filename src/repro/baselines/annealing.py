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

from repro.core.adapters import SimulatorAdapter
from repro.core.losses import mape_loss_value
from repro.core.parameters import ParameterArrays
from repro.isa.basic_block import BasicBlock

logger = logging.getLogger(__name__)


@dataclass
class AnnealingConfig:
    """Hyper-parameters of the simulated-annealing baseline.

    Attributes:
        initial_temperature: Starting acceptance temperature (in units of
            MAPE, so 0.5 means a 50-percentage-point regression is accepted
            with probability 1/e at the start).
        cooling_rate: Multiplicative temperature decay per step.
        step_scale: Width of the Gaussian proposal, as a fraction of each
            gene's sampling range; shrinks with the temperature.
        evaluation_budget: Total block evaluations allowed (budget parity with
            DiffTune, as in Section V-C).
        blocks_per_evaluation: Blocks drawn per candidate evaluation.
        seed: Random seed.
    """

    initial_temperature: float = 0.5
    cooling_rate: float = 0.97
    step_scale: float = 0.25
    evaluation_budget: int = 20_000
    blocks_per_evaluation: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0.0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling_rate < 1.0:
            raise ValueError("cooling_rate must be in (0, 1)")
        if self.step_scale <= 0.0:
            raise ValueError("step_scale must be positive")
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
        if not blocks:
            raise ValueError("need at least one evaluation block")
        spec = self.adapter.parameter_spec()
        config = self.config
        rng = np.random.default_rng(config.seed)
        low, high = spec.sample_bounds()
        true_timings = np.asarray(true_timings, dtype=np.float64)
        batch_size = min(config.blocks_per_evaluation, len(blocks))

        def evaluate(genome: np.ndarray) -> float:
            batch = rng.integers(0, len(blocks), size=batch_size)
            predictions = self.adapter.predict_timings(
                spec.rounded_arrays(genome), [blocks[int(index)] for index in batch])
            return mape_loss_value(predictions, true_timings[batch])

        current = np.clip(spec.sample(rng).to_flat_vector(), low, high)
        current_score = evaluate(current)
        best, best_score = current.copy(), current_score
        evaluations = batch_size
        temperature = config.initial_temperature
        accepted = 0
        steps = 0
        history: List[float] = [best_score]

        while evaluations + batch_size <= config.evaluation_budget:
            steps += 1
            spread = (high - low) * config.step_scale * max(temperature
                                                            / config.initial_temperature, 0.05)
            proposal = np.clip(current + rng.normal(0.0, 1.0, size=current.shape) * spread,
                               low, high)
            score = evaluate(proposal)
            evaluations += batch_size
            delta = score - current_score
            if delta <= 0.0 or rng.random() < np.exp(-delta / max(temperature, 1e-9)):
                current, current_score = proposal, score
                accepted += 1
                if score < best_score:
                    best, best_score = proposal.copy(), score
                    logger.info(f"step {steps}: new best batch error {score:.3f}")
            temperature *= config.cooling_rate
            history.append(best_score)

        best_arrays = spec.clip_to_bounds(spec.rounded_arrays(best))
        best_error = mape_loss_value(self.adapter.predict_timings(best_arrays, list(blocks)),
                                     true_timings)
        return AnnealingResult(best_arrays=best_arrays, best_error=best_error, steps=steps,
                               evaluations=evaluations, accepted_moves=accepted,
                               error_history=history)
