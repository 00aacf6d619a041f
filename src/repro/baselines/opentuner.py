"""Black-box global optimization baseline (OpenTuner stand-in).

Section V-C of the paper compares DiffTune against OpenTuner, an autotuning
framework that runs a multi-armed bandit over an ensemble of search
techniques, each of which proposes new parameter settings that are then
evaluated by running the actual program.  The implementation here mirrors
that structure:

* an ensemble of search techniques — random sampling, coordinate hill
  climbing, Gaussian mutation, differential-evolution-style recombination,
  and simulated annealing;
* a UCB1 multi-armed bandit that, on every iteration, picks the technique
  expected to make the most progress, evaluates its proposal on a batch of
  basic blocks with the *original* simulator, and credits the technique when
  the proposal improves on the best configuration so far.

For budget parity with DiffTune (as in the paper), the baseline is given a
budget measured in *block evaluations*: the same number of basic-block
simulations DiffTune spends building its simulated dataset plus evaluating
the learned table.
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

#: UCB1 exploration constant of the technique bandit.
EXPLORATION = 1.4


@dataclass
class OpenTunerConfig:
    """Configuration of the black-box tuner."""

    evaluation_budget: int = 100000   # total block evaluations
    blocks_per_evaluation: int = 200  # blocks sampled to score one proposal
    seed: int = 0

    def __post_init__(self) -> None:
        if self.blocks_per_evaluation < 1:
            raise ValueError("blocks_per_evaluation must be >= 1")


class _SearchTechnique:
    """Base class: proposes a new parameter vector from the current best."""

    name = "base"

    def propose(self, best: np.ndarray, spec_low: np.ndarray, spec_high: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class _RandomSearch(_SearchTechnique):
    name = "random"

    def propose(self, best, spec_low, spec_high, rng):
        return rng.uniform(spec_low, spec_high)


class _HillClimb(_SearchTechnique):
    """Perturb a small random subset of coordinates by +/- 1."""

    name = "hillclimb"

    def propose(self, best, spec_low, spec_high, rng):
        proposal = best.copy()
        count = max(1, int(0.01 * len(best)))
        indices = rng.choice(len(best), size=count, replace=False)
        proposal[indices] = proposal[indices] + rng.choice([-1.0, 1.0], size=count)
        return np.clip(proposal, spec_low, spec_high)


class _GaussianMutation(_SearchTechnique):
    name = "gaussian"

    def propose(self, best, spec_low, spec_high, rng):
        scale = (spec_high - spec_low) * 0.1
        proposal = best + rng.normal(0.0, 1.0, size=best.shape) * scale
        return np.clip(proposal, spec_low, spec_high)


class _DifferentialEvolution(_SearchTechnique):
    """Recombine the best vector with two random vectors (DE/best/1 style)."""

    name = "differential"

    def propose(self, best, spec_low, spec_high, rng):
        a = rng.uniform(spec_low, spec_high)
        b = rng.uniform(spec_low, spec_high)
        proposal = best + 0.5 * (a - b)
        crossover = rng.random(best.shape) < 0.2
        proposal = np.where(crossover, proposal, best)
        return np.clip(proposal, spec_low, spec_high)


class _SimulatedAnnealing(_SearchTechnique):
    """Gaussian perturbation whose magnitude shrinks as the budget is spent."""

    name = "annealing"

    def __init__(self) -> None:
        self.temperature = 1.0

    def propose(self, best, spec_low, spec_high, rng):
        scale = (spec_high - spec_low) * 0.3 * self.temperature
        self.temperature = max(0.05, self.temperature * 0.995)
        proposal = best + rng.normal(0.0, 1.0, size=best.shape) * scale
        return np.clip(proposal, spec_low, spec_high)


class BanditEnsemble:
    """UCB1 bandit over the search-technique ensemble."""

    def __init__(self, techniques: Sequence[_SearchTechnique]) -> None:
        if not techniques:
            raise ValueError("need at least one search technique")
        self.techniques = list(techniques)
        self.pulls = np.zeros(len(self.techniques))
        self.rewards = np.zeros(len(self.techniques))
        self._total = 0

    def select(self) -> int:
        """Pick the next technique index by UCB1."""
        self._total += 1
        for index in range(len(self.techniques)):
            if self.pulls[index] == 0:
                return index
        means = self.rewards / self.pulls
        bonus = EXPLORATION * np.sqrt(np.log(self._total) / self.pulls)
        return int(np.argmax(means + bonus))

    def update(self, index: int, reward: float) -> None:
        self.pulls[index] += 1
        self.rewards[index] += reward


class OpenTunerBaseline:
    """Black-box tuner over a simulator's flat parameter vector."""

    def __init__(self, adapter: SimulatorAdapter,
                 config: Optional[OpenTunerConfig] = None) -> None:
        self.adapter = adapter
        self.config = config or OpenTunerConfig()

    def tune(self, blocks: Sequence[BasicBlock], true_timings: np.ndarray) -> ParameterArrays:
        """Search for parameters minimizing MAPE on ``blocks``."""
        spec = self.adapter.parameter_spec()
        rng = np.random.default_rng(self.config.seed)
        scorer = CandidateScorer(self.adapter, blocks, true_timings, rng,
                                 blocks_per_evaluation=self.config.blocks_per_evaluation,
                                 budget=self.config.evaluation_budget)
        low, high = spec.sample_bounds()

        techniques: List[_SearchTechnique] = [
            _RandomSearch(), _HillClimb(), _GaussianMutation(),
            _DifferentialEvolution(), _SimulatedAnnealing(),
        ]
        bandit = BanditEnsemble(techniques)

        best_vector = rng.uniform(low, high)
        (best_score,) = scorer.score([spec.rounded_arrays(best_vector)])
        iteration = 0
        while scorer.affords():
            iteration += 1
            technique_index = bandit.select()
            proposal = techniques[technique_index].propose(best_vector, low, high, rng)
            (score,) = scorer.score([spec.rounded_arrays(proposal)])
            improved = score < best_score
            bandit.update(technique_index, 1.0 if improved else 0.0)
            if improved:
                best_vector, best_score = proposal, score
                logger.info(f"iteration {iteration}: {techniques[technique_index].name} "
                            f"improved error to {score:.3f}")
        logger.info(f"finished after {scorer.evaluations} block evaluations, "
                    f"best batch error {best_score:.3f}")
        return spec.clip_to_bounds(spec.rounded_arrays(best_vector))
