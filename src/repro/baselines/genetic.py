"""Genetic-algorithm baseline over simulator parameter tables.

A population-based black-box optimizer in the spirit of PMEvo (Ritter & Hack,
2020), which the paper discusses as the closest prior work on inferring port
mappings by evolutionary optimization (Section VIII-A).  Unlike PMEvo the
genome here is the *entire* flat parameter vector of the simulator, so the
baseline answers the same question OpenTuner does — how far does a black-box
method get with DiffTune's evaluation budget? — with a different search bias
(recombination of good tables instead of a bandit over point mutations).
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


#: Fraction of the population copied unchanged into the next generation
#: (elitism).
ELITE_FRACTION = 0.25
#: Candidates drawn per tournament when selecting parents.
TOURNAMENT_SIZE = 3
#: Probability a child mixes two parents (otherwise it is a mutated copy of
#: one).
CROSSOVER_RATE = 0.7
#: Per-gene probability of being resampled.
MUTATION_RATE = 0.05
#: Width of the Gaussian perturbation applied to mutated genes, as a
#: fraction of the gene's sampling range.
MUTATION_SCALE = 0.35


@dataclass
class GeneticConfig:
    """Hyper-parameters of the genetic-algorithm baseline.

    Attributes:
        population_size: Number of candidate tables per generation.
        evaluation_budget: Total number of block evaluations allowed
            (generations stop once the budget is exhausted) — the same budget
            parity rule Section V-C applies to OpenTuner.
        blocks_per_evaluation: Blocks drawn per fitness evaluation.
        seed: Random seed.
    """

    population_size: int = 16
    evaluation_budget: int = 20_000
    blocks_per_evaluation: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.blocks_per_evaluation < 1:
            raise ValueError("blocks_per_evaluation must be >= 1")


@dataclass
class GeneticResult:
    """Outcome of a genetic-algorithm run."""

    best_arrays: ParameterArrays
    best_error: float
    generations: int
    evaluations: int
    error_history: List[float]


class GeneticTuner:
    """Tunes a simulator's parameters with a generational genetic algorithm."""

    def __init__(self, adapter: SimulatorAdapter,
                 config: Optional[GeneticConfig] = None) -> None:
        self.adapter = adapter
        self.config = config or GeneticConfig()

    # ------------------------------------------------------------------
    # Genetic operators
    # ------------------------------------------------------------------
    def _tournament(self, fitness: np.ndarray, rng: np.random.Generator) -> int:
        """Index of the fittest individual among a random tournament draw."""
        contenders = rng.integers(0, len(fitness), size=TOURNAMENT_SIZE)
        return int(contenders[np.argmin(fitness[contenders])])

    def _crossover(self, first: np.ndarray, second: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """Uniform crossover: each gene comes from either parent."""
        take_first = rng.random(first.shape) < 0.5
        return np.where(take_first, first, second)

    def _mutate(self, genome: np.ndarray, low: np.ndarray, high: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
        mutated = genome.copy()
        mask = rng.random(genome.shape) < MUTATION_RATE
        scale = (high - low) * MUTATION_SCALE
        noise = rng.normal(0.0, 1.0, size=genome.shape) * scale
        mutated[mask] = mutated[mask] + noise[mask]
        return np.clip(mutated, low, high)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def tune(self, blocks: Sequence[BasicBlock], true_timings: np.ndarray) -> GeneticResult:
        """Evolve parameter tables to minimize MAPE on ``blocks``."""
        spec = self.adapter.parameter_spec()
        config = self.config
        rng = np.random.default_rng(config.seed)
        scorer = CandidateScorer(self.adapter, blocks, true_timings, rng,
                                 blocks_per_evaluation=config.blocks_per_evaluation,
                                 budget=config.evaluation_budget)
        low, high = spec.sample_bounds()

        population = [spec.sample(rng).to_flat_vector() for _ in range(config.population_size)]
        population = [np.clip(genome, low, high) for genome in population]
        fitness = np.array(scorer.score([spec.rounded_arrays(genome) for genome in population]))

        history: List[float] = [float(fitness.min())]
        generations = 0
        elite_count = max(1, int(ELITE_FRACTION * config.population_size))
        while scorer.affords(config.population_size):
            generations += 1
            order = np.argsort(fitness)
            elites = [population[int(index)].copy() for index in order[:elite_count]]
            children: List[np.ndarray] = list(elites)
            while len(children) < config.population_size:
                parent = population[self._tournament(fitness, rng)]
                if rng.random() < CROSSOVER_RATE:
                    other = population[self._tournament(fitness, rng)]
                    child = self._crossover(parent, other, rng)
                else:
                    child = parent.copy()
                children.append(self._mutate(child, low, high, rng))
            population = children
            fitness = np.array(scorer.score([spec.rounded_arrays(genome)
                                             for genome in population]))
            history.append(float(fitness.min()))
            logger.info(f"generation {generations}: best batch error {fitness.min():.3f}")

        best_index = int(np.argmin(fitness))
        best_arrays = spec.clip_to_bounds(spec.rounded_arrays(population[best_index]))
        return GeneticResult(best_arrays=best_arrays,
                             best_error=scorer.full_error(best_arrays),
                             generations=generations, evaluations=scorer.evaluations,
                             error_history=history)
