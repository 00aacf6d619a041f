"""Baselines the paper compares DiffTune against (Table IV).

* :mod:`~repro.baselines.opentuner` — black-box global optimization with a
  multi-armed bandit over an ensemble of search techniques, standing in for
  OpenTuner (Section V-C).
* :mod:`~repro.baselines.random_search` — plain random search, a weaker
  black-box reference point and the initialization sanity check.
* :mod:`~repro.baselines.search` — the :class:`CandidateScorer` every
  black-box searcher above (and the genetic, annealing and
  coordinate-descent searchers) scores its candidate tables with: block
  batches drawn from the searcher's rng, one batched simulator call per
  round, and one budget rule.
* :mod:`~repro.baselines.ithemal` — a learned basic-block throughput model
  trained directly on the ground-truth measurements (the accuracy lower bound
  in Table IV).
* :mod:`~repro.baselines.iaca` — an IACA-like analytical throughput/latency
  bound model with Intel-specific special cases (N/A on AMD, as in the paper).

All seven register :class:`~repro.api.plugins.BaselinePlugin` records in
:data:`repro.api.registries.BASELINES` — the black-box searchers under
``kind="search"`` with the uniform ``run(adapter, blocks, timings, *,
budget, seed)`` contract the CLI's ``tune-baseline`` uses, the standalone
predictors (ithemal, iaca) under ``kind="predictor"``.
"""

from repro.api.plugins import BaselinePlugin
from repro.api.registries import BASELINES
from repro.baselines.opentuner import OpenTunerBaseline, OpenTunerConfig, BanditEnsemble
from repro.baselines.random_search import random_search
from repro.baselines.genetic import GeneticConfig, GeneticResult, GeneticTuner
from repro.baselines.annealing import (AnnealingConfig, AnnealingResult,
                                       SimulatedAnnealingTuner)
from repro.baselines.coordinate_descent import (CoordinateDescentConfig,
                                                CoordinateDescentResult,
                                                CoordinateDescentTuner)
from repro.baselines.ithemal import IthemalBaseline, IthemalConfig
from repro.baselines.iaca import IACAModel

__all__ = [
    "OpenTunerBaseline",
    "OpenTunerConfig",
    "BanditEnsemble",
    "random_search",
    "GeneticTuner",
    "GeneticConfig",
    "GeneticResult",
    "SimulatedAnnealingTuner",
    "AnnealingConfig",
    "AnnealingResult",
    "CoordinateDescentTuner",
    "CoordinateDescentConfig",
    "CoordinateDescentResult",
    "IthemalBaseline",
    "IthemalConfig",
    "IACAModel",
]


# ----------------------------------------------------------------------
# Registry entries (see repro.api): uniform run() wrappers for the
# black-box searchers, factories for the standalone predictors.
# ----------------------------------------------------------------------
def _run_opentuner(adapter, blocks, timings, *, budget: int, seed: int):
    tuner = OpenTunerBaseline(adapter, OpenTunerConfig(evaluation_budget=budget,
                                                       seed=seed))
    return tuner.tune(blocks, timings)


def _run_random_search(adapter, blocks, timings, *, budget: int, seed: int):
    arrays, _error = random_search(adapter, blocks, timings,
                                   num_samples=max(1, budget), seed=seed)
    return arrays


def _run_genetic(adapter, blocks, timings, *, budget: int, seed: int):
    result = GeneticTuner(adapter, GeneticConfig(evaluation_budget=budget,
                                                 seed=seed)).tune(blocks, timings)
    return result.best_arrays


def _run_annealing(adapter, blocks, timings, *, budget: int, seed: int):
    result = SimulatedAnnealingTuner(
        adapter, AnnealingConfig(evaluation_budget=budget, seed=seed)).tune(
            blocks, timings)
    return result.best_arrays


def _run_coordinate_descent(adapter, blocks, timings, *, budget: int, seed: int):
    result = CoordinateDescentTuner(
        adapter, CoordinateDescentConfig(evaluation_budget=budget, seed=seed)).tune(
            blocks, timings)
    return result.best_arrays


BASELINES.register(
    "opentuner",
    BaselinePlugin(name="opentuner", kind="search", run=_run_opentuner,
                   summary="bandit ensemble of search techniques "
                           "(OpenTuner stand-in, Section V-C)"))
BASELINES.register(
    "random_search",
    BaselinePlugin(name="random_search", kind="search", run=_run_random_search,
                   summary="best-of-N random tables (budget = N samples)"),
    aliases=("random",))
BASELINES.register(
    "genetic",
    BaselinePlugin(name="genetic", kind="search", run=_run_genetic,
                   summary="genetic algorithm over parameter tables"))
BASELINES.register(
    "annealing",
    BaselinePlugin(name="annealing", kind="search", run=_run_annealing,
                   summary="simulated annealing over parameter tables"))
BASELINES.register(
    "coordinate_descent",
    BaselinePlugin(name="coordinate_descent", kind="search",
                   run=_run_coordinate_descent,
                   summary="field-wise coordinate descent"),
    aliases=("coordinate",))
BASELINES.register(
    "ithemal",
    BaselinePlugin(name="ithemal", kind="predictor", build=IthemalBaseline,
                   summary="learned throughput predictor trained on ground "
                           "truth (accuracy reference, Table IV); "
                           "build(opcode_table=None, config=None)"))
BASELINES.register(
    "iaca",
    BaselinePlugin(name="iaca", kind="predictor", build=IACAModel,
                   summary="IACA-like analytical bound model (Intel only); "
                           "build(uarch_spec)"))
