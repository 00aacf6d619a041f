"""Tests for the black-box search baselines (genetic, annealing, coordinate;
the empty-batch checks cover all five searchers)."""

import logging

import numpy as np
import pytest

from repro.api import BASELINES
from repro.api.plugins import search_baseline_names
from repro.baselines import OpenTunerBaseline, OpenTunerConfig
from repro.baselines.annealing import AnnealingConfig, SimulatedAnnealingTuner
from repro.baselines.coordinate_descent import (CANDIDATES_PER_FIELD, ROUNDS,
                                                CoordinateDescentConfig,
                                                CoordinateDescentTuner)
from repro.baselines.genetic import GeneticConfig, GeneticTuner
from repro.bhive.dataset import build_dataset
from repro.core.adapters import MCAAdapter
from repro.core.losses import mape_loss_value
from repro.targets import HASWELL


@pytest.fixture(scope="module")
def tuning_problem():
    """A small Haswell tuning problem shared by every search baseline test."""
    dataset = build_dataset("haswell", num_blocks=60, seed=11)
    adapter = MCAAdapter(HASWELL, narrow_sampling=True)
    examples = dataset.train_examples
    blocks = [example.block for example in examples]
    timings = np.array([example.timing for example in examples])
    return adapter, blocks, timings


def _random_table_error(adapter, blocks, timings, seed=0):
    rng = np.random.default_rng(seed)
    arrays = adapter.parameter_spec().sample(rng)
    return mape_loss_value(adapter.predict_timings(arrays, blocks), timings)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_genetic_config_bounds(self):
        with pytest.raises(ValueError, match="population_size"):
            GeneticConfig(population_size=1)

    @pytest.mark.parametrize("config", [OpenTunerConfig, GeneticConfig,
                                        AnnealingConfig, CoordinateDescentConfig])
    def test_blocks_per_evaluation_must_be_positive(self, config):
        # An empty evaluation batch never spends budget: the search loops
        # hung on it, and coordinate descent silently ran no evaluation.
        with pytest.raises(ValueError, match="blocks_per_evaluation"):
            config(blocks_per_evaluation=0)


@pytest.mark.parametrize("name", search_baseline_names(BASELINES))
def test_every_searcher_rejects_an_empty_block_list(tuning_problem, name):
    # A budget below one evaluation batch skips every search loop, so a
    # searcher without the check returns a table instead of raising.
    adapter, _blocks, timings = tuning_problem
    with pytest.raises(ValueError, match="need at least one evaluation block"):
        BASELINES.get(name).run(adapter, [], timings[:0], budget=10, seed=0)


def test_opentuner_spends_its_budget_by_the_shared_rule(tuning_problem, caplog):
    # 48 training blocks, fewer than the default 200 blocks_per_evaluation:
    # each proposal is charged 48 block evaluations, so the budget check must
    # use 48 too and stop within one batch of the budget (checking it against
    # 200 stops at 4,848).
    adapter, blocks, timings = tuning_problem
    assert len(blocks) == 48
    tuner = OpenTunerBaseline(adapter, OpenTunerConfig(evaluation_budget=5000, seed=0))
    with caplog.at_level(logging.INFO, logger="repro.baselines.opentuner"):
        tuner.tune(blocks, timings)
    finished = [record.getMessage() for record in caplog.records
                if record.getMessage().startswith("finished after")]
    assert len(finished) == 1
    assert int(finished[0].split()[2]) == 4992


# ----------------------------------------------------------------------
# Genetic algorithm
# ----------------------------------------------------------------------
class TestGeneticTuner:
    def test_requires_blocks(self, tuning_problem):
        adapter, _blocks, timings = tuning_problem
        tuner = GeneticTuner(adapter, GeneticConfig(evaluation_budget=500))
        with pytest.raises(ValueError):
            tuner.tune([], timings[:0])

    def test_produces_valid_table_within_budget(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = GeneticConfig(population_size=6, evaluation_budget=900,
                               blocks_per_evaluation=12, seed=1)
        result = GeneticTuner(adapter, config).tune(blocks, timings)
        assert result.evaluations <= config.evaluation_budget
        assert result.best_error >= 0.0
        table = adapter.table_from_arrays(result.best_arrays)
        table.validate()

    def test_error_history_tracks_best_so_far(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = GeneticConfig(population_size=6, evaluation_budget=1500,
                               blocks_per_evaluation=12, seed=2)
        result = GeneticTuner(adapter, config).tune(blocks, timings)
        assert result.generations >= 1
        assert len(result.error_history) == result.generations + 1

    def test_improves_over_average_random_table(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = GeneticConfig(population_size=8, evaluation_budget=2500,
                               blocks_per_evaluation=16, seed=3)
        result = GeneticTuner(adapter, config).tune(blocks, timings)
        random_errors = [_random_table_error(adapter, blocks, timings, seed=seed)
                         for seed in range(5)]
        assert result.best_error <= np.mean(random_errors)

    def test_deterministic_for_fixed_seed(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = GeneticConfig(population_size=4, evaluation_budget=600,
                               blocks_per_evaluation=8, seed=7)
        first = GeneticTuner(adapter, config).tune(blocks, timings)
        second = GeneticTuner(adapter, config).tune(blocks, timings)
        np.testing.assert_array_equal(first.best_arrays.to_flat_vector(),
                                      second.best_arrays.to_flat_vector())


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------
class TestSimulatedAnnealingTuner:
    def test_requires_blocks(self, tuning_problem):
        adapter, _blocks, timings = tuning_problem
        tuner = SimulatedAnnealingTuner(adapter)
        with pytest.raises(ValueError):
            tuner.tune([], timings[:0])

    def test_produces_valid_table_within_budget(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = AnnealingConfig(evaluation_budget=900, blocks_per_evaluation=12, seed=1)
        result = SimulatedAnnealingTuner(adapter, config).tune(blocks, timings)
        assert result.evaluations <= config.evaluation_budget
        assert result.steps >= 1
        assert 0 <= result.accepted_moves <= result.steps
        adapter.table_from_arrays(result.best_arrays).validate()

    def test_history_is_monotone_non_increasing(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = AnnealingConfig(evaluation_budget=1200, blocks_per_evaluation=12, seed=2)
        result = SimulatedAnnealingTuner(adapter, config).tune(blocks, timings)
        history = result.error_history
        assert all(earlier >= later - 1e-12 for earlier, later in zip(history, history[1:]))

    def test_improves_over_single_random_table(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = AnnealingConfig(evaluation_budget=2500, blocks_per_evaluation=16, seed=3)
        result = SimulatedAnnealingTuner(adapter, config).tune(blocks, timings)
        random_error = _random_table_error(adapter, blocks, timings, seed=13)
        assert result.best_error <= random_error * 1.05


# ----------------------------------------------------------------------
# Coordinate descent
# ----------------------------------------------------------------------
class TestCoordinateDescentTuner:
    def test_requires_blocks(self, tuning_problem):
        adapter, _blocks, timings = tuning_problem
        tuner = CoordinateDescentTuner(adapter)
        with pytest.raises(ValueError):
            tuner.tune([], timings[:0])

    def test_sweeps_fields_and_respects_budget(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        config = CoordinateDescentConfig(evaluation_budget=2000,
                                         blocks_per_evaluation=12, seed=1)
        result = CoordinateDescentTuner(adapter, config).tune(blocks, timings)
        assert result.evaluations <= config.evaluation_budget
        adapter.table_from_arrays(result.best_arrays).validate()
        for name, value, _error in result.sweep_history:
            field = adapter.parameter_spec().field_by_name(name)
            assert field.sample_low <= value <= field.sample_high

    def test_full_sweep_scores_every_field_in_every_round(self, tuning_problem):
        # Global and per-instruction fields alike: one starting score, then
        # CANDIDATES_PER_FIELD candidates per field per round.
        adapter, blocks, timings = tuning_problem
        spec = adapter.parameter_spec()
        num_fields = len(spec.global_fields) + len(spec.per_instruction_fields)
        config = CoordinateDescentConfig(blocks_per_evaluation=12, seed=5)
        result = CoordinateDescentTuner(adapter, config).tune(blocks, timings)
        assert result.evaluations == 12 * (1 + ROUNDS * num_fields * CANDIDATES_PER_FIELD)

    def test_sweep_history_keeps_candidate_values_in_field_order(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        spec = adapter.parameter_spec()
        order = [field.name for field in spec.global_fields + spec.per_instruction_fields]
        config = CoordinateDescentConfig(blocks_per_evaluation=12, seed=5)
        result = CoordinateDescentTuner(adapter, config).tune(blocks, timings)
        assert result.sweep_history
        for name, value, _error in result.sweep_history:
            field = spec.field_by_name(name)
            candidates = np.linspace(field.sample_low, field.sample_high,
                                     CANDIDATES_PER_FIELD)
            assert value in candidates
        # Within a round the fields go globals first, then per-instruction
        # fields, so the field position drops at most once per new round.
        positions = [order.index(name) for name, _value, _error in result.sweep_history]
        drops = sum(later <= earlier for earlier, later in zip(positions, positions[1:]))
        assert drops <= ROUNDS - 1

    def test_starting_from_given_arrays_never_hurts_batch_error(self, tuning_problem):
        adapter, blocks, timings = tuning_problem
        start = adapter.default_arrays()
        config = CoordinateDescentConfig(evaluation_budget=1500,
                                         blocks_per_evaluation=16, seed=3)
        result = CoordinateDescentTuner(adapter, config).tune(blocks, timings,
                                                              initial_arrays=start)
        default_error = mape_loss_value(adapter.predict_timings(start, blocks), timings)
        # Coordinate descent only accepts improving moves on its evaluation
        # batches, so the final full-set error stays in the same regime as the
        # starting point (it cannot blow up to random-table error).
        assert result.best_error < default_error + 0.35
