"""Tests for the end-to-end DiffTune driver, extraction, and config presets."""

import logging

import numpy as np
import pytest

from repro.core.adapters import LLVMSimAdapter, MCAAdapter
from repro.core.config import fast_config, paper_config
from repro.core.difftune import DiffTune, DiffTuneConfig
from repro.core.config import test_config as tiny_config
from repro.core.extraction import extract_native_table, extract_parameter_arrays
from repro.core.parameters import ParameterArrays
from repro.llvm_mca.params import MCAParameterTable
from repro.llvm_sim.params import LLVMSimParameterTable
from repro.targets import HASWELL


@pytest.fixture(scope="module")
def small_training_data(small_dataset):
    train = small_dataset.train_examples[:60]
    blocks = [example.block for example in train]
    timings = np.array([example.timing for example in train])
    return blocks, timings


class TestConfigs:
    def test_presets_build(self):
        for preset in (paper_config(), fast_config(), tiny_config()):
            assert isinstance(preset, DiffTuneConfig)
            assert preset.simulated_dataset_size > 0

    def test_paper_config_uses_ithemal_surrogate(self):
        preset = paper_config()
        assert preset.surrogate.kind == "ithemal"
        assert preset.surrogate.num_lstm_layers == 4
        assert preset.table_optimization.learning_rate == pytest.approx(0.05)
        assert preset.surrogate_training.learning_rate == pytest.approx(0.001)

    def test_fast_config_enables_refinement(self):
        preset = fast_config()
        assert preset.refinement_rounds >= 1

    def test_test_config_is_tiny(self):
        preset = tiny_config()
        assert preset.simulated_dataset_size <= 200


class TestExtraction:
    def test_extract_rounds_and_clips(self, mca_adapter):
        spec = mca_adapter.parameter_spec()
        arrays = ParameterArrays(
            global_values=np.array([3.6, -10.0]),
            per_instruction_values=np.full((spec.num_opcodes, spec.per_instruction_dim), 1.4))
        extracted = extract_parameter_arrays(spec, arrays)
        assert extracted.global_values[0] == 4
        assert extracted.global_values[1] == 1  # clipped to lower bound
        assert np.all(extracted.per_instruction_values == 1)

    def test_extract_native_table_types(self, mca_adapter, llvm_sim_adapter, rng):
        mca_table = extract_native_table(mca_adapter,
                                         mca_adapter.parameter_spec().sample(rng))
        assert isinstance(mca_table, MCAParameterTable)
        mca_table.validate()
        sim_table = extract_native_table(llvm_sim_adapter,
                                         llvm_sim_adapter.parameter_spec().sample(rng))
        assert isinstance(sim_table, LLVMSimParameterTable)
        sim_table.validate()


class TestDiffTuneEndToEnd:
    def test_learn_produces_valid_table(self, small_training_data):
        blocks, timings = small_training_data
        adapter = MCAAdapter(HASWELL, narrow_sampling=True)
        difftune = DiffTune(adapter, tiny_config())
        result = difftune.learn(blocks, timings)
        table = adapter.table_from_arrays(result.learned_arrays)
        table.validate()
        assert result.simulated_dataset_size == tiny_config().simulated_dataset_size
        assert result.train_error > 0
        assert result.elapsed_seconds > 0
        assert len(result.surrogate_result.epoch_losses) >= 1

    def test_learn_validates_alignment(self, small_training_data):
        blocks, timings = small_training_data
        difftune = DiffTune(MCAAdapter(HASWELL), tiny_config())
        with pytest.raises(ValueError):
            difftune.learn(blocks, timings[:-3])

    def test_learned_much_better_than_random_tables(self, small_training_data, rng):
        """The learned table must beat the average random-table regime
        (the paper: ~24% learned vs ~171% random)."""
        blocks, timings = small_training_data
        adapter = MCAAdapter(HASWELL, narrow_sampling=True)
        config = tiny_config()
        config.simulated_dataset_size = 400
        config.surrogate_training.epochs = 2
        config.table_optimization.epochs = 6
        difftune = DiffTune(adapter, config)
        result = difftune.learn(blocks, timings)
        random_errors = [difftune.evaluate(adapter.parameter_spec().sample(rng), blocks, timings)
                         for _ in range(4)]
        assert result.train_error < float(np.mean(random_errors)) + 0.1

    def test_refinement_rounds_run(self, small_training_data, caplog):
        blocks, timings = small_training_data
        adapter = MCAAdapter(HASWELL, narrow_sampling=True)
        config = tiny_config()
        config.refinement_rounds = 1
        config.refinement_dataset_size = 48
        difftune = DiffTune(adapter, config)
        with caplog.at_level(logging.INFO, logger="repro"):
            difftune.learn(blocks, timings)
        assert any("refinement round 1" in record.getMessage()
                   for record in caplog.records)

    def test_evaluate_matches_direct_computation(self, small_training_data):
        blocks, timings = small_training_data
        adapter = MCAAdapter(HASWELL)
        difftune = DiffTune(adapter, tiny_config())
        error = difftune.evaluate(adapter.default_arrays(), blocks, timings)
        predictions = adapter.predict_timings(adapter.default_arrays(), blocks)
        expected = float(np.mean(np.abs(predictions - timings) / timings))
        assert error == pytest.approx(expected)

    def test_writelatency_only_learning_respects_defaults(self, small_training_data):
        blocks, timings = small_training_data
        adapter = MCAAdapter(HASWELL, learn_fields=["WriteLatency"], narrow_sampling=True)
        difftune = DiffTune(adapter, tiny_config())
        result = difftune.learn(blocks, timings)
        learned_table = adapter.table_from_arrays(result.learned_arrays)
        default_table = adapter.default_table()
        np.testing.assert_array_equal(learned_table.num_micro_ops, default_table.num_micro_ops)
        np.testing.assert_array_equal(learned_table.port_map, default_table.port_map)
        assert learned_table.dispatch_width == default_table.dispatch_width

    def test_llvm_sim_adapter_end_to_end(self, small_training_data):
        blocks, timings = small_training_data
        adapter = LLVMSimAdapter(HASWELL)
        difftune = DiffTune(adapter, tiny_config())
        result = difftune.learn(blocks, timings)
        table = adapter.table_from_arrays(result.learned_arrays)
        table.validate()
        assert result.train_error > 0
