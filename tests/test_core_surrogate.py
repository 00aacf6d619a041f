"""Tests for the surrogate models, featurizer, and the two training phases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adapters import MCAAdapter
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.simulated_dataset import SimulatedDataset, collect_simulated_dataset
from repro.core.surrogate import (BlockFeaturizer, SurrogateConfig,
                                  batch_parameter_inputs, build_surrogate)
from repro.core.surrogate import (AnalyticalSurrogate, IthemalSurrogate, PooledSurrogate,
                                  NUM_STRUCTURAL_FEATURES)
from repro.core.surrogate_training import (SurrogateTrainingConfig, evaluate_surrogate,
                                           train_surrogate)
from repro.core.table_optimization import (TableOptimizationConfig, _TrainableTable,
                                           optimize_parameter_table)
from repro.autodiff.tensor import Tensor
from repro.isa.basic_block import BasicBlock
from repro.isa.parser import parse_block
from repro.targets import HASWELL


@pytest.fixture(scope="module")
def adapter():
    return MCAAdapter(HASWELL, narrow_sampling=True)


@pytest.fixture(scope="module")
def featurizer(adapter):
    return BlockFeaturizer(adapter.opcode_table)


@pytest.fixture(scope="module")
def tiny_config():
    return SurrogateConfig(kind="analytical", embedding_size=8, hidden_size=12, seed=0)


def make_inputs(adapter, featurizer, block, rng):
    """A one-block packed batch and its normalized ``(1, I, D)`` / ``(1, G)``
    inputs from a sampled table."""
    spec = adapter.parameter_spec()
    packed = featurizer.pack([featurizer.arrays(block)])
    per_instruction, global_values = batch_parameter_inputs(spec, packed,
                                                            [spec.sample(rng)])
    return packed, per_instruction, global_values


class TestFeaturizer:
    def test_featurized_fields(self, featurizer, simple_block):
        featurized = featurizer.featurize(simple_block)
        assert len(featurized.token_ids) == len(simple_block)
        assert len(featurized.opcode_indices) == len(simple_block)
        assert len(featurized.structural_features) == len(simple_block)
        assert all(len(features) == NUM_STRUCTURAL_FEATURES
                   for features in featurized.structural_features)

    def test_dependency_producers(self, featurizer):
        block = parse_block("addq %rax, %rbx\naddq %rbx, %rcx")
        featurized = featurizer.featurize(block)
        assert featurized.dependency_producers[1] == (0,)
        assert featurized.dependency_producers[0] == ()

    def test_loop_carried_writers(self, featurizer):
        block = parse_block("addq %rax, %rbx\naddq %rbx, %rax")
        featurized = featurizer.featurize(block)
        assert featurized.loop_carried_writers  # both registers are loop carried

    def test_featurize_walks_the_dataflow_once(self, featurizer, monkeypatch):
        calls = {"register_dependencies": 0, "loop_carried_registers": 0}
        for name in calls:
            def counted(block, _name=name, _original=getattr(BasicBlock, name)):
                calls[_name] += 1
                return _original(block)
            monkeypatch.setattr(BasicBlock, name, counted)
        featurized = featurizer.featurize(parse_block("addq %rax, %rbx\naddq %rbx, %rax"))
        assert calls == {"register_dependencies": 1, "loop_carried_registers": 1}
        assert featurized.dependency_producers == ((), (0,))
        assert featurized.loop_carried_writers == (0, 1)

    def test_caching_returns_same_object(self, featurizer, simple_block):
        assert featurizer.arrays(simple_block) is featurizer.arrays(simple_block)

    def test_structural_feature_ranges(self, featurizer, sample_blocks):
        for block in sample_blocks[:10]:
            featurized = featurizer.featurize(block)
            values = np.array(featurized.structural_features)
            assert values.min() >= 0.0 and values.max() <= 1.0


class TestSurrogateVariants:
    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_forward_batch_produces_positive_prediction(self, adapter, featurizer,
                                                        kind, rng):
        config = SurrogateConfig(kind=kind, embedding_size=8, hidden_size=10,
                                 num_lstm_layers=1, seed=0)
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer, config)
        block = parse_block("addq %rax, %rbx\nmovq 8(%rsp), %rcx")
        packed, rows, global_values = make_inputs(adapter, featurizer, block, rng)
        prediction = surrogate.forward_batch(packed, rows, global_values)
        assert prediction.shape == (1,)
        assert float(prediction.data[0]) > 0

    def test_factory_kinds(self, adapter, featurizer):
        spec = adapter.parameter_spec()
        assert isinstance(build_surrogate(spec, featurizer, SurrogateConfig(kind="pooled")),
                          PooledSurrogate)
        assert isinstance(build_surrogate(spec, featurizer, SurrogateConfig(kind="analytical")),
                          AnalyticalSurrogate)
        assert isinstance(build_surrogate(spec, featurizer,
                                          SurrogateConfig(kind="ithemal", num_lstm_layers=1)),
                          IthemalSurrogate)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            SurrogateConfig(kind="transformer")

    def test_analytical_latency_sensitivity(self, adapter, featurizer, tiny_config, rng):
        """Raising the WriteLatency of a chained opcode must raise the prediction."""
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer, tiny_config)
        spec = adapter.parameter_spec()
        block = parse_block("imulq %rcx, %rdx\nimulq %rdx, %rcx")
        packed, rows, global_values = make_inputs(adapter, featurizer, block, rng)
        low = rows.copy()
        high = rows.copy()
        latency_slice = spec.per_instruction_field_slice("WriteLatency")
        low[:, :, latency_slice] = 0.0
        high[:, :, latency_slice] = 1.0
        low_prediction = surrogate.forward_batch(packed, low, global_values)
        high_prediction = surrogate.forward_batch(packed, high, global_values)
        assert float(high_prediction.data[0]) > float(low_prediction.data[0])

    def test_analytical_dispatch_sensitivity(self, adapter, featurizer, tiny_config, rng):
        """A wider dispatch width must not increase the predicted timing."""
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer, tiny_config)
        spec = adapter.parameter_spec()
        block = parse_block("\n".join(f"addq %rax, %r{8 + i}" for i in range(6)))
        packed, rows, global_values = make_inputs(adapter, featurizer, block, rng)
        uops_slice = spec.per_instruction_field_slice("NumMicroOps")
        rows = rows.copy()
        rows[:, :, uops_slice] = 1.0
        narrow = global_values.copy()
        wide = global_values.copy()
        dispatch_slice = spec.global_field_slice("DispatchWidth")
        narrow[:, dispatch_slice] = 0.0
        wide[:, dispatch_slice] = 1.0
        assert float(surrogate.forward_batch(packed, rows, narrow).data[0]) >= \
            float(surrogate.forward_batch(packed, rows, wide).data[0])

    def test_gradients_reach_parameter_inputs(self, adapter, featurizer, tiny_config, rng):
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer, tiny_config)
        block = parse_block("imulq %rcx, %rdx\nimulq %rdx, %rcx")
        packed, rows, global_values = make_inputs(adapter, featurizer, block, rng)
        rows_tensor = Tensor(rows, requires_grad=True)
        globals_tensor = Tensor(global_values, requires_grad=True)
        prediction = surrogate.forward_batch(packed, rows_tensor, globals_tensor)
        prediction.backward(np.ones_like(prediction.data))
        assert rows_tensor.grad is not None
        assert np.abs(rows_tensor.grad).sum() > 0


class TestSimulatedDataset:
    def test_collection_size_and_fields(self, adapter, sample_blocks, rng):
        dataset = collect_simulated_dataset(adapter, sample_blocks[:10], 24, rng,
                                            blocks_per_table=6)
        assert len(dataset) == 24
        assert len(dataset.tables) == 4
        assert all(timing > 0 for timing in dataset.example_timing)
        assert all(0 <= index < 10 for index in dataset.example_block)
        assert dataset.example_table == [index // 6 for index in range(24)]

    def test_collection_validation(self, adapter, sample_blocks, rng):
        with pytest.raises(ValueError):
            collect_simulated_dataset(adapter, [], 10, rng)
        with pytest.raises(ValueError):
            collect_simulated_dataset(adapter, sample_blocks[:2], 0, rng)

    def test_custom_table_sampler(self, adapter, sample_blocks, rng):
        spec = adapter.parameter_spec()
        fixed = spec.sample(np.random.default_rng(123))
        dataset = collect_simulated_dataset(adapter, sample_blocks[:5], 8, rng,
                                            blocks_per_table=4,
                                            table_sampler=lambda generator: fixed)
        assert len(dataset.tables) == 2
        # Tables are stored stacked, so each row equals ``fixed`` but is not it.
        assert all(np.array_equal(table.global_values, fixed.global_values)
                   and np.array_equal(table.per_instruction_values,
                                      fixed.per_instruction_values)
                   for table in dataset.tables)

    def test_tables_are_stacked_and_allocated_once(self, adapter, sample_blocks, rng):
        spec = adapter.parameter_spec()
        drawn = []

        def sampler(generator):
            drawn.append(spec.sample(generator))
            return drawn[-1]

        dataset = collect_simulated_dataset(adapter, sample_blocks[:6], 21, rng,
                                            blocks_per_table=4, table_sampler=sampler)
        stack = dataset.tables
        # ceil(21 / 4) tables, reserved up front: the storage holds exactly them.
        assert len(stack) == len(drawn) == 6
        assert stack.per_instruction_values.shape == (
            6, spec.num_opcodes, spec.per_instruction_dim)
        assert stack.per_instruction_values.base.shape[0] == 6
        for index, table in enumerate(drawn):
            assert np.array_equal(stack[index].per_instruction_values,
                                  table.per_instruction_values)
            assert np.array_equal(stack.global_values[index], table.global_values)
        with pytest.raises(IndexError):
            stack[6]
        arrays = dataset.to_arrays()
        assert arrays["table_per_instruction_values"].base is not None  # a view
        rebuilt = SimulatedDataset.from_arrays(arrays, dataset.blocks)
        assert np.array_equal(rebuilt.tables.per_instruction_values,
                              stack.per_instruction_values)

    def test_table_stack_grows_without_a_reservation(self, adapter, rng):
        spec = adapter.parameter_spec()
        tables = [spec.sample(rng) for _ in range(5)]
        dataset = SimulatedDataset([None] * 3)
        for table in tables:
            dataset.append_round(table, np.array([0, 2]), np.array([1.0, 2.0]))
        assert len(dataset.tables) == 5 and len(dataset) == 10
        assert all(np.array_equal(dataset.tables[index].global_values,
                                  table.global_values)
                   for index, table in enumerate(tables))
        assert dataset.example_table == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


class TestLosses:
    def test_mape_loss_value(self):
        assert mape_loss_value(np.array([2.0]), np.array([1.0])) == pytest.approx(1.0)

    def test_surrogate_loss_matches_numpy(self):
        loss = surrogate_loss(Tensor(np.array([2.0, 3.0])), [1.0, 6.0])
        assert loss.item() == pytest.approx((1.0 + 0.5) / 2)

    def test_surrogate_loss_validation(self):
        with pytest.raises(ValueError, match="empty batch"):
            surrogate_loss(Tensor(np.zeros(0)), [])
        with pytest.raises(ValueError, match="same length"):
            surrogate_loss(Tensor(np.array([1.0])), [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D prediction tensor"):
            surrogate_loss([Tensor(np.array(1.0))], [1.0])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                              st.floats(min_value=0.1, max_value=100.0)),
                    min_size=1, max_size=10))
    def test_surrogate_loss_is_nonnegative_and_agrees_with_numpy(self, pairs):
        predictions, targets = (np.array(column) for column in zip(*pairs))
        loss = surrogate_loss(Tensor(predictions), list(targets)).item()
        assert loss >= 0.0
        assert loss == pytest.approx(mape_loss_value(predictions, targets), rel=1e-12)

    def test_surrogate_loss_gradient_is_sign_over_target(self):
        predictions = Tensor(np.array([2.0, 3.0, 5.0]), requires_grad=True)
        surrogate_loss(predictions, [1.0, 6.0, 5.5]).backward()
        np.testing.assert_allclose(predictions.grad,
                                   [1.0 / (3 * 1.0), -1.0 / (3 * 6.0), -1.0 / (3 * 5.5)])

    def test_surrogate_loss_floors_targets_at_epsilon(self):
        loss = surrogate_loss(Tensor(np.array([1e-3])), [0.0], epsilon=1e-2)
        assert loss.item() == pytest.approx((1e-2 - 1e-3) / 1e-2)


class TestSurrogateTraining:
    def test_training_reduces_loss(self, adapter, featurizer, sample_blocks, rng):
        examples = collect_simulated_dataset(adapter, sample_blocks[:12], 48, rng,
                                             blocks_per_table=8)
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer,
                                    SurrogateConfig(kind="analytical", embedding_size=8,
                                                    hidden_size=12, seed=1))
        config = SurrogateTrainingConfig(learning_rate=0.01, batch_size=8, epochs=3, seed=0)
        result = train_surrogate(surrogate, examples, config)
        assert len(result.epoch_losses) == 3
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        assert result.final_training_error == pytest.approx(
            evaluate_surrogate(surrogate, examples), abs=1e-9)

    def test_training_empty_dataset(self, adapter, featurizer):
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer,
                                    SurrogateConfig(kind="analytical"))
        with pytest.raises(ValueError):
            train_surrogate(surrogate, SimulatedDataset([]), SurrogateTrainingConfig())


class TestTableOptimization:
    def test_trainable_table_roundtrip(self, adapter, rng):
        spec = adapter.parameter_spec()
        initial = spec.sample(rng)
        table = _TrainableTable(spec, initial)
        restored = table.to_parameter_arrays()
        np.testing.assert_allclose(restored.per_instruction_values,
                                   initial.per_instruction_values, atol=1e-9)
        np.testing.assert_allclose(restored.global_values, initial.global_values, atol=1e-9)

    def test_optimization_reduces_surrogate_loss(self, adapter, featurizer, sample_blocks, rng):
        examples = collect_simulated_dataset(adapter, sample_blocks[:12], 48, rng,
                                             blocks_per_table=8)
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer,
                                    SurrogateConfig(kind="analytical", embedding_size=8,
                                                    hidden_size=12, seed=2))
        train_surrogate(surrogate, examples,
                        SurrogateTrainingConfig(learning_rate=0.01, batch_size=8, epochs=2))
        blocks = sample_blocks[:12]
        timings = np.full(len(blocks), 1.5)
        result = optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(learning_rate=0.05, batch_size=6, epochs=4, seed=0))
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        extracted = result.learned_arrays
        assert extracted.per_instruction_values.min() >= 0

    def test_frozen_mask_respected(self, adapter, featurizer, sample_blocks, rng):
        spec = adapter.parameter_spec()
        surrogate = build_surrogate(spec, featurizer,
                                    SurrogateConfig(kind="analytical", embedding_size=8,
                                                    hidden_size=12, seed=3))
        blocks = sample_blocks[:8]
        timings = np.full(len(blocks), 1.0)
        initial = spec.sample(rng)
        per_mask = np.ones(spec.per_instruction_dim, dtype=bool)
        latency_slice = spec.per_instruction_field_slice("WriteLatency")
        per_mask[latency_slice] = False  # only WriteLatency is learnable
        global_mask = np.ones(spec.global_dim, dtype=bool)
        result = optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(learning_rate=0.1, batch_size=4, epochs=2, seed=0),
            initial_arrays=initial,
            frozen_per_instruction_mask=per_mask,
            frozen_global_mask=global_mask)
        uops_slice = spec.per_instruction_field_slice("NumMicroOps")
        np.testing.assert_allclose(
            result.learned_arrays.per_instruction_values[:, uops_slice],
            initial.per_instruction_values[:, uops_slice], atol=1e-9)
        np.testing.assert_allclose(result.learned_arrays.global_values,
                                   initial.global_values, atol=1e-9)

    def test_validation_errors(self, adapter, featurizer):
        surrogate = build_surrogate(adapter.parameter_spec(), featurizer,
                                    SurrogateConfig(kind="analytical"))
        with pytest.raises(ValueError):
            optimize_parameter_table(surrogate, [], np.zeros(0), TableOptimizationConfig())
