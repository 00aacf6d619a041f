"""Batch-major phase-two table optimization vs a per-block reference.

The contract: batched table optimization agrees within 1e-9 in per-epoch
loss — frozen masks included — with a per-block reference loop built here
on the scalar ``reference_forward`` (``tests/surrogate_reference.py``;
fancy-indexed ``_TrainableTable`` rows, the same
frozen-dimension restore) and driven through the same
:func:`~repro.core.training_loop.run_minibatch_loop`.  A hypothesis property
test drives the comparison over random block subsets, seeds, and
frozen-mask settings; deterministic tests cover each surrogate variant and
the scatter-add/frozen-mask interaction.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import stack
from repro.bhive import BlockGenerator
from repro.core.adapters import MCAAdapter
from repro.core.losses import surrogate_loss
from repro.core.surrogate import SurrogateConfig, build_surrogate
from repro.core.surrogate import BlockFeaturizer
from repro.core.table_optimization import (TableOptimizationConfig,
                                           TableOptimizationResult,
                                           _TrainableTable,
                                           optimize_parameter_table)
from repro.core.training_loop import run_minibatch_loop
from repro.targets import HASWELL
from surrogate_reference import reference_forward

EQUIVALENCE_ATOL = 1e-9


@pytest.fixture(scope="module")
def adapter():
    return MCAAdapter(HASWELL, narrow_sampling=True)


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=11).generate_blocks(12)


@pytest.fixture(scope="module")
def timings(blocks):
    return np.linspace(1.0, 3.0, len(blocks))


def _build(adapter, kind, seed=0):
    config = SurrogateConfig(kind=kind, embedding_size=8, hidden_size=12,
                             num_lstm_layers=2, seed=seed)
    return build_surrogate(adapter.parameter_spec(), BlockFeaturizer(adapter.opcode_table),
                           config)


def _writelatency_masks(spec):
    """Freeze everything except WriteLatency (the Section VI-B setting)."""
    per_mask = np.ones(spec.per_instruction_dim, dtype=bool)
    per_mask[spec.per_instruction_field_slice("WriteLatency")] = False
    global_mask = np.ones(spec.global_dim, dtype=bool)
    return per_mask, global_mask


def _per_block_optimization(surrogate, blocks, timings, config, initial,
                            per_mask, global_mask):
    """Reference run: ``optimize_parameter_table`` with a per-block loss.

    Each block's inputs are its opcodes' fancy-indexed table rows (repeated
    opcodes accumulate gradient into one row) through the scalar
    ``reference_forward``; frozen dimensions are restored after every step
    exactly as the batched path does.
    """
    rng = np.random.default_rng(config.seed)
    table = _TrainableTable(surrogate.spec, initial)
    optimizer = Adam(table.parameters(), lr=config.learning_rate)
    frozen_per_instruction = table.per_instruction.data.copy()
    frozen_global = table.global_values.data.copy()

    def restore_frozen():
        if per_mask is not None:
            table.per_instruction.data[:, per_mask] = \
                frozen_per_instruction[:, per_mask]
        if global_mask is not None and table.global_values.size > 0:
            table.global_values.data[global_mask] = frozen_global[global_mask]

    surrogate.eval()
    featurized = [surrogate.featurizer.featurize(block) for block in blocks]

    def per_block_loss(batch_indices):
        predictions, targets = [], []
        for row in (int(index) for index in batch_indices):
            rows = table.per_instruction[
                list(featurized[row].opcode_indices)].abs().clamp(0.0, 1.0)
            global_vector = table.global_values.abs().clamp(0.0, 1.0)
            predictions.append(reference_forward(surrogate, featurized[row], rows,
                                                 global_vector))
            targets.append(float(timings[row]))
        return surrogate_loss(stack(predictions), targets)

    loop = run_minibatch_loop(
        len(blocks), per_block_loss, optimizer, rng,
        batch_size=config.batch_size, epochs=config.epochs,
        post_step=restore_frozen)
    return TableOptimizationResult(learned_arrays=table.to_parameter_arrays(),
                                   epoch_losses=loop.epoch_losses,
                                   initial_arrays=initial)


def _both_paths(adapter, kind, blocks, timings, config_kwargs, frozen=False,
                initial_seed=1):
    spec = adapter.parameter_spec()
    initial = spec.sample(np.random.default_rng(initial_seed))
    masks = _writelatency_masks(spec) if frozen else (None, None)
    config = TableOptimizationConfig(**config_kwargs)
    scalar = _per_block_optimization(_build(adapter, kind), blocks, timings,
                                     config, initial, *masks)
    batched = optimize_parameter_table(
        _build(adapter, kind), blocks, timings, config,
        initial_arrays=initial,
        frozen_per_instruction_mask=masks[0],
        frozen_global_mask=masks[1])
    return initial, scalar, batched


class TestEpochLossEquivalence:
    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_losses_and_learned_tables_match(self, adapter, blocks, timings, kind):
        _initial, scalar, batched = _both_paths(
            adapter, kind, blocks, timings,
            dict(learning_rate=0.05, batch_size=5, epochs=3, seed=0))
        np.testing.assert_allclose(batched.epoch_losses, scalar.epoch_losses,
                                   atol=EQUIVALENCE_ATOL, rtol=0)
        np.testing.assert_allclose(batched.learned_arrays.per_instruction_values,
                                   scalar.learned_arrays.per_instruction_values,
                                   atol=1e-8, rtol=0)
        np.testing.assert_allclose(batched.learned_arrays.global_values,
                                   scalar.learned_arrays.global_values,
                                   atol=1e-8, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(subset_seed=st.integers(0, 2 ** 16), num_blocks=st.integers(2, 8),
           batch_size=st.integers(1, 7), seed=st.integers(0, 2 ** 16),
           frozen=st.booleans())
    def test_property_epoch_losses_match(self, adapter, blocks, timings,
                                         subset_seed, num_blocks, batch_size,
                                         seed, frozen):
        picker = np.random.default_rng(subset_seed)
        chosen = picker.choice(len(blocks), size=num_blocks, replace=False)
        chosen_blocks = [blocks[int(index)] for index in chosen]
        chosen_timings = timings[chosen]
        _initial, scalar, batched = _both_paths(
            adapter, "pooled", chosen_blocks, chosen_timings,
            dict(learning_rate=0.05, batch_size=batch_size, epochs=2, seed=seed),
            frozen=frozen, initial_seed=seed + 1)
        np.testing.assert_allclose(batched.epoch_losses, scalar.epoch_losses,
                                   atol=EQUIVALENCE_ATOL, rtol=0)


class TestFrozenMasks:
    def test_frozen_dims_do_not_drift_through_scatter_add(self, adapter, blocks,
                                                          timings):
        """Regression (ISSUE 4 satellite): batched gradients scatter-add into
        whole table rows, so frozen dimensions would drift if restoration
        missed them — they must end exactly at their initial values."""
        spec = adapter.parameter_spec()
        initial, scalar, batched = _both_paths(
            adapter, "pooled", blocks, timings,
            dict(learning_rate=0.1, batch_size=4, epochs=2, seed=0), frozen=True)
        for result in (scalar, batched):
            per_mask, global_mask = _writelatency_masks(spec)
            np.testing.assert_array_equal(
                result.learned_arrays.per_instruction_values[:, per_mask],
                initial.per_instruction_values[:, per_mask])
            np.testing.assert_array_equal(result.learned_arrays.global_values,
                                          initial.global_values)
        # ... while the learnable dimensions actually moved.
        latency = spec.per_instruction_field_slice("WriteLatency")
        assert not np.allclose(
            batched.learned_arrays.per_instruction_values[:, latency],
            initial.per_instruction_values[:, latency])

    def test_frozen_epoch_losses_match_between_paths(self, adapter, blocks, timings):
        _initial, scalar, batched = _both_paths(
            adapter, "analytical", blocks, timings,
            dict(learning_rate=0.05, batch_size=4, epochs=2, seed=3), frozen=True)
        np.testing.assert_allclose(batched.epoch_losses, scalar.epoch_losses,
                                   atol=EQUIVALENCE_ATOL, rtol=0)


class TestProgressCallback:
    """The loop's throttled per-batch losses, read from its DEBUG records."""

    @staticmethod
    def _batches(caplog, adapter, blocks, timings, config):
        surrogate = _build(adapter, "pooled")
        with caplog.at_level(logging.DEBUG, logger="repro.core.training_loop"):
            optimize_parameter_table(surrogate, blocks, timings, config)
        return [record.args[:2] for record in caplog.records
                if record.name == "repro.core.training_loop"
                and record.levelno == logging.DEBUG]

    def test_progress_fires_every_batch_by_default(self, adapter, blocks, timings,
                                                   caplog):
        seen = self._batches(caplog, adapter, blocks, timings,
                             TableOptimizationConfig(batch_size=5, epochs=2))
        batches_per_epoch = -(-len(blocks) // 5)
        assert seen == [(epoch, batch) for epoch in range(2)
                        for batch in range(batches_per_epoch)]

    def test_log_every_zero_disables_progress(self, adapter, blocks, timings, caplog):
        seen = self._batches(caplog, adapter, blocks, timings,
                             TableOptimizationConfig(batch_size=5, epochs=1,
                                                     log_every=0))
        assert seen == []


class TestFrozenSurrogate:
    """Phase two trains the table only: the surrogate's weights record no
    gradients, and their ``requires_grad`` flags come back afterwards."""

    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_no_surrogate_weight_holds_a_gradient(self, adapter, blocks, timings,
                                                  kind):
        surrogate = _build(adapter, kind)
        optimize_parameter_table(surrogate, blocks, timings,
                                 TableOptimizationConfig(batch_size=5, epochs=2))
        assert [name for name, weight in surrogate.named_parameters()
                if weight.grad is not None] == []
        assert all(weight.requires_grad for weight in surrogate.parameters())

    def test_flags_restored_so_training_still_updates_weights(self, adapter,
                                                              blocks, timings):
        from repro.core.simulated_dataset import collect_simulated_dataset
        from repro.core.surrogate_training import (SurrogateTrainingConfig,
                                                   train_surrogate)

        surrogate = _build(adapter, "pooled")
        optimize_parameter_table(surrogate, blocks, timings,
                                 TableOptimizationConfig(batch_size=5, epochs=1))
        before = {name: weight.data.copy()
                  for name, weight in surrogate.named_parameters()}
        dataset = collect_simulated_dataset(adapter, blocks, 24,
                                            np.random.default_rng(3),
                                            blocks_per_table=6)
        train_surrogate(surrogate, dataset,
                        SurrogateTrainingConfig(batch_size=8, epochs=1))
        changed = [name for name, weight in surrogate.named_parameters()
                   if not np.array_equal(weight.data, before[name])]
        assert changed == list(before)

    def test_flags_restored_when_the_loop_raises(self, adapter, blocks):
        surrogate = _build(adapter, "pooled")
        with pytest.raises(FloatingPointError):
            optimize_parameter_table(surrogate, blocks,
                                     np.full(len(blocks), np.nan),
                                     TableOptimizationConfig(batch_size=5))
        assert all(weight.requires_grad for weight in surrogate.parameters())
