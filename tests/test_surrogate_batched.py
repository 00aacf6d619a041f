"""Batch-major surrogate training vs a per-example reference.

The contract: batched and scalar forward/backward agree within 1e-9, for
every surrogate variant, and a whole training run matches a per-example
reference loop built here on the scalar ``reference_forward``
(``tests/surrogate_reference.py``) and driven through the same
:func:`~repro.core.training_loop.run_minibatch_loop`.  A hypothesis
property test drives the comparison over random block subsets and parameter
tables; deterministic tests cover the
:class:`~repro.core.surrogate.BlockFeaturizer` cache and packing, the training-loop
integration, the ``log_every`` per-batch DEBUG log semantics (including the
final partial batch), and the ``surrogate_training_throughput`` scenario
registration.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registries import SURROGATES
from repro.autodiff.optim import Adam
from repro.autodiff.tensor import no_grad, stack
from repro.bhive import BlockGenerator
from repro.core.adapters import MCAAdapter
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.simulated_dataset import SimulatedDataset, collect_simulated_dataset
from repro.core.surrogate import (SurrogateConfig, _SurrogateBase,
                                  batch_parameter_inputs, build_surrogate)
from repro.core.surrogate import BlockFeaturizer, featurization_cache_stats
from repro.core.surrogate_training import (SurrogateTrainingConfig, evaluate_surrogate,
                                           train_surrogate)
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
def simulated(adapter, blocks):
    rng = np.random.default_rng(5)
    return collect_simulated_dataset(adapter, blocks, 48, rng, blocks_per_table=8)


def _build(adapter, kind, seed=0):
    config = SurrogateConfig(kind=kind, embedding_size=8, hidden_size=12,
                             num_lstm_layers=2, seed=seed)
    return build_surrogate(adapter.parameter_spec(), BlockFeaturizer(adapter.opcode_table),
                           config)


def _scalar_and_batched(surrogate, adapter, blocks, tables):
    """(scalar predictions, batched predictions) for aligned blocks/tables."""
    spec = adapter.parameter_spec()
    featurizer = surrogate.featurizer
    featurized = [featurizer.featurize(block) for block in blocks]
    packed = featurizer.pack([featurizer.arrays(block) for block in blocks])
    per_instruction, global_values = batch_parameter_inputs(spec, packed, tables)
    batched = surrogate.forward_batch(packed, per_instruction, global_values)
    scalar = []
    for featurized_block, table in zip(featurized, tables):
        normalized = spec.normalize_for_surrogate_training(table)
        rows = normalized.per_instruction_values[list(featurized_block.opcode_indices)]
        scalar.append(reference_forward(surrogate, featurized_block, rows,
                                        normalized.global_values))
    return scalar, batched


def _examples(dataset):
    """Each example's ``(table, block, timing)``, read from the flat rows."""
    return [(dataset.tables[table], dataset.blocks[block], timing)
            for table, block, timing in zip(dataset.example_table,
                                            dataset.example_block,
                                            dataset.example_timing)]


def _scalar_inputs(spec, table, featurized):
    """One example's normalized parameter rows and globals (no cache)."""
    normalized = spec.normalize_for_surrogate_training(table)
    return (normalized.per_instruction_values[list(featurized.opcode_indices)],
            normalized.global_values)


def _per_example_error(surrogate, dataset):
    """Reference MAPE: one scalar ``reference_forward`` per example."""
    spec = surrogate.spec
    predictions = []
    with no_grad():
        for table, block, _timing in _examples(dataset):
            featurized = surrogate.featurizer.featurize(block)
            rows, global_values = _scalar_inputs(spec, table, featurized)
            predictions.append(reference_forward(surrogate, featurized, rows,
                                                 global_values).item())
    return mape_loss_value(np.array(predictions),
                           np.array(dataset.example_timing))


def _per_example_training(surrogate, dataset, config):
    """Reference training run: ``train_surrogate`` with a per-example loss.

    Same optimizer, rng stream and loop as the batched path, so only the
    forward differs.  Returns ``(epoch_losses, final_training_error)``.
    """
    spec = surrogate.spec
    optimizer = Adam(surrogate.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    examples = [(table, surrogate.featurizer.featurize(block), timing)
                for table, block, timing in _examples(dataset)]

    def per_example_loss(batch_indices):
        predictions, targets = [], []
        for row in (int(index) for index in batch_indices):
            table, featurized, timing = examples[row]
            rows, global_values = _scalar_inputs(spec, table, featurized)
            predictions.append(reference_forward(surrogate, featurized, rows,
                                                 global_values))
            targets.append(timing)
        return surrogate_loss(stack(predictions), targets)

    surrogate.train()
    loop = run_minibatch_loop(
        len(examples), per_example_loss, optimizer, rng,
        batch_size=config.batch_size, epochs=config.epochs)
    surrogate.eval()
    return loop.epoch_losses, _per_example_error(surrogate, dataset)


class TestForwardEquivalence:
    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_predictions_match_within_1e9(self, adapter, blocks, kind):
        surrogate = _build(adapter, kind)
        rng = np.random.default_rng(3)
        spec = adapter.parameter_spec()
        tables = [spec.sample(rng) for _ in blocks]
        scalar, batched = _scalar_and_batched(surrogate, adapter, blocks, tables)
        scalar_values = np.array([prediction.item() for prediction in scalar])
        np.testing.assert_allclose(batched.numpy(), scalar_values,
                                   atol=EQUIVALENCE_ATOL, rtol=0)

    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_loss_and_gradients_match_within_1e9(self, adapter, blocks, kind):
        surrogate = _build(adapter, kind)
        rng = np.random.default_rng(7)
        spec = adapter.parameter_spec()
        tables = [spec.sample(rng) for _ in blocks]
        targets = [1.0 + 0.5 * index for index in range(len(blocks))]

        scalar, batched = _scalar_and_batched(surrogate, adapter, blocks, tables)
        batched_loss = surrogate_loss(batched, targets)
        surrogate.zero_grad()
        batched_loss.backward()
        batched_grads = {name: parameter.grad.copy()
                         for name, parameter in surrogate.named_parameters()
                         if parameter.grad is not None}

        scalar_loss = surrogate_loss(stack(scalar), targets)
        surrogate.zero_grad()
        scalar_loss.backward()
        scalar_grads = {name: parameter.grad.copy()
                        for name, parameter in surrogate.named_parameters()
                        if parameter.grad is not None}

        assert abs(batched_loss.item() - scalar_loss.item()) < EQUIVALENCE_ATOL
        assert set(batched_grads) == set(scalar_grads)
        for name in scalar_grads:
            np.testing.assert_allclose(batched_grads[name], scalar_grads[name],
                                       atol=EQUIVALENCE_ATOL, rtol=0, err_msg=name)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           batch=st.integers(min_value=1, max_value=8))
    def test_property_random_batches_and_tables_agree(self, adapter, blocks,
                                                      seed, batch):
        """Hypothesis: batched and per-example losses match within 1e-9."""
        rng = np.random.default_rng(seed)
        surrogate = _build(adapter, "pooled", seed=seed % 101)
        spec = adapter.parameter_spec()
        chosen = [blocks[int(index)] for index in
                  rng.integers(0, len(blocks), size=batch)]
        tables = [spec.sample(rng) for _ in chosen]
        targets = rng.uniform(0.5, 20.0, size=batch).tolist()
        scalar, batched = _scalar_and_batched(surrogate, adapter, chosen, tables)
        scalar_loss = surrogate_loss(stack(scalar), targets).item()
        batched_loss = surrogate_loss(batched, targets).item()
        assert abs(scalar_loss - batched_loss) < EQUIVALENCE_ATOL


class TestFeaturizationCache:
    def test_pack_pads_and_masks(self, adapter, blocks):
        featurizer = BlockFeaturizer(adapter.opcode_table)
        featurized = [featurizer.featurize(block) for block in blocks[:4]]
        packed = featurizer.pack([featurizer.arrays(block) for block in blocks[:4]])
        lengths = [len(entry.opcode_indices) for entry in featurized]
        assert packed.batch_size == 4
        assert packed.max_instructions == max(lengths)
        np.testing.assert_array_equal(packed.lengths, lengths)
        np.testing.assert_array_equal(packed.instruction_mask.sum(axis=1), lengths)
        for row, entry in enumerate(featurized):
            np.testing.assert_array_equal(
                packed.opcode_indices[row, :lengths[row]], entry.opcode_indices)
            token_counts = [len(ids) for ids in entry.token_ids]
            np.testing.assert_array_equal(
                packed.token_mask[row, :lengths[row]].sum(axis=1), token_counts)
        # Padding past each block's length is fully masked.
        for row, length in enumerate(lengths):
            assert packed.instruction_mask[row, length:].sum() == 0
            assert packed.token_mask[row, length:].sum() == 0

    def test_pack_empty_batch_rejected(self, adapter):
        featurizer = BlockFeaturizer(adapter.opcode_table)
        with pytest.raises(ValueError, match="empty batch"):
            featurizer.pack([])

    def test_block_arrays_cached_per_block(self, adapter, blocks):
        featurizer = BlockFeaturizer(adapter.opcode_table)
        first = featurizer.arrays(blocks[0])
        again = featurizer.arrays(blocks[0])
        assert first is again

    def test_resolve_looks_up_each_distinct_block_once(self, adapter, blocks):
        """A block list resolves up front, and each distinct block is built
        once: repeats are cache hits returning the same arrays."""
        featurizer = BlockFeaturizer(adapter.opcode_table)
        before = featurization_cache_stats()
        lookup = featurizer.lookup([blocks[0], blocks[1], blocks[0], blocks[0]])
        after = featurization_cache_stats()
        resolved = [lookup(position) for position in range(4)]
        assert featurization_cache_stats() == after
        assert [arrays is resolved[0] for arrays in resolved] == \
            [True, False, True, True]
        assert after["block_misses"] - before["block_misses"] == 2
        assert after["block_hits"] - before["block_hits"] == 2

    def test_batch_parameters_equal_per_table_normalization(self, adapter, blocks):
        """Normalizing the gathered batch equals normalizing each whole table
        (``==``, not a tolerance), and padded slots are zero."""
        spec = adapter.parameter_spec()
        featurizer = BlockFeaturizer(adapter.opcode_table)
        featurized = [featurizer.featurize(block) for block in blocks[:5]]
        rng = np.random.default_rng(0)
        table = spec.sample(rng)
        # Examples 0 and 2 share one table object, as collection's
        # blocks_per_table grouping does.
        tables = [table, spec.sample(rng), table, spec.sample(rng),
                  spec.sample(rng)]
        packed = featurizer.pack([featurizer.arrays(block) for block in blocks[:5]])
        per_instruction, global_values = batch_parameter_inputs(spec, packed,
                                                                tables)
        assert per_instruction.shape == (5, packed.max_instructions,
                                         spec.per_instruction_dim)
        for row, (entry, table) in enumerate(zip(featurized, tables)):
            normalized = spec.normalize_for_surrogate_training(table)
            length = len(entry.opcode_indices)
            np.testing.assert_array_equal(
                per_instruction[row, :length],
                normalized.per_instruction_values[list(entry.opcode_indices)])
            assert not per_instruction[row, length:].any()
            np.testing.assert_array_equal(global_values[row],
                                          normalized.global_values)

    def test_batch_parameters_alignment_validated(self, adapter, blocks):
        spec = adapter.parameter_spec()
        featurizer = BlockFeaturizer(adapter.opcode_table)
        packed = featurizer.pack([featurizer.arrays(block) for block in blocks[:2]])
        with pytest.raises(ValueError, match="1 tables for a batch of 2.*aligned"):
            batch_parameter_inputs(spec, packed,
                                   [spec.sample(np.random.default_rng(0))])


class TestTrainingPaths:
    def test_batched_and_scalar_training_agree(self, adapter, simulated):
        config = SurrogateTrainingConfig(epochs=1, batch_size=16, seed=0)
        batched = train_surrogate(_build(adapter, "pooled"), simulated, config)
        scalar_losses, scalar_error = _per_example_training(
            _build(adapter, "pooled"), simulated, config)
        np.testing.assert_allclose(batched.epoch_losses, scalar_losses,
                                   atol=1e-7, rtol=0)
        assert abs(batched.final_training_error - scalar_error) < 1e-7

    def test_evaluate_surrogate_batched_matches_per_example(self, adapter, simulated):
        surrogate = _build(adapter, "analytical")
        batched_error = evaluate_surrogate(surrogate, simulated, batch_size=16)
        scalar_error = _per_example_error(surrogate, simulated)
        assert abs(batched_error - scalar_error) < 1e-9

    def test_evaluate_surrogate_rejects_non_positive_batch_size(self, adapter,
                                                                simulated):
        surrogate = _build(adapter, "pooled")
        with pytest.raises(ValueError, match="batch_size"):
            evaluate_surrogate(surrogate, simulated, batch_size=0)

    def test_build_surrogate_requires_forward_batch(self, adapter):
        class ScalarOnlySurrogate(_SurrogateBase):
            def forward(self, featurized, per_instruction_params, global_params):
                raise AssertionError("never constructed")

        SURROGATES.register("scalar_only", ScalarOnlySurrogate)
        try:
            with pytest.raises(ValueError,
                               match="'scalar_only'.*ScalarOnlySurrogate.*"
                                     "forward_batch"):
                build_surrogate(adapter.parameter_spec(),
                                BlockFeaturizer(adapter.opcode_table),
                                SurrogateConfig(kind="scalar_only"))
        finally:
            SURROGATES.unregister("scalar_only")

    def test_throughput_metadata_populated(self, adapter, simulated):
        surrogate = _build(adapter, "pooled")
        config = SurrogateTrainingConfig(epochs=2, batch_size=16, seed=0)
        result = train_surrogate(surrogate, simulated, config)
        assert result.examples_per_second > 0


class TestNoDigestInsideTheMinibatchLoop:
    """Both phases resolve per-block arrays before their minibatch loop, and
    digest no table."""

    def test_train_surrogate_and_optimize_parameter_table(self, adapter, blocks,
                                                          simulated, monkeypatch):
        import repro.core.surrogate as surrogate_module
        import repro.core.surrogate_training as training
        import repro.core.table_optimization as optimization
        from repro.core.table_optimization import (TableOptimizationConfig,
                                                   optimize_parameter_table)

        loop_depth = []
        calls = {name: {"total": 0, "in_loop": 0}
                 for name in ("table_digest", "arrays")}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name]["total"] += 1
                calls[name]["in_loop"] += bool(loop_depth)
                return function(*args, **kwargs)
            return wrapper

        def tracked(loop):
            def wrapper(*args, **kwargs):
                loop_depth.append(loop)
                try:
                    return loop(*args, **kwargs)
                finally:
                    loop_depth.pop()
            return wrapper

        monkeypatch.setattr(surrogate_module, "table_digest",
                            counted("table_digest", surrogate_module.table_digest))
        monkeypatch.setattr(BlockFeaturizer, "arrays",
                            counted("arrays", BlockFeaturizer.arrays))
        for module in (training, optimization):
            monkeypatch.setattr(module, "run_minibatch_loop",
                                tracked(module.run_minibatch_loop))

        surrogate = _build(adapter, "analytical")
        train_surrogate(surrogate, simulated,
                        SurrogateTrainingConfig(epochs=2, batch_size=8, seed=0))
        optimize_parameter_table(surrogate, blocks,
                                 np.linspace(1.0, 6.0, len(blocks)),
                                 TableOptimizationConfig(epochs=2, batch_size=4))
        assert calls["arrays"]["total"] > 0  # resolved before the loops
        assert calls["arrays"]["in_loop"] == 0
        assert calls["table_digest"] == {"total": 0, "in_loop": 0}


class TestProgressCallback:
    """The loop's throttled per-batch losses, read from its DEBUG records."""

    @staticmethod
    def _run(caplog, adapter, simulated, num_examples, batch_size, log_every):
        surrogate = _build(adapter, "pooled")
        config = SurrogateTrainingConfig(epochs=1, batch_size=batch_size, seed=0,
                                         log_every=log_every)
        prefix = SimulatedDataset(simulated.blocks, simulated.tables,
                                  simulated.example_table[:num_examples],
                                  simulated.example_block[:num_examples],
                                  simulated.example_timing[:num_examples])
        with caplog.at_level(logging.DEBUG, logger="repro.core.training_loop"):
            train_surrogate(surrogate, prefix, config)
        return [record.args for record in caplog.records
                if record.name == "repro.core.training_loop"
                and record.levelno == logging.DEBUG]

    def test_final_partial_batch_triggers_callback(self, adapter, simulated, caplog):
        # 13 examples at batch size 4 -> batches 0..3, the last one partial.
        # log_every=3 logs batches 0 and 3; the regression was that the
        # final partial batch (3) never logged.
        calls = self._run(caplog, adapter, simulated, num_examples=13, batch_size=4,
                          log_every=3)
        assert [batch for _epoch, batch, _loss in calls] == [0, 3]

    def test_final_partial_batch_logged_off_the_stride(self, adapter, simulated,
                                                       caplog):
        # log_every=2 logs batches 0 and 2; the final partial batch 3 is
        # off the stride and logs only because it ends the epoch.
        calls = self._run(caplog, adapter, simulated, num_examples=13, batch_size=4,
                          log_every=2)
        assert [batch for _epoch, batch, _loss in calls] == [0, 2, 3]

    def test_final_batch_not_double_reported(self, adapter, simulated, caplog):
        # 8 examples at batch size 4 -> batches 0 and 1; log_every=1 already
        # logs every batch, so the final batch appears exactly once.
        calls = self._run(caplog, adapter, simulated, num_examples=8, batch_size=4,
                          log_every=1)
        assert [batch for _epoch, batch, _loss in calls] == [0, 1]

    def test_log_every_zero_disables_callbacks(self, adapter, simulated, caplog):
        calls = self._run(caplog, adapter, simulated, num_examples=8, batch_size=4,
                          log_every=0)
        assert calls == []


class TestThroughputScenario:
    def test_registered_with_ci_tag(self):
        from repro.bench import DEFAULT_REGISTRY

        scenario = DEFAULT_REGISTRY.get("surrogate_training_throughput")
        assert "ci" in scenario.tags and "perf" in scenario.tags

    def test_smoke_tier_reports_speedup_and_loss_agreement(self):
        from repro.bench import Runner, RunnerConfig

        runner = Runner(RunnerConfig(tier="smoke"))
        entry = runner.run_scenario(
            runner.registry.get("surrogate_training_throughput"))
        metrics = entry["metrics"]
        assert set(metrics["paths"]) == {"batched", "fast_shape"}
        for path in metrics["paths"].values():
            assert path["examples_per_sec"] > 0
            assert np.isfinite(path["final_training_error"])
        # The shape the fast preset's phase one issues.
        assert metrics["paths"]["fast_shape"]["surrogate_kind"] == "analytical"
        assert metrics["paths"]["fast_shape"]["batch_size"] == 16
