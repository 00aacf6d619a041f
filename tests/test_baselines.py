"""Tests for the baselines: OpenTuner-style tuner, random search, Ithemal, IACA."""

import numpy as np
import pytest

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import no_grad, stack
from repro.baselines import (BanditEnsemble, IACAModel, IthemalBaseline, IthemalConfig,
                             OpenTunerBaseline, OpenTunerConfig, random_search)
from repro.baselines.opentuner import (_DifferentialEvolution, _GaussianMutation, _HillClimb,
                                       _RandomSearch, _SimulatedAnnealing)
from repro.core.adapters import MCAAdapter
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.surrogate import SurrogateConfig
from repro.core.training_loop import run_minibatch_loop
from repro.isa.parser import parse_block
from repro.targets import HASWELL, ZEN2
from surrogate_reference import reference_forward


@pytest.fixture(scope="module")
def tuning_data(small_dataset):
    examples = small_dataset.train_examples[:50]
    blocks = [example.block for example in examples]
    timings = np.array([example.timing for example in examples])
    return blocks, timings


class TestBandit:
    def test_every_arm_pulled_first(self):
        bandit = BanditEnsemble([_RandomSearch(), _HillClimb(), _GaussianMutation()])
        picks = set()
        for _ in range(3):
            index = bandit.select()
            picks.add(index)
            bandit.update(index, 0.0)
        assert picks == {0, 1, 2}

    def test_rewarded_arm_preferred(self):
        bandit = BanditEnsemble([_RandomSearch(), _HillClimb()], exploration=0.1)
        for _ in range(2):
            bandit.select()
        for _ in range(20):
            bandit.update(0, 1.0)
            bandit.update(1, 0.0)
        assert bandit.select() == 0

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            BanditEnsemble([])


class TestSearchTechniques:
    @pytest.mark.parametrize("technique", [_RandomSearch(), _HillClimb(), _GaussianMutation(),
                                           _DifferentialEvolution(), _SimulatedAnnealing()])
    def test_proposals_stay_in_bounds(self, technique, rng):
        low = np.zeros(50)
        high = np.full(50, 5.0)
        best = rng.uniform(low, high)
        for _ in range(10):
            proposal = technique.propose(best, low, high, rng)
            assert proposal.shape == best.shape
            assert np.all(proposal >= low - 1e-9)
            assert np.all(proposal <= high + 1e-9)

    def test_annealing_temperature_decays(self, rng):
        technique = _SimulatedAnnealing()
        initial = technique.temperature
        technique.propose(np.zeros(4), np.zeros(4), np.ones(4), rng)
        assert technique.temperature < initial


class TestOpenTunerBaseline:
    def test_tuning_stays_in_random_table_regime_or_better(self, tuning_data):
        """The black-box tuner cannot be catastrophically worse than the random
        tables it searches over (the paper reports it plateaus above 100%)."""
        blocks, timings = tuning_data
        adapter = MCAAdapter(HASWELL, narrow_sampling=True)
        tuner = OpenTunerBaseline(adapter, OpenTunerConfig(
            evaluation_budget=3000, blocks_per_evaluation=30, seed=0))
        arrays = tuner.tune(blocks, timings)
        tuned_error = mape_loss_value(adapter.predict_timings(arrays, blocks), timings)
        rng = np.random.default_rng(0)
        random_errors = [mape_loss_value(
            adapter.predict_timings(adapter.parameter_spec().sample(rng), blocks), timings)
            for _ in range(4)]
        assert np.isfinite(tuned_error)
        assert tuned_error <= max(random_errors) * 1.5

    def test_tuned_table_is_valid(self, tuning_data):
        blocks, timings = tuning_data
        adapter = MCAAdapter(HASWELL)
        tuner = OpenTunerBaseline(adapter, OpenTunerConfig(
            evaluation_budget=600, blocks_per_evaluation=20, seed=1))
        arrays = tuner.tune(blocks, timings)
        adapter.table_from_arrays(arrays).validate()

    def test_budget_limits_evaluations(self, tuning_data):
        blocks, timings = tuning_data
        adapter = MCAAdapter(HASWELL)
        messages = []
        tuner = OpenTunerBaseline(adapter, OpenTunerConfig(
            evaluation_budget=200, blocks_per_evaluation=50, seed=2), log=messages.append)
        tuner.tune(blocks, timings)
        assert any("finished after" in message for message in messages)


class TestRandomSearch:
    def test_returns_best_of_samples(self, tuning_data):
        blocks, timings = tuning_data
        adapter = MCAAdapter(HASWELL)
        best_arrays, best_error = random_search(adapter, blocks, timings, num_samples=4,
                                                seed=0, blocks_per_evaluation=20)
        assert best_error > 0
        adapter.table_from_arrays(best_arrays).validate()

    def test_more_samples_never_worse(self, tuning_data):
        blocks, timings = tuning_data
        adapter = MCAAdapter(HASWELL)
        _, error_few = random_search(adapter, blocks, timings, num_samples=1, seed=5,
                                     blocks_per_evaluation=20)
        _, error_many = random_search(adapter, blocks, timings, num_samples=5, seed=5,
                                      blocks_per_evaluation=20)
        assert error_many <= error_few + 1e-9

    def test_validation(self, tuning_data):
        blocks, timings = tuning_data
        with pytest.raises(ValueError):
            random_search(MCAAdapter(HASWELL), blocks, timings, num_samples=0)


class TestIthemalBaseline:
    def test_training_and_prediction(self, tuning_data):
        blocks, timings = tuning_data
        baseline = IthemalBaseline(config=IthemalConfig(
            surrogate=SurrogateConfig(kind="pooled", embedding_size=8, hidden_size=16),
            epochs=2, batch_size=8))
        losses = baseline.fit(blocks, timings)
        assert len(losses) == 2
        predictions = baseline.predict_many(blocks[:5])
        assert predictions.shape == (5,)
        assert np.all(predictions > 0)

    def test_learned_model_beats_constant_guess(self, tuning_data):
        blocks, timings = tuning_data
        baseline = IthemalBaseline(config=IthemalConfig(
            surrogate=SurrogateConfig(kind="pooled", embedding_size=12, hidden_size=24),
            epochs=6, batch_size=8))
        baseline.fit(blocks, timings)
        error = baseline.evaluate(blocks, timings)
        constant_error = mape_loss_value(np.full(len(timings), float(np.median(timings))),
                                         timings)
        assert error < constant_error

    def test_alignment_validation(self, tuning_data):
        blocks, timings = tuning_data
        baseline = IthemalBaseline()
        with pytest.raises(ValueError):
            baseline.fit(blocks, timings[:-1])

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="at least one example"):
            IthemalBaseline().fit([], np.array([]))

    def test_zero_batch_size_rejected(self, tuning_data):
        blocks, timings = tuning_data
        baseline = IthemalBaseline(config=IthemalConfig(batch_size=0))
        with pytest.raises(ValueError, match="batch_size"):
            baseline.fit(blocks, timings)

    @staticmethod
    def _small(**overrides):
        settings = dict(surrogate=SurrogateConfig(kind="pooled", embedding_size=8,
                                                  hidden_size=12, num_lstm_layers=1),
                        batch_size=6, epochs=2)
        settings.update(overrides)
        return IthemalBaseline(config=IthemalConfig(**settings))

    @pytest.mark.parametrize("gradient_clip", [0.0, -1.0])
    def test_nonpositive_gradient_clip_disables_clipping(self, tuning_data, gradient_clip):
        blocks, timings = tuning_data
        blocks, timings = blocks[:20], timings[:20]
        unclipped = self._small(gradient_clip=1e12)
        disabled = self._small(gradient_clip=gradient_clip)
        assert disabled.fit(blocks, timings) == unclipped.fit(blocks, timings)
        np.testing.assert_array_equal(disabled.predict_many(blocks),
                                      unclipped.predict_many(blocks))

    def test_predictions_do_not_depend_on_chunking(self, tuning_data, monkeypatch):
        import repro.baselines.ithemal as ithemal_module

        blocks, timings = tuning_data
        baseline = self._small()
        baseline.fit(blocks[:20], timings[:20])
        chunked = baseline.predict_many(blocks)
        monkeypatch.setattr(ithemal_module, "PREDICT_CHUNK", 1)
        one_at_a_time = baseline.predict_many(blocks)
        np.testing.assert_allclose(chunked, one_at_a_time, atol=1e-12, rtol=0)

    def test_fit_is_deterministic_for_a_seed(self, tuning_data):
        blocks, timings = tuning_data
        blocks, timings = blocks[:20], timings[:20]
        first, again, other = self._small(), self._small(), self._small(seed=1)
        losses = first.fit(blocks, timings)
        assert again.fit(blocks, timings) == losses
        assert other.fit(blocks, timings) != losses
        np.testing.assert_array_equal(first.predict_many(blocks),
                                      again.predict_many(blocks))

    def test_predict_many_of_no_blocks_is_empty(self):
        predictions = self._small().predict_many([])
        assert predictions.shape == (0,)


def _per_example_ithemal(baseline, blocks, timings):
    """Reference ``fit`` + ``predict_many``: one ``reference_forward`` per block.

    Same optimizer, rng stream and loop as the baseline, so only the forward
    differs.  Returns ``(epoch_losses, predictions)``.
    """
    config = baseline.config
    featurized = [baseline.featurizer.featurize(block) for block in blocks]

    def predict(row):
        return reference_forward(baseline.model, featurized[row],
                                 np.zeros((len(blocks[row]), 1)), np.zeros(0))

    def per_example_loss(batch_indices):
        rows = [int(index) for index in batch_indices]
        return surrogate_loss(stack([predict(row) for row in rows]),
                              [float(timings[row]) for row in rows])

    baseline.model.train()
    loop = run_minibatch_loop(
        len(blocks), per_example_loss,
        Adam(baseline.model.parameters(), lr=config.learning_rate),
        np.random.default_rng(config.seed), batch_size=config.batch_size,
        epochs=config.epochs, gradient_clip=config.gradient_clip)
    baseline.model.eval()
    with no_grad():
        predictions = np.array([predict(row).item() for row in range(len(blocks))])
    return loop.epoch_losses, predictions


class TestIthemalBatchedEquivalence:
    """The batched baseline against a per-example reference, within 1e-9."""

    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_losses_and_predictions_match_reference(self, tuning_data, kind):
        blocks, timings = tuning_data
        blocks, timings = blocks[:20], timings[:20]

        def build():
            return IthemalBaseline(config=IthemalConfig(
                surrogate=SurrogateConfig(kind=kind, embedding_size=8, hidden_size=12,
                                          num_lstm_layers=1),
                batch_size=6, epochs=2))

        batched = build()
        losses = batched.fit(blocks, timings)
        predictions = batched.predict_many(blocks)
        reference_losses, reference_predictions = _per_example_ithemal(
            build(), blocks, timings)
        np.testing.assert_allclose(losses, reference_losses, atol=1e-9, rtol=0)
        np.testing.assert_allclose(predictions, reference_predictions,
                                   atol=1e-9, rtol=0)


class TestIACA:
    def test_intel_supported_amd_not(self):
        assert IACAModel(HASWELL).supported
        assert not IACAModel(ZEN2).supported

    def test_unsupported_prediction_raises(self):
        with pytest.raises(ValueError):
            IACAModel(ZEN2).predict_timing(parse_block("addq %rax, %rbx"))

    def test_predictions_positive(self, sample_blocks):
        model = IACAModel(HASWELL)
        predictions = model.predict_many(sample_blocks[:10])
        assert np.all(predictions > 0)

    def test_zero_idiom_special_case(self):
        model = IACAModel(HASWELL)
        zero_idiom = parse_block("xorl %r13d, %r13d")
        chained_add = parse_block("addq %rax, %rbx\naddq %rbx, %rax")
        assert model.predict_timing(zero_idiom) < model.predict_timing(chained_add)

    def test_memory_chain_not_modeled(self):
        """Like llvm-mca, the analytical model misses store-to-load chains."""
        model = IACAModel(HASWELL)
        assert model.predict_timing(parse_block("addl %eax, 16(%rsp)")) < 3.0

    def test_iaca_more_accurate_than_default_mca(self, small_dataset, haswell_default_table):
        """On Haswell, IACA should beat default llvm-mca (as in Table IV)."""
        from repro.llvm_mca import MCASimulator

        examples = small_dataset.test_examples
        blocks = [example.block for example in examples]
        timings = np.array([example.timing for example in examples])
        iaca_error = mape_loss_value(IACAModel(HASWELL).predict_many(blocks), timings)
        mca_error = mape_loss_value(MCASimulator(haswell_default_table).predict_many(blocks),
                                    timings)
        assert iaca_error < mca_error
