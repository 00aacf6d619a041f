"""Tests for the shared minibatch loop's guards.

A NaN or infinite batch loss, or a non-finite pre-clip gradient norm, must
stop training with ``FloatingPointError`` naming the epoch and batch before
the optimizer steps, so the parameters keep their last finite values.  A
batch size below one is refused before any step.  Every epoch reshuffles
the examples, and every step clips the gradient norm at 5.0.
"""

import numpy as np
import pytest

from repro.autodiff.optim import SGD, Adam
from repro.autodiff.tensor import Tensor
from repro.core.training_loop import run_minibatch_loop


def _loop(batch_loss, epochs=2):
    """Train one 3-vector against ``batch_loss(weights, indices, call)``."""
    weights = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    calls = []

    def compute_batch_loss(indices):
        calls.append(len(calls))
        return batch_loss(weights, indices, len(calls) - 1)

    snapshots = []

    def post_step():
        snapshots.append(weights.data.copy())

    def run():
        return run_minibatch_loop(8, compute_batch_loss, Adam([weights], lr=0.1),
                                  np.random.default_rng(0), batch_size=2,
                                  epochs=epochs, post_step=post_step)

    return weights, snapshots, run


def _finite_loss(weights, indices, _call):
    return ((weights - Tensor(np.asarray(indices[:1], dtype=np.float64)))
            ** 2.0).sum()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_loss_raises_before_the_step(bad):
    def batch_loss(weights, indices, call):
        loss = _finite_loss(weights, indices, call)
        return loss * bad if call == 5 else loss

    weights, snapshots, run = _loop(batch_loss)
    with pytest.raises(FloatingPointError, match="epoch 1 batch 1: loss is"):
        run()
    assert len(snapshots) == 5
    np.testing.assert_array_equal(weights.data, snapshots[-1])
    assert np.isfinite(weights.data).all()


def test_non_finite_gradient_norm_raises_before_the_step():
    def batch_loss(weights, indices, call):
        loss = _finite_loss(weights, indices, call)
        if call != 2:
            return loss
        # sqrt at 0: the loss stays finite, its gradient is infinite.
        return loss + (weights * Tensor(np.zeros(3))) ** 0.5

    weights, snapshots, run = _loop(lambda *args: batch_loss(*args).sum())
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError,
                          match="epoch 0 batch 2: gradient norm is"):
        run()
    assert len(snapshots) == 2
    np.testing.assert_array_equal(weights.data, snapshots[-1])


def test_finite_training_is_unchanged():
    weights, snapshots, run = _loop(_finite_loss)
    result = run()
    assert len(result.epoch_losses) == 2 and len(snapshots) == 8
    assert np.isfinite(result.epoch_losses).all()


def test_zero_batch_size_is_rejected():
    weights = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        run_minibatch_loop(8, lambda indices: weights.sum(), Adam([weights], lr=0.1),
                           np.random.default_rng(0), batch_size=0, epochs=1)


@pytest.mark.parametrize("batch_size", [2, 3, 8])
def test_each_epoch_visits_every_example_once_in_a_fresh_shuffle(batch_size):
    weights = Tensor(np.zeros(3), requires_grad=True)
    batches = []

    def compute_batch_loss(indices):
        batches.append(indices.copy())
        return weights.sum()

    run_minibatch_loop(8, compute_batch_loss, Adam([weights], lr=0.1),
                       np.random.default_rng(0), batch_size=batch_size, epochs=2)
    per_epoch = -(-8 // batch_size)
    assert len(batches) == 2 * per_epoch
    assert [len(batch) for batch in batches[:per_epoch]] == \
        [min(batch_size, 8 - start) for start in range(0, 8, batch_size)]
    # One in-place shuffle of the same order per epoch, and nothing else
    # drawn from the rng.
    expected_rng, order = np.random.default_rng(0), np.arange(8)
    epochs = []
    for epoch in range(2):
        expected_rng.shuffle(order)
        epoch_order = np.concatenate(batches[epoch * per_epoch:(epoch + 1) * per_epoch])
        np.testing.assert_array_equal(epoch_order, order)
        epochs.append(epoch_order)
    assert not np.array_equal(epochs[0], epochs[1])


@pytest.mark.parametrize("scale", [1000.0, 0.1])
def test_step_clips_the_gradient_norm_at_five(scale):
    # Plain SGD at lr 1 moves the weights by exactly the clipped gradient.
    weights = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    start = weights.data.copy()
    run_minibatch_loop(2, lambda indices: (weights * scale).sum(),
                       SGD([weights], lr=1.0), np.random.default_rng(0),
                       batch_size=2, epochs=1)
    step = np.linalg.norm(weights.data - start)
    assert step == pytest.approx(min(scale * np.sqrt(3.0), 5.0), rel=1e-12)
