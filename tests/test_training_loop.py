"""Tests for the shared minibatch loop's guard against non-finite values.

A NaN or infinite batch loss, or a non-finite pre-clip gradient norm, must
stop training with ``FloatingPointError`` naming the epoch and batch before
the optimizer steps, so the parameters keep their last finite values.
"""

import numpy as np
import pytest

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import Tensor
from repro.core.training_loop import run_minibatch_loop


def _loop(batch_loss, gradient_clip, epochs=2):
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
                                  epochs=epochs, gradient_clip=gradient_clip,
                                  post_step=post_step)

    return weights, snapshots, run


def _finite_loss(weights, indices, _call):
    return ((weights - Tensor(np.asarray(indices[:1], dtype=np.float64)))
            ** 2.0).sum()


@pytest.mark.parametrize("gradient_clip", [5.0, 0.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_loss_raises_before_the_step(gradient_clip, bad):
    def batch_loss(weights, indices, call):
        loss = _finite_loss(weights, indices, call)
        return loss * bad if call == 5 else loss

    weights, snapshots, run = _loop(batch_loss, gradient_clip)
    with pytest.raises(FloatingPointError, match="epoch 1 batch 1: loss is"):
        run()
    assert len(snapshots) == 5
    np.testing.assert_array_equal(weights.data, snapshots[-1])
    assert np.isfinite(weights.data).all()


@pytest.mark.parametrize("gradient_clip", [5.0, 0.0])
def test_non_finite_gradient_norm_raises_before_the_step(gradient_clip):
    def batch_loss(weights, indices, call):
        loss = _finite_loss(weights, indices, call)
        if call != 2:
            return loss
        # sqrt at 0: the loss stays finite, its gradient is infinite.
        return loss + (weights * Tensor(np.zeros(3))) ** 0.5

    weights, snapshots, run = _loop(
        lambda *args: batch_loss(*args).sum(), gradient_clip)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError,
                          match="epoch 0 batch 2: gradient norm is"):
        run()
    assert len(snapshots) == 2
    np.testing.assert_array_equal(weights.data, snapshots[-1])


def test_finite_training_is_unchanged():
    weights, snapshots, run = _loop(_finite_loss, 5.0)
    result = run()
    assert len(result.epoch_losses) == 2 and len(snapshots) == 8
    assert np.isfinite(result.epoch_losses).all()
