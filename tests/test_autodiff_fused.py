"""Oracle tests for the fused autodiff primitives of the training hot loop.

* :func:`~repro.autodiff.tensor.masked_longest_path` replaces the surrogate
  chain bound's ``maximum`` graph (four tape nodes per (instruction,
  producer) pair) with one tape node.  The graph it replaced lives on here
  as the oracle, and values and gradients must equal it exactly (``==``),
  ties included.
* ``gather`` scatters its gradient with ``np.bincount`` and int/slice
  ``__getitem__`` with an in-place add; both must equal ``np.add.at``
  exactly, duplicate indices included.
"""

import numpy as np
import pytest

from repro.autodiff.gradcheck import assert_gradients_close
from repro.autodiff.tensor import Tensor, gather, masked_longest_path, maximum


def _masked_running_max(running, candidate, mask):
    """``max(running, candidate)`` where ``mask`` is 1, ``running`` elsewhere."""
    gated = candidate * mask + running * (1.0 - mask)
    return maximum(running, gated)


def chain_bound_oracle(weights, dependency_mask, sink_mask):
    """The position-major ``maximum`` traversal the fused op replaced."""
    batch, nodes = weights.shape
    zero = Tensor(np.zeros(batch))
    finish = []
    for index in range(nodes):
        ready = zero
        for producer in range(index):
            producer_mask = dependency_mask[:, index, producer]
            if not producer_mask.any():
                continue
            ready = _masked_running_max(ready, finish[producer], producer_mask)
        finish.append(ready + weights[:, index])
    bound = zero
    for writer in range(nodes):
        writer_mask = sink_mask[:, writer]
        if not writer_mask.any():
            continue
        bound = _masked_running_max(bound, finish[writer], writer_mask)
    return bound


def _random_dag(rng, batch, nodes, edge_rate=0.35, sink_rate=0.3):
    """Float masks like ``PackedBlockBatch``'s, with ragged real lengths."""
    lengths = rng.integers(1, nodes + 1, size=batch)
    real = np.arange(nodes)[None, :] < lengths[:, None]
    dependency = np.tril(rng.random((batch, nodes, nodes)) < edge_rate, k=-1)
    dependency &= real[:, :, None] & real[:, None, :]
    sinks = (rng.random((batch, nodes)) < sink_rate) & real
    return dependency.astype(np.float64), sinks.astype(np.float64)


def _values_and_gradients(op, weights, dependency, sinks, seed_gradient):
    tensor = Tensor(weights.copy(), requires_grad=True)
    out = op(tensor, dependency, sinks)
    (out * Tensor(seed_gradient)).sum().backward()
    gradient = tensor.grad if tensor.grad is not None else np.zeros_like(weights)
    return out.numpy(), gradient


def _assert_fused_equals_oracle(weights, dependency, sinks, seed_gradient):
    expected = _values_and_gradients(chain_bound_oracle, weights, dependency,
                                     sinks, seed_gradient)
    fused = _values_and_gradients(masked_longest_path, weights, dependency,
                                  sinks, seed_gradient)
    np.testing.assert_array_equal(fused[0], expected[0])
    np.testing.assert_array_equal(fused[1], expected[1])


class TestMaskedLongestPath:
    @pytest.mark.parametrize("seed", range(40))
    def test_integer_latencies_with_ties_equal_the_oracle(self, seed):
        # Small integer weights (negatives included) make equal producers
        # and zero-start ties common.
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(1, 13))
        weights = rng.integers(-1, 4, size=(16, nodes)).astype(np.float64)
        dependency, sinks = _random_dag(rng, 16, nodes)
        _assert_fused_equals_oracle(weights, dependency, sinks,
                                    rng.normal(size=16))

    def test_all_zero_rows_equal_the_oracle(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(0, 3, size=(8, 6)).astype(np.float64)
        weights[::2] = 0.0
        dependency, sinks = _random_dag(rng, 8, 6, edge_rate=0.6, sink_rate=0.6)
        _assert_fused_equals_oracle(weights, dependency, sinks, rng.normal(size=8))
        values, gradient = _values_and_gradients(masked_longest_path, weights,
                                                 dependency, sinks, np.ones(8))
        assert not values[::2].any()
        assert not gradient[::2].any()

    def test_no_sinks_is_zero_with_zero_gradient(self):
        rng = np.random.default_rng(2)
        weights = rng.uniform(0.5, 3.0, size=(5, 7))
        dependency, _ = _random_dag(rng, 5, 7)
        sinks = np.zeros((5, 7))
        _assert_fused_equals_oracle(weights, dependency, sinks, rng.normal(size=5))
        values, gradient = _values_and_gradients(masked_longest_path, weights,
                                                 dependency, sinks, np.ones(5))
        assert not values.any() and not gradient.any()

    def test_length_one_blocks(self):
        weights = np.array([[2.0], [0.0], [-1.0], [3.0]])
        dependency = np.zeros((4, 1, 1))
        sinks = np.array([[1.0], [1.0], [1.0], [0.0]])
        _assert_fused_equals_oracle(weights, dependency, sinks,
                                    np.array([0.5, -2.0, 1.5, 4.0]))
        values, gradient = _values_and_gradients(masked_longest_path, weights,
                                                 dependency, sinks, np.ones(4))
        np.testing.assert_array_equal(values, [2.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(gradient[:, 0], [1.0, 0.0, 0.0, 0.0])

    def test_earliest_of_equal_producers_wins(self):
        # Node 2 reads nodes 0 and 1, which finish together: the gradient
        # goes to node 0 only, as the left fold of `maximum` sends it.
        weights = np.array([[2.0, 2.0, 1.0]])
        dependency = np.zeros((1, 3, 3))
        dependency[0, 2, [0, 1]] = 1.0
        sinks = np.array([[0.0, 0.0, 1.0]])
        values, gradient = _values_and_gradients(masked_longest_path, weights,
                                                 dependency, sinks, np.ones(1))
        np.testing.assert_array_equal(values, [3.0])
        np.testing.assert_array_equal(gradient, [[1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("seed", range(4))
    def test_gradcheck_away_from_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        # Each row's weights are distinct powers of two (times 0.1), so any
        # two different paths differ by at least 0.1: every max has a unique
        # winner by far more than the finite-difference step.
        weights = Tensor(np.stack([rng.permutation(2.0 ** np.arange(6))
                                   for _ in range(4)]) * 0.1,
                         requires_grad=True)
        dependency, sinks = _random_dag(rng, 4, 6, edge_rate=0.5, sink_rate=0.5)
        assert_gradients_close(
            lambda inputs: (masked_longest_path(inputs[0], dependency, sinks)
                            * Tensor(np.arange(1.0, 5.0))).sum(),
            [weights])


def _scatter_reference(shape, index, gradient):
    expected = np.zeros(shape)
    np.add.at(expected, index, gradient)
    return expected


class TestIndexBackwardEqualsAddAt:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_gather_duplicate_indices(self, axis):
        rng = np.random.default_rng(axis)
        source = rng.normal(size=(6, 5, 4))
        indices = rng.integers(0, source.shape[axis], size=(7, 9))
        tensor = Tensor(source, requires_grad=True)
        out = gather(tensor, indices, axis=axis)
        gradient = rng.normal(size=out.shape)
        out.backward(gradient)
        expected = np.zeros_like(source)
        np.add.at(np.moveaxis(expected, axis, 0), indices,
                  np.moveaxis(gradient, (axis, axis + 1), (0, 1)))
        np.testing.assert_array_equal(tensor.grad, expected)

    def test_gather_negative_indices(self):
        rng = np.random.default_rng(7)
        source = rng.normal(size=(5, 3))
        indices = np.array([-1, 4, 0, -5, -1])
        tensor = Tensor(source, requires_grad=True)
        out = gather(tensor, indices)
        gradient = rng.normal(size=out.shape)
        out.backward(gradient)
        np.testing.assert_array_equal(
            tensor.grad, _scatter_reference(source.shape, indices, gradient))

    @pytest.mark.parametrize("index", [
        3, -1, (slice(None), 2), (slice(1, 4), slice(None), 0),
        (Ellipsis, 1), (np.int64(2), slice(None, None, 2)), (None, 0)])
    def test_int_and_slice_getitem(self, index):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(5, 4, 3))
        tensor = Tensor(source, requires_grad=True)
        out = tensor[index]
        gradient = rng.normal(size=out.shape)
        out.backward(gradient)
        np.testing.assert_array_equal(
            tensor.grad, _scatter_reference(source.shape, index, gradient))

    def test_fancy_getitem_with_duplicates_still_accumulates(self):
        rng = np.random.default_rng(4)
        source = rng.normal(size=(5, 3))
        index = (np.array([1, 1, 4, 1]), slice(None))
        tensor = Tensor(source, requires_grad=True)
        out = tensor[index]
        gradient = rng.normal(size=out.shape)
        out.backward(gradient)
        np.testing.assert_array_equal(
            tensor.grad, _scatter_reference(source.shape, index, gradient))
