"""Oracle tests for the fused autodiff primitives of the training hot loop.

* :func:`~repro.autodiff.tensor.masked_longest_path` replaces the surrogate
  chain bound's ``maximum`` graph (four tape nodes per (instruction,
  producer) pair) with one tape node.  The graph it replaced lives on here
  as the oracle, and values and gradients must equal it exactly (``==``),
  ties included.
* ``gather`` scatters its gradient with ``np.bincount`` and int/slice
  ``__getitem__`` with an in-place add; both must equal ``np.add.at``
  exactly, duplicate indices included.
* :func:`~repro.autodiff.tensor.linear` (``Linear``/``MLP`` layers, ReLU
  included), the MAPE :func:`~repro.core.losses.surrogate_loss` and
  :func:`~repro.autodiff.tensor.gather_masked_mean` (the surrogates'
  token embedding bag) each record one tape node for a composition of
  several.  The compositions live on here as oracles: values and gradients
  must be bit-identical to them, and each fused node passes
  ``assert_gradients_close``.
* ``masked_mean`` counts from the mask itself; the version that reduced the
  mask broadcast to the full shape is its oracle.
"""

import numpy as np
import pytest

from repro.autodiff.gradcheck import assert_gradients_close
from repro.autodiff.modules import MLP, Embedding, Linear
from repro.autodiff.tensor import (Tensor, gather, gather_masked_mean, linear,
                                   masked_longest_path, masked_mean, maximum,
                                   no_grad)
from repro.core.losses import surrogate_loss


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


# ----------------------------------------------------------------------
# Fused nodes against the compositions they replace
# ----------------------------------------------------------------------
def linear_oracle(x, weight, bias=None, relu=False):
    """``matmul`` + ``+`` + ``relu``: three tape nodes."""
    out = x.matmul(weight)
    if bias is not None:
        out = out + bias
    return out.relu() if relu else out


def mape_oracle(predictions, targets, epsilon=1e-6):
    """The sub/abs/div/sum/mul composition of the MAPE loss."""
    target_array = np.maximum(np.abs(np.asarray(targets, dtype=np.float64)), epsilon)
    difference = (predictions - Tensor(target_array)).abs()
    return (difference / Tensor(target_array)).mean()


def broadcast_masked_mean(x, mask, axis=None, keepdims=False, minimum_count=1.0):
    """``masked_mean`` counting over the mask broadcast to the full shape."""
    mask_array = np.asarray(mask, dtype=np.float64)
    full_shape = np.broadcast(x.data, mask_array).shape
    counts = np.broadcast_to(mask_array, full_shape).sum(axis=axis, keepdims=keepdims)
    inverse = 1.0 / np.maximum(counts, minimum_count)
    data = (x.data * mask_array).sum(axis=axis, keepdims=keepdims) * inverse

    def _backward(grad):
        g = np.asarray(grad) * inverse
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, full_shape) * mask_array)

    return Tensor._make(data, (x,), _backward)


def embedding_bag_oracle(source, indices, mask):
    """``gather`` then the broadcast-counting ``masked_mean``: two nodes."""
    return broadcast_masked_mean(gather(source, indices),
                                 np.asarray(mask)[..., None], axis=-2)


def _run(op, arrays, seed_gradient, needs_grad=None):
    """Values and input gradients of ``op`` on fresh tensors over ``arrays``."""
    needs_grad = needs_grad or [True] * len(arrays)
    tensors = [Tensor(array.copy(), requires_grad=flag)
               for array, flag in zip(arrays, needs_grad)]
    out = op(*tensors)
    out.backward(seed_gradient)
    return out.numpy(), [tensor.grad for tensor in tensors]


def _assert_bits_equal(actual, expected):
    if expected is None:
        assert actual is None
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()


def _assert_fused_matches(fused, oracle, arrays, seed_gradient, needs_grad=None):
    fused_values, fused_grads = _run(fused, arrays, seed_gradient, needs_grad)
    oracle_values, oracle_grads = _run(oracle, arrays, seed_gradient, needs_grad)
    _assert_bits_equal(fused_values, oracle_values)
    for fused_grad, oracle_grad in zip(fused_grads, oracle_grads):
        _assert_bits_equal(fused_grad, oracle_grad)


LINEAR_SHAPES = [(5,), (7, 5), (3, 4, 5)]


class TestFusedLinear:
    @pytest.mark.parametrize("x_shape", LINEAR_SHAPES)
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_equals_matmul_add_relu(self, x_shape, with_bias, relu):
        rng = np.random.default_rng(len(x_shape) * 4 + 2 * with_bias + relu)
        x = rng.normal(size=x_shape)
        # Exact zeros in the pre-activation exercise the ReLU boundary.
        x[..., 0] = 0.0
        weight = rng.normal(size=(5, 6))
        weight[:, 1] = 0.0
        arrays = [x, weight] + ([rng.normal(size=6) * 0.0] if with_bias else [])
        seed_gradient = rng.normal(size=x_shape[:-1] + (6,))

        def fused(*tensors):
            return linear(tensors[0], tensors[1],
                          tensors[2] if with_bias else None, relu=relu)

        def oracle(*tensors):
            return linear_oracle(tensors[0], tensors[1],
                                 tensors[2] if with_bias else None, relu=relu)

        _assert_fused_matches(fused, oracle, arrays, seed_gradient)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(9)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)),
                  rng.normal(size=2)]
        _assert_fused_matches(lambda x, w, b: linear(x, w, b, relu=True),
                              lambda x, w, b: linear_oracle(x, w, b, relu=True),
                              arrays, rng.normal(size=(4, 2)),
                              needs_grad=[False, True, True])

    @pytest.mark.parametrize("x_shape", LINEAR_SHAPES)
    def test_gradcheck(self, x_shape):
        rng = np.random.default_rng(len(x_shape))
        inputs = [Tensor(rng.normal(size=x_shape), requires_grad=True),
                  Tensor(rng.normal(size=(5, 3)), requires_grad=True),
                  Tensor(rng.normal(size=3) + 0.5, requires_grad=True)]
        assert_gradients_close(
            lambda tensors: (linear(*tensors, relu=True) ** 2.0).sum(), inputs)

    def test_mlp_equals_the_unfused_layer_stack(self):
        rng = np.random.default_rng(3)
        model = MLP([4, 6, 5, 2], rng=rng)
        layers = model._linears
        x = rng.normal(size=(3, 7, 4))
        seed_gradient = rng.normal(size=(3, 7, 2))

        def oracle(inputs):
            out = inputs
            for index, layer in enumerate(layers):
                out = linear_oracle(out, layer.weight, layer.bias,
                                    relu=index < len(layers) - 1)
            return out

        values = []
        for forward in (model, oracle):
            model.zero_grad()
            inputs = Tensor(x, requires_grad=True)
            out = forward(inputs)
            out.backward(seed_gradient)
            values.append((out.numpy(), inputs.grad,
                           [parameter.grad for parameter in model.parameters()]))
        (fused_out, fused_x, fused_params), (oracle_out, oracle_x, oracle_params) = values
        _assert_bits_equal(fused_out, oracle_out)
        _assert_bits_equal(fused_x, oracle_x)
        for fused_grad, oracle_grad in zip(fused_params, oracle_params):
            _assert_bits_equal(fused_grad, oracle_grad)

    def test_linear_module_keeps_its_parameter_names(self):
        model = MLP([3, 4, 1])
        assert list(model.state_dict()) == ["network.layer0.weight",
                                            "network.layer0.bias",
                                            "network.layer2.weight",
                                            "network.layer2.bias"]
        assert Linear(3, 2, bias=False)(Tensor(np.ones(3))).shape == (2,)


class TestFusedLoss:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_composition(self, seed):
        rng = np.random.default_rng(seed)
        targets = rng.uniform(0.5, 30.0, size=9)
        # Zero and negative targets hit the epsilon clamp and abs; one exact
        # hit makes the gradient's sign zero.
        targets[:2] = [0.0, -3.0]
        predictions = rng.uniform(0.0, 30.0, size=9)
        predictions[3] = targets[3]
        _assert_fused_matches(lambda tensor: surrogate_loss(tensor, targets),
                              lambda tensor: mape_oracle(tensor, targets),
                              [predictions], np.float64(rng.uniform(0.5, 2.0)))

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        targets = rng.uniform(1.0, 10.0, size=6)
        predictions = Tensor(targets + rng.choice([-1.0, 1.0], size=6)
                             * rng.uniform(0.5, 2.0, size=6), requires_grad=True)
        assert_gradients_close(
            lambda tensors: surrogate_loss(tensors[0], targets), [predictions])


def _token_batch(rng, batch, instructions, tokens, vocabulary):
    """Padded ids and a 0/1 mask like ``PackedBlockBatch``'s: real tokens
    first, fully padded instruction slots, duplicate ids."""
    ids = np.zeros((batch, instructions, tokens), dtype=np.int64)
    mask = np.zeros((batch, instructions, tokens))
    for row in range(batch):
        for slot in range(rng.integers(0, instructions + 1)):
            count = rng.integers(1, tokens + 1)
            ids[row, slot, :count] = rng.integers(0, vocabulary, size=count)
            mask[row, slot, :count] = 1.0
    return ids, mask


class TestGatherMaskedMean:
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_gather_then_masked_mean(self, seed):
        rng = np.random.default_rng(seed)
        ids, mask = _token_batch(rng, 4, 5, 3, vocabulary=6)
        source = rng.normal(size=(6, 4))
        source[2] = 0.0
        _assert_fused_matches(lambda tensor: gather_masked_mean(tensor, ids, mask),
                              lambda tensor: embedding_bag_oracle(tensor, ids, mask),
                              [source], rng.normal(size=(4, 5, 4)))

    def test_single_token_rows(self):
        rng = np.random.default_rng(21)
        ids, mask = _token_batch(rng, 3, 4, 1, vocabulary=3)
        _assert_fused_matches(lambda tensor: gather_masked_mean(tensor, ids, mask),
                              lambda tensor: embedding_bag_oracle(tensor, ids, mask),
                              [rng.normal(size=(3, 2))], rng.normal(size=(3, 4, 2)))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        ids, mask = _token_batch(rng, 3, 4, 3, vocabulary=5)
        source = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 4, 3)))
        assert_gradients_close(
            lambda tensors: (gather_masked_mean(tensors[0], ids, mask)
                             * weights).sum(), [source])

    def test_embedding_pooled_validates_ids(self):
        embedding = Embedding(4, 2)
        with pytest.raises(IndexError):
            embedding.pooled(np.array([[4]]), np.array([[1.0]]))
        pooled = embedding.pooled(np.array([[1, 3, 0]]), np.array([[1.0, 1.0, 0.0]]))
        np.testing.assert_array_equal(
            pooled.numpy(),
            [(embedding.weight.data[1] + embedding.weight.data[3]) * 0.5])


class TestMaskCounts:
    @pytest.mark.parametrize("x_shape, mask_shape, axis, keepdims", [
        ((3, 4, 5), (3, 4, 1), 1, False),
        ((3, 4, 5), (3, 4, 1), 2, False),
        ((3, 4), (3, 4), 1, False),
        ((3, 4), (4,), 1, True),
        ((3, 4), (3, 1), 1, False),
        ((3, 4), (3, 1), None, False),
        ((2, 3, 4, 5), (2, 3, 4, 1), (1, 2), False),
        ((2, 3, 4, 5), (2, 1, 4, 1), (1, 3), True),
        ((4, 1), (4, 3), 1, False),
    ])
    def test_equals_broadcast_counting(self, x_shape, mask_shape, axis, keepdims):
        rng = np.random.default_rng(len(x_shape) + len(mask_shape))
        x = rng.normal(size=x_shape)
        mask = (rng.random(mask_shape) < 0.6).astype(np.float64)
        out_shape = broadcast_masked_mean(Tensor(x), mask, axis, keepdims).shape
        _assert_fused_matches(
            lambda tensor: masked_mean(tensor, mask, axis=axis, keepdims=keepdims),
            lambda tensor: broadcast_masked_mean(tensor, mask, axis, keepdims),
            [x], rng.normal(size=out_shape))


    def test_gradcheck_with_a_mask_broadcast_along_the_reduced_axis(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        mask = np.array([[1.0], [0.0], [1.0]])[:, :, None]  # (3, 1, 1)
        weights = Tensor(rng.normal(size=(3, 5)))
        assert_gradients_close(
            lambda inputs: (masked_mean(inputs[0], mask, axis=1) * weights).sum(), [x])


class TestLongestPathWithoutGradient:
    @pytest.mark.parametrize("seed", range(8))
    def test_untracked_values_equal_tracked(self, seed):
        rng = np.random.default_rng(300 + seed)
        weights = rng.integers(-2, 4, size=(5, 7)).astype(np.float64)
        dependency, sinks = _random_dag(rng, 5, 7)
        tracked = masked_longest_path(Tensor(weights, requires_grad=True),
                                      dependency, sinks)
        constant = masked_longest_path(Tensor(weights), dependency, sinks)
        with no_grad():
            untaped = masked_longest_path(Tensor(weights, requires_grad=True),
                                          dependency, sinks)
        for values in (constant, untaped):
            _assert_bits_equal(values.numpy(), tracked.numpy())
            assert not values.requires_grad and values._backward is None
