"""Tests for the reverse-mode autodiff tensor engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff.tensor import Tensor, concat, maximum, no_grad, stack


def numeric_gradient(function, point, epsilon=1e-6):
    """Central-difference numeric gradient of a scalar function."""
    point = np.asarray(point, dtype=np.float64)
    gradient = np.zeros_like(point)
    flat = point.ravel()
    gradient_flat = gradient.ravel()
    for index in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[index] += epsilon
        minus[index] -= epsilon
        gradient_flat[index] = (function(plus.reshape(point.shape))
                                - function(minus.reshape(point.shape))) / (2 * epsilon)
    return gradient


def analytic_gradient(builder, point):
    """Gradient computed by the autodiff engine for the same scalar function."""
    tensor = Tensor(point, requires_grad=True)
    output = builder(tensor)
    output.backward()
    return tensor.grad


class TestBasicOps:
    def test_comparisons_return_plain_boolean_arrays(self):
        tensor = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        assert isinstance(tensor < 2.0, np.ndarray)
        np.testing.assert_array_equal(tensor < 2.0, [True, False, False])
        np.testing.assert_array_equal(tensor <= 2.0, [True, True, False])
        np.testing.assert_array_equal(tensor > Tensor([0.0, 2.0, 4.0]), [True, False, False])
        np.testing.assert_array_equal(tensor >= [1.0, 3.0, 3.0], [True, False, True])

    def test_addition_forward(self):
        result = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(result.data, [4.0, 6.0])

    def test_addition_with_scalar(self):
        result = Tensor([1.0, 2.0]) + 5.0
        np.testing.assert_allclose(result.data, [6.0, 7.0])

    def test_raddition(self):
        result = 5.0 + Tensor([1.0, 2.0])
        np.testing.assert_allclose(result.data, [6.0, 7.0])

    def test_subtraction(self):
        result = Tensor([5.0]) - Tensor([2.0])
        assert result.item() == pytest.approx(3.0)

    def test_rsubtraction(self):
        result = 10.0 - Tensor([4.0])
        assert result.item() == pytest.approx(6.0)

    def test_multiplication(self):
        result = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        np.testing.assert_allclose(result.data, [8.0, 15.0])

    def test_division(self):
        result = Tensor([8.0]) / Tensor([2.0])
        assert result.item() == pytest.approx(4.0)

    def test_rdivision(self):
        result = 8.0 / Tensor([2.0])
        assert result.item() == pytest.approx(4.0)

    def test_negation(self):
        result = -Tensor([3.0])
        assert result.item() == pytest.approx(-3.0)

    def test_power(self):
        result = Tensor([3.0]) ** 2
        assert result.item() == pytest.approx(9.0)

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_vector(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(a.matmul(b).data, [1.0, 2.0])

    def test_comparison_returns_numpy(self):
        result = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(result, np.ndarray)
        assert list(result) == [False, True]

    def test_len_and_shape(self):
        tensor = Tensor(np.zeros((3, 4)))
        assert len(tensor) == 3
        assert tensor.shape == (3, 4)
        assert tensor.ndim == 2
        assert tensor.size == 12


class TestGradients:
    def test_transpose_gradient_is_the_transposed_upstream(self):
        weights = np.arange(6.0).reshape(3, 2)
        point = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        tensor = Tensor(point, requires_grad=True)
        transposed = tensor.transpose()
        np.testing.assert_array_equal(transposed.data, point.T)
        (transposed * weights).sum().backward()
        np.testing.assert_array_equal(tensor.grad, weights.T)

    def test_transpose_with_axes_inverts_the_permutation(self):
        rng = np.random.default_rng(0)
        point = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=(4, 2, 3))
        tensor = Tensor(point, requires_grad=True)
        permuted = tensor.transpose((2, 0, 1))
        assert permuted.shape == (4, 2, 3)
        (permuted * weights).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.transpose(weights, (1, 2, 0)))

    def test_transpose_inside_a_matmul_matches_numeric(self):
        other = np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]])
        point = np.array([[1.0, 2.0], [-0.5, 0.75], [0.3, -2.0]])
        builder = lambda t: ((t.transpose() @ Tensor(other)) ** 2).sum()
        numeric = numeric_gradient(lambda p: ((p.T @ other) ** 2).sum(), point)
        np.testing.assert_allclose(analytic_gradient(builder, point), numeric, atol=1e-5)

    def test_add_gradient(self):
        point = np.array([1.0, -2.0, 3.0])
        grad = analytic_gradient(lambda t: (t + 2.0).sum(), point)
        np.testing.assert_allclose(grad, np.ones(3))

    def test_mul_gradient(self):
        point = np.array([1.5, -2.0])
        grad = analytic_gradient(lambda t: (t * t).sum(), point)
        np.testing.assert_allclose(grad, 2 * point)

    def test_division_gradient_matches_numeric(self):
        point = np.array([1.0, 2.0, 4.0])
        builder = lambda t: (t / (t + 3.0)).sum()
        numeric = numeric_gradient(lambda p: (p / (p + 3.0)).sum(), point)
        np.testing.assert_allclose(analytic_gradient(builder, point), numeric, atol=1e-6)

    def test_exp_log_gradient(self):
        point = np.array([0.5, 1.5])
        builder = lambda t: (t.exp() + (t + 2.0).log()).sum()
        numeric = numeric_gradient(lambda p: (np.exp(p) + np.log(p + 2.0)).sum(), point)
        np.testing.assert_allclose(analytic_gradient(builder, point), numeric, atol=1e-6)

    def test_tanh_sigmoid_gradient(self):
        point = np.array([-1.0, 0.3, 2.0])
        builder = lambda t: (t.tanh() * t.sigmoid()).sum()
        numeric = numeric_gradient(
            lambda p: (np.tanh(p) / (1 + np.exp(-p))).sum(), point)
        np.testing.assert_allclose(analytic_gradient(builder, point), numeric, atol=1e-6)

    def test_relu_gradient(self):
        point = np.array([-1.0, 2.0, 3.0])
        grad = analytic_gradient(lambda t: t.relu().sum(), point)
        np.testing.assert_allclose(grad, [0.0, 1.0, 1.0])

    def test_abs_gradient(self):
        point = np.array([-2.0, 3.0])
        grad = analytic_gradient(lambda t: t.abs().sum(), point)
        np.testing.assert_allclose(grad, [-1.0, 1.0])

    def test_sqrt_gradient(self):
        point = np.array([4.0, 9.0])
        grad = analytic_gradient(lambda t: t.sqrt().sum(), point)
        np.testing.assert_allclose(grad, [0.25, 1.0 / 6.0])

    def test_softplus_gradient(self):
        point = np.array([-3.0, 0.0, 3.0])
        numeric = numeric_gradient(lambda p: np.logaddexp(0, p).sum(), point)
        np.testing.assert_allclose(analytic_gradient(lambda t: t.softplus().sum(), point),
                                   numeric, atol=1e-6)

    def test_matmul_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))

        def builder(t):
            return (t.matmul(Tensor(b)) * Tensor(np.ones((3, 2)))).sum()

        numeric = numeric_gradient(lambda p: (p @ b).sum(), a)
        np.testing.assert_allclose(analytic_gradient(builder, a), numeric, atol=1e-6)

    def test_broadcast_add_gradient(self):
        point = np.array([1.0, 2.0, 3.0])

        def builder(t):
            matrix = Tensor(np.ones((4, 3)))
            return (matrix + t).sum()

        grad = analytic_gradient(builder, point)
        np.testing.assert_allclose(grad, [4.0, 4.0, 4.0])

    def test_mean_gradient(self):
        point = np.array([1.0, 2.0, 3.0, 4.0])
        grad = analytic_gradient(lambda t: t.mean(), point)
        np.testing.assert_allclose(grad, np.full(4, 0.25))

    def test_sum_axis_gradient(self):
        point = np.arange(6.0).reshape(2, 3)
        grad = analytic_gradient(lambda t: (t.sum(axis=0) * Tensor([1.0, 2.0, 3.0])).sum(),
                                 point)
        np.testing.assert_allclose(grad, np.tile([1.0, 2.0, 3.0], (2, 1)))

    def test_getitem_gradient_accumulates_repeats(self):
        point = np.array([1.0, 2.0, 3.0])
        grad = analytic_gradient(lambda t: t[[0, 0, 2]].sum(), point)
        np.testing.assert_allclose(grad, [2.0, 0.0, 1.0])

    def test_reshape_gradient(self):
        point = np.arange(6.0)
        grad = analytic_gradient(lambda t: (t.reshape(2, 3) * Tensor(np.ones((2, 3)))).sum(),
                                 point)
        np.testing.assert_allclose(grad, np.ones(6))

    def test_clamp_gradient(self):
        point = np.array([-0.5, 0.5, 1.5])
        grad = analytic_gradient(lambda t: t.clamp(0.0, 1.0).sum(), point)
        np.testing.assert_allclose(grad, [0.0, 1.0, 0.0])

    def test_clamp_min_gradient(self):
        point = np.array([-0.5, 0.5])
        grad = analytic_gradient(lambda t: t.clamp_min(0.0).sum(), point)
        np.testing.assert_allclose(grad, [0.0, 1.0])

    def test_gradient_accumulates_across_uses(self):
        tensor = Tensor([2.0], requires_grad=True)
        out = (tensor * 3.0 + tensor * 4.0).sum()
        out.backward()
        np.testing.assert_allclose(tensor.grad, [7.0])

    def test_backward_requires_scalar_without_seed(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (tensor * 2.0).backward()

    def test_backward_with_explicit_seed(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        (tensor * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(tensor.grad, [2.0, 20.0])

    def test_clamp_invalid_range_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0]).clamp(2.0, 1.0)


class TestMaximumConcatStack:
    def test_maximum_forward(self):
        result = maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        np.testing.assert_allclose(result.data, [3.0, 5.0])

    def test_maximum_gradient_routes_to_winner(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_concat_forward_and_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = concat([a, b])
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_stack_forward_and_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b])
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        with no_grad():
            tensor = Tensor([1.0], requires_grad=True)
            out = tensor * 2.0
        assert not out.requires_grad
        assert not tensor.requires_grad

    def test_detach(self):
        tensor = Tensor([1.0], requires_grad=True)
        detached = (tensor * 2.0).detach()
        assert not detached.requires_grad

    def test_zero_grad(self):
        tensor = Tensor([1.0], requires_grad=True)
        (tensor * 2.0).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8))
    def test_composite_gradient_matches_numeric(self, values):
        point = np.array(values, dtype=np.float64)

        def scalar(p):
            return float(np.tanh((p * p).sum() * 0.1) + np.logaddexp(0, p).sum() * 0.05)

        def builder(t):
            return ((t * t).sum() * 0.1).tanh() + t.softplus().sum() * 0.05

        numeric = numeric_gradient(scalar, point)
        analytic = analytic_gradient(builder, point)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6))
    def test_addition_commutes(self, left, right):
        size = min(len(left), len(right))
        a = Tensor(np.array(left[:size]))
        b = Tensor(np.array(right[:size]))
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=8))
    def test_exp_log_roundtrip(self, values):
        point = np.array(values, dtype=np.float64)
        roundtrip = Tensor(point).log().exp()
        np.testing.assert_allclose(roundtrip.data, point, rtol=1e-9)
