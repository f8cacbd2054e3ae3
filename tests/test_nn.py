"""Tests for the numpy neural-network substrate (repro.rl.nn, optim)."""

import numpy as np
import pytest

from repro.errors import RLError
from repro.rl.nn import MLP, Linear, ReLU, Tanh
from repro.rl.optim import Adam


def numerical_gradient(f, param, eps=1e-6):
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = param[idx]
        param[idx] = original + eps
        plus = f()
        param[idx] = original - eps
        minus = f()
        param[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestLayers:
    def test_linear_forward_shape(self, rng):
        layer = Linear(3, 5, rng)
        out = layer.forward(rng.normal(size=(7, 3)))
        assert out.shape == (7, 5)

    def test_linear_rejects_bad_dims(self, rng):
        with pytest.raises(RLError):
            Linear(0, 5, rng)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(3, 5, rng)
        with pytest.raises(RLError):
            layer.backward(np.zeros((1, 5)))

    def test_relu_zeroes_negatives(self):
        relu = ReLU()
        out = relu.forward(np.asarray([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]

    def test_relu_gradient_masks(self):
        relu = ReLU()
        relu.forward(np.asarray([[-1.0, 2.0]]))
        grad = relu.backward(np.asarray([[1.0, 1.0]]))
        assert grad.tolist() == [[0.0, 1.0]]

    def test_tanh_range(self, rng):
        tanh = Tanh()
        out = tanh.forward(rng.normal(size=(4, 3)) * 10)
        assert (np.abs(out) <= 1.0).all()


class TestMLPGradients:
    def test_param_gradients_match_numerical(self, rng):
        net = MLP(4, [8, 8], 2, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 2))

        def loss():
            return float(np.sum((net.forward(x) - target) ** 2))

        net.zero_grad()
        out = net.forward(x)
        net.backward(2.0 * (out - target))
        for param, grad in zip(net.params(), net.grads()):
            numeric = numerical_gradient(loss, param)
            assert np.abs(numeric - grad).max() < 1e-6

    def test_input_gradient_matches_numerical(self, rng):
        net = MLP(3, [6], 1, rng)
        x = rng.normal(size=(2, 3))

        net.zero_grad()
        net.forward(x)
        grad_in = net.backward(np.ones((2, 1)))

        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                x[i, j] += eps
                plus = float(net.forward(x).sum())
                x[i, j] -= 2 * eps
                minus = float(net.forward(x).sum())
                x[i, j] += eps
                numeric[i, j] = (plus - minus) / (2 * eps)
        assert np.abs(numeric - grad_in).max() < 1e-6

    def test_tanh_output_gradients(self, rng):
        net = MLP(3, [6], 2, rng, output_activation="tanh")
        x = rng.normal(size=(4, 3))
        target = np.zeros((4, 2))

        def loss():
            return float(np.sum((net.forward(x) - target) ** 2))

        net.zero_grad()
        out = net.forward(x)
        net.backward(2.0 * (out - target))
        numeric = numerical_gradient(loss, net.params()[0])
        assert np.abs(numeric - net.grads()[0]).max() < 1e-6


class TestMLPUtilities:
    def test_rejects_wrong_input_dim(self, rng):
        net = MLP(4, [8], 2, rng)
        with pytest.raises(RLError):
            net.forward(np.zeros((1, 3)))

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(RLError):
            MLP(4, [8], 2, rng, output_activation="sigmoid")

    def test_copy_params(self, rng):
        a = MLP(4, [8], 2, rng)
        b = MLP(4, [8], 2, rng)
        b.copy_params_from(a)
        x = rng.normal(size=(3, 4))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_soft_update_interpolates(self, rng):
        a = MLP(2, [4], 1, rng)
        b = MLP(2, [4], 1, rng)
        before = [p.copy() for p in b.params()]
        b.soft_update_from(a, tau=0.25)
        for old, new, src in zip(before, b.params(), a.params()):
            assert np.allclose(new, 0.75 * old + 0.25 * src)

    def test_soft_update_tau_one_copies(self, rng):
        a = MLP(2, [4], 1, rng)
        b = MLP(2, [4], 1, rng)
        b.soft_update_from(a, tau=1.0)
        for mine, theirs in zip(b.params(), a.params()):
            assert np.allclose(mine, theirs)

    def test_soft_update_rejects_bad_tau(self, rng):
        a = MLP(2, [4], 1, rng)
        with pytest.raises(RLError):
            a.soft_update_from(a, tau=1.5)

    def test_zero_grad_clears(self, rng):
        net = MLP(2, [4], 1, rng)
        net.forward(np.ones((1, 2)))
        net.backward(np.ones((1, 1)))
        net.zero_grad()
        assert all((g == 0).all() for g in net.grads())


class TestOptimizers:
    def _quadratic_problem(self, rng, start):
        """One single-output layer used as a bare parameter vector (its
        weights and bias): the optimizer descends ``sum(theta**2)`` from
        ``start``."""
        net = MLP(len(start) - 1, [], 1, rng)
        net.flat_params[...] = start
        return net

    def test_adam_descends_quadratic(self, rng):
        net = self._quadratic_problem(rng, [5.0, -3.0])
        opt = Adam(net, lr=0.1)
        for _ in range(300):
            net.flat_grads[...] = 2 * net.flat_params
            opt.step()
        assert np.abs(net.flat_params).max() < 1e-3

    def test_adam_handles_sparse_gradients(self, rng):
        net = self._quadratic_problem(rng, [1.0, 1.0])
        opt = Adam(net, lr=0.05)
        for step in range(200):
            net.zero_grad()
            net.flat_grads[step % 2] = 2 * net.flat_params[step % 2]
            opt.step()
        assert np.abs(net.flat_params).max() < 0.1

    def test_adam_steps_the_layers_own_arrays(self, rng):
        net = MLP(3, [4], 2, rng)
        opt = Adam(net, lr=0.1)
        before = [p.copy() for p in net.params()]
        net.forward(rng.normal(size=(5, 3)))
        net.backward(np.ones((5, 2)))
        opt.step()
        assert all(
            not np.array_equal(old, new) for old, new in zip(before, net.params())
        )

    def test_validation(self, rng):
        net = MLP(1, [], 1, rng)
        with pytest.raises(RLError):
            Adam(net, lr=0.0)
        with pytest.raises(RLError):
            Adam(net, beta1=1.0)
