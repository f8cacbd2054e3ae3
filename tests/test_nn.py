"""Tests for the numpy neural-network substrate (repro.rl.nn, optim)."""

import numpy as np
import pytest
import reference_nn as chain

from repro.errors import RLError
from repro.rl.nn import MLP, online_param_grads, stacked_forward
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


def fused_param_grads(net, x, grad_out_of):
    """``net``'s parameter gradients by the fused helpers, ``x`` run as row
    0 of a one-net stack; ``grad_out_of(y)`` is dL/dy at the output."""
    inputs, masks, y = stacked_forward(net.stacked(net.flat_params[None]), x[None], net.squash)
    grad = grad_out_of(y[0])
    if net.squash:
        grad = grad * (1.0 - y[0] ** 2)
    online_param_grads(net.layers, inputs, masks, grad)
    return [g.copy() for g in net.grads()]


def reference_param_grads(net, x, grad_out_of):
    """The same gradients by the per-layer reference chain."""
    net.zero_grad()
    y, tape = chain.forward(net, x)
    chain.backward(net, tape, grad_out_of(y))
    return [g.copy() for g in net.grads()]


class TestLayers:
    def test_linear_forward_shape(self, rng):
        net = MLP(3, [], 5, rng)  # one Linear layer
        out = net.forward(rng.normal(size=(7, 3)))
        assert out.shape == (7, 5)

    def test_linear_rejects_bad_dims(self, rng):
        with pytest.raises(RLError):
            MLP(0, [], 5, rng)
        with pytest.raises(RLError):
            MLP(3, [4, 0], 5, rng)

    def _identity(self, rng):
        net = MLP(2, [2], 2, rng)
        for layer in net.layers:
            layer.weight[...] = np.eye(2)
            layer.bias[...] = 0.0
        return net

    def test_relu_zeroes_negatives(self, rng):
        net = self._identity(rng)
        out = net.forward(np.asarray([[-1.0, 2.0], [0.0, -3.0]]))
        assert out.tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_relu_gradient_masks(self, rng):
        net = self._identity(rng)
        x = np.asarray([[[-1.0, 2.0]]])
        inputs, masks, _ = stacked_forward(net.stacked(net.flat_params[None]), x, False)
        assert masks[0].tolist() == [[[False, True]]]
        online_param_grads(net.layers, inputs, masks, np.ones((1, 2)))
        assert net.layers[0].grad_bias.tolist() == [0.0, 1.0]

    def test_tanh_range(self, rng):
        net = MLP(3, [4], 3, rng, output_activation="tanh")
        out = net.forward(rng.normal(size=(4, 3)) * 10)
        assert (np.abs(out) <= 1.0).all()


class TestMLPGradients:
    """The fused helpers and the reference chain against finite differences."""

    def test_param_gradients_match_numerical(self, rng):
        net = MLP(4, [8, 8], 2, rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 2))

        def loss():
            return float(np.sum((net.forward(x) - target) ** 2))

        def grad_out_of(y):
            return 2.0 * (y - target)

        fused = fused_param_grads(net, x, grad_out_of)
        reference = reference_param_grads(net, x, grad_out_of)
        for param, mine, theirs in zip(net.params(), fused, reference):
            numeric = numerical_gradient(loss, param)
            assert np.abs(numeric - mine).max() < 1e-6
            assert np.abs(numeric - theirs).max() < 1e-6

    def test_input_gradient_matches_numerical(self, rng):
        net = MLP(3, [6], 1, rng)
        x = rng.normal(size=(2, 3))

        net.zero_grad()
        _, tape = chain.forward(net, x)
        grad_in = chain.backward(net, tape, np.ones((2, 1)))

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

        def loss():
            return float(np.sum(net.forward(x) ** 2))

        fused = fused_param_grads(net, x, lambda y: 2.0 * y)
        reference = reference_param_grads(net, x, lambda y: 2.0 * y)
        for param, mine, theirs in zip(net.params(), fused, reference):
            numeric = numerical_gradient(loss, param)
            assert np.abs(numeric - mine).max() < 1e-6
            assert np.abs(numeric - theirs).max() < 1e-6

    @pytest.mark.parametrize(
        "dims, activation",
        [((6, (32, 32), 1), "tanh"), ((7, (32, 32), 1), None), ((8, (128, 128, 128), 3), None)],
        ids=["actor", "critic", "q-net"],
    )
    def test_forward_equals_the_reference_chain(self, rng, dims, activation):
        """``MLP.forward`` (a one-net ``stacked_forward``) and a stacked pair's
        rows are each bit-equal to the per-layer chain."""
        in_dim, hidden, out_dim = dims
        net = MLP(in_dim, hidden, out_dim, rng, activation)
        other = MLP(in_dim, hidden, out_dim, rng, activation)
        x = rng.normal(size=(2, 32, in_dim))
        expected = chain.forward(net, x[0])[0]
        assert np.array_equal(net.forward(x[0]), expected)
        pair = np.stack((net.flat_params, other.flat_params))
        _, _, out = stacked_forward(net.stacked(pair), x, net.squash)
        assert np.array_equal(out[0], expected)
        assert np.array_equal(out[1], chain.forward(other, x[1])[0])


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
        _, tape = chain.forward(net, np.ones((1, 2)))
        chain.backward(net, tape, np.ones((1, 1)))
        assert any((g != 0).any() for g in net.grads())
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
        _, tape = chain.forward(net, rng.normal(size=(5, 3)))
        chain.backward(net, tape, np.ones((5, 2)))
        opt.step()
        assert all(
            not np.array_equal(old, new) for old, new in zip(before, net.params())
        )

    def test_validation(self, rng):
        net = MLP(1, [], 1, rng)
        with pytest.raises(RLError):
            Adam(net, lr=0.0)
        # The smallest positive rate is on the domain's edge: it builds and
        # steps, leaving every parameter finite.
        opt = Adam(net, lr=5e-324)
        net.flat_grads[...] = 1.0
        opt.step()
        assert np.isfinite(net.flat_params).all()

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_adam_refuses_a_non_finite_lr(self, rng, lr):
        """Such a rate used to build, and its first step turned every
        parameter NaN."""
        with pytest.raises(RLError, match="lr"):
            Adam(MLP(2, [4], 1, rng), lr=lr)
