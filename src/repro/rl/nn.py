"""Minimal dense neural networks with manual backpropagation.

The paper implements Lerp's actor and critic with PyTorch ("a three-layer
fully-connected neural network with 128 neurons per layer using ReLU").
PyTorch is not available offline, so this module provides the equivalent
building blocks on numpy: linear layers, ReLU/Tanh activations, an
:class:`MLP` container that back-propagates gradients both to parameters and
to its *input* (the latter is what DDPG's actor update needs: ∂Q/∂a flows
through the critic's input into the actor).

All arrays are float64, batch-first (``x.shape == (batch, features)``).

An :class:`MLP` keeps its parameters in one flat vector and its gradients in
another, every ``Linear.weight``/``bias``/``grad_*`` a view into them, so a
whole-network update (Adam, Polyak, zero-grad) is one elementwise pass: the
same float operations per element as a per-array loop (DESIGN.md §6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import RLError


class Layer:
    """Interface for a differentiable layer."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. this layer's input; accumulates parameter grads."""
        raise NotImplementedError

    def params(self) -> List[np.ndarray]:
        return []

    def grads(self) -> List[np.ndarray]:
        return []

    def __getstate__(self) -> dict:
        # An activation's only attribute is its last forward's scratch.
        return dict.fromkeys(vars(self))


class Linear(Layer):
    """Fully connected layer ``y = x @ W + b`` with He initialization."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        if in_dim < 1 or out_dim < 1:
            raise RLError(f"invalid Linear dims: {in_dim} -> {out_dim}")
        scale = np.sqrt(2.0 / in_dim)
        self.weight = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RLError("backward called before forward")
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += np.add.reduce(grad_out, axis=0)
        return grad_out @ self.weight.T

    def params(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def __getstate__(self) -> dict:
        # Parameters and gradients are views of the owning MLP's flat
        # vectors, which re-binds them on load; the shape is all that is
        # the layer's own.
        return {"shape": self.weight.shape}

    def __setstate__(self, state: dict) -> None:
        self.weight = np.empty(state["shape"])
        self.bias = np.empty(state["shape"][1])
        self._x = None


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RLError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    """Hyperbolic tangent activation (used on the actor's output so actions
    live in [-1, 1])."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RLError("backward called before forward")
        return grad_out * (1.0 - self._y**2)


class MLP:
    """A feed-forward stack of Linear layers with hidden activations.

    ``hidden`` lists the hidden layer widths; ``output_activation`` may be
    ``None`` (identity, e.g. critics) or ``"tanh"`` (actors).
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        rng: np.random.Generator,
        output_activation: Optional[str] = None,
    ) -> None:
        self.layers: List[Layer] = []
        previous = in_dim
        for width in hidden:
            self.layers.append(Linear(previous, width, rng))
            self.layers.append(ReLU())
            previous = width
        self.layers.append(Linear(previous, out_dim, rng))
        if output_activation == "tanh":
            self.layers.append(Tanh())
        elif output_activation is not None:
            raise RLError(f"unknown output activation: {output_activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._bind(np.concatenate([p.ravel() for p in self.params()]))

    def _bind(self, flat_params: np.ndarray) -> None:
        """Own ``flat_params`` and a zeroed gradient vector of its layout —
        every parameter, and every gradient, of the network as one vector
        each, in :meth:`params` order — and point the layers at views."""
        self.flat_params = flat_params
        self.flat_grads = np.zeros_like(flat_params)
        params = iter(self.split(self.flat_params))
        grads = iter(self.split(self.flat_grads))
        for layer in self.linears():
            layer.weight, layer.bias = next(params), next(params)
            layer.grad_weight, layer.grad_bias = next(grads), next(grads)

    def linears(self) -> List[Linear]:
        return [layer for layer in self.layers if isinstance(layer, Linear)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise RLError(f"MLP expected input dim {self.in_dim}, got {x.shape[1]}")
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out`` (dL/dy) through the network.

        Returns dL/dx — the gradient with respect to the *input* of the most
        recent :meth:`forward` call. Parameter gradients accumulate until
        :meth:`zero_grad`.
        """
        grad = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-parameter views of ``flat``, laid out like :attr:`flat_params`
        along its last axis (an optimizer's moments, say, or a ``(2, n)``
        online/target pair, whose views are ``(2, *shape)``)."""
        views = []
        offset = 0
        for param in self.params():
            block = flat[..., offset : offset + param.size]
            views.append(block.reshape(flat.shape[:-1] + param.shape))
            offset += param.size
        return views

    def stacked(self, pair: np.ndarray) -> list:
        """``(weight, bias)`` views per Linear layer of the two nets whose
        parameters are the rows of ``pair``: ``(2, in, out)``, ``(2, 1, out)``."""
        views = self.split(pair)
        return [(w, b[:, None]) for w, b in zip(views[::2], views[1::2])]

    def zero_grad(self) -> None:
        self.flat_grads.fill(0.0)

    # ------------------------------------------------------------------
    # Parameter vector utilities (target networks, tests)
    # ------------------------------------------------------------------
    def copy_params_from(self, other: "MLP") -> None:
        """Hard copy of every parameter from ``other`` (same architecture)."""
        if [p.shape for p in self.params()] != [p.shape for p in other.params()]:
            raise RLError("cannot copy params between different shapes")
        self.flat_params[...] = other.flat_params

    def soft_update_from(self, other: "MLP", tau: float) -> None:
        """Polyak averaging: ``θ ← τ·θ_other + (1-τ)·θ`` (DDPG targets)."""
        if not 0.0 <= tau <= 1.0:
            raise RLError(f"tau must be in [0, 1], got {tau}")
        self.flat_params *= 1.0 - tau
        self.flat_params += tau * other.flat_params

    # ------------------------------------------------------------------
    # Pickling: the parameter vector once; gradients are scratch
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(vars(self))
        del state["flat_grads"]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind(self.flat_params)


# The fused DDPG pass (repro.rl.ddpg, DESIGN.md §6).
def stacked_forward(weights: list, x: np.ndarray, squash: bool) -> tuple:
    """Forward through Linear layers, ReLU between them and tanh on the
    output when ``squash``: with ``x`` of shape ``(2, batch, in)`` and
    ``weights`` from :meth:`MLP.stacked`, two nets' forwards in one product
    per layer. Returns every layer's input, every ReLU's mask, the output."""
    inputs: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    for weight, bias in weights:
        if inputs:
            masks.append(x > 0)
            x = np.maximum(x, 0.0, out=x)  # ReLU.forward for every non-NaN x
        inputs.append(x)
        x = x @ weight
        x += bias
    return inputs, masks, np.tanh(x) if squash else x


def online_param_grads(layers: list, inputs: list, masks: list, grad: np.ndarray) -> None:
    """Parameter gradients only, from row 0 of a :func:`stacked_forward`:
    ``grad`` (dL/d the last Linear's output) is back-propagated and each
    gradient written over its view; the first layer's input gradient, which
    nothing reads, is not formed."""
    for i in range(len(layers) - 1, -1, -1):
        np.matmul(inputs[i][0].T, grad, out=layers[i].grad_weight)
        np.add.reduce(grad, axis=0, out=layers[i].grad_bias)
        if i:
            grad = (grad @ layers[i].weight.T) * masks[i - 1][0]
