"""Minimal dense neural networks with manual backpropagation.

The paper implements Lerp's actor and critic with PyTorch ("a three-layer
fully-connected neural network with 128 neurons per layer using ReLU").
PyTorch is not available offline, so this module provides the equivalent
on numpy: an :class:`MLP` of fully connected layers with ReLU between them
and an optional tanh output, run by two functions. :func:`stacked_forward`
runs one net, or an online/target pair in one product per layer, and
:func:`online_param_grads` back-propagates the parameter gradients of the
pair's online row. DDPG's actor gradient, ∂Q/∂a through the critic's
*input*, is formed in :mod:`repro.rl.ddpg` itself.

All arrays are float64, batch-first (``x.shape == (batch, features)``).

An :class:`MLP` keeps its parameters in one flat vector and its gradients in
another, every ``Linear.weight``/``bias``/``grad_*`` a view into them, so a
whole-network update (Adam, Polyak, zero-grad) is one elementwise pass: the
same float operations per element as a per-array loop (DESIGN.md §6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RLError


@dataclass
class Linear:
    """One fully connected layer ``y = x @ weight + bias``: views of its
    network's flat parameter and gradient vectors."""

    weight: np.ndarray
    bias: np.ndarray
    grad_weight: np.ndarray
    grad_bias: np.ndarray


class MLP:
    """A feed-forward stack of Linear layers with ReLU between them.

    ``hidden`` lists the hidden layer widths; ``output_activation`` may be
    ``None`` (identity, e.g. critics) or ``"tanh"`` (actors). Weights are
    He-initialized, biases zero.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        rng: np.random.Generator,
        output_activation: Optional[str] = None,
    ) -> None:
        self.dims = (in_dim, *hidden, out_dim)
        if min(self.dims) < 1:
            raise RLError(f"invalid layer widths: {self.dims}")
        if output_activation not in (None, "tanh"):
            raise RLError(f"unknown output activation: {output_activation!r}")
        self.squash = output_activation == "tanh"
        blocks = []
        for n_in, n_out in zip(self.dims, self.dims[1:]):
            blocks += [rng.normal(0.0, np.sqrt(2.0 / n_in), size=n_in * n_out), np.zeros(n_out)]
        self._bind(np.concatenate(blocks))

    def _bind(self, flat_params: np.ndarray) -> None:
        """Own ``flat_params`` and a zeroed gradient vector of its layout —
        every parameter, and every gradient, of the network as one vector
        each, in :meth:`params` order — and point the layers at views."""
        self.flat_params = flat_params
        self.flat_grads = np.zeros_like(flat_params)
        params, grads = self.split(flat_params), self.split(self.flat_grads)
        self.layers = [
            Linear(*params[i : i + 2], *grads[i : i + 2]) for i in range(0, len(params), 2)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.dims[0]:
            raise RLError(f"MLP expected input dim {self.dims[0]}, got {x.shape[1]}")
        weights = [(layer.weight, layer.bias) for layer in self.layers]
        return stacked_forward(weights, x, self.squash)[2]

    def params(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in (layer.weight, layer.bias)]

    def grads(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in (layer.grad_weight, layer.grad_bias)]

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-parameter views of ``flat``, laid out like :attr:`flat_params`
        along its last axis (an optimizer's moments, say, or a ``(2, n)``
        online/target pair, whose views are ``(2, *shape)``)."""
        views = []
        offset = 0
        for n_in, n_out in zip(self.dims, self.dims[1:]):
            for shape in ((n_in, n_out), (n_out,)):
                size = math.prod(shape)
                block = flat[..., offset : offset + size]
                views.append(block.reshape(flat.shape[:-1] + shape))
                offset += size
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
        if self.dims != other.dims:
            raise RLError("cannot copy params between different shapes")
        self.flat_params[...] = other.flat_params

    def soft_update_from(self, other: "MLP", tau: float) -> None:
        """Polyak averaging: ``θ ← τ·θ_other + (1-τ)·θ`` (DDPG targets)."""
        if not 0.0 <= tau <= 1.0:
            raise RLError(f"tau must be in [0, 1], got {tau}")
        self.flat_params *= 1.0 - tau
        self.flat_params += tau * other.flat_params

    # ------------------------------------------------------------------
    # Pickling: the parameter vector once; gradients and views are rebound
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(vars(self))
        del state["flat_grads"], state["layers"]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind(self.flat_params)


class PairedNets:
    """An agent whose online/target nets are the rows of ``(2, n_params)``
    buffers, the online net in row 0 (DESIGN.md §6). ``PAIRS`` names each
    buffer's attribute and its two nets' attributes. Each net pickles its
    own row; the buffers are rebuilt on load."""

    PAIRS: Tuple[Tuple[str, str, str], ...] = ()

    def _pair_nets(self) -> None:
        for buffer, *names in self.PAIRS:
            nets = [getattr(self, name) for name in names]
            pair = np.stack([net.flat_params for net in nets])
            setattr(self, buffer, pair)
            for net, row in zip(nets, pair):
                net._bind(row)

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        for buffer, *_ in self.PAIRS:
            del state[buffer]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._pair_nets()


def stacked_forward(weights: list, x: np.ndarray, squash: bool) -> tuple:
    """Forward through Linear layers, ReLU between them and tanh on the
    output when ``squash``: with ``x`` of shape ``(2, batch, in)`` and
    ``weights`` from :meth:`MLP.stacked`, two nets' forwards in one product
    per layer; with ``(batch, in)`` and one net's ``(weight, bias)`` pairs,
    that net's (:meth:`MLP.forward`). Returns every layer's input, every
    ReLU's mask, the output."""
    inputs: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    for weight, bias in weights:
        if inputs:
            masks.append(x > 0)
            x = np.maximum(x, 0.0, out=x)
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
