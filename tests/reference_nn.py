"""The per-layer forward and backward of an MLP, kept as the executable
specification of the fused helpers.

``src/`` runs a network one way: :func:`repro.rl.nn.stacked_forward` for
the forward and :func:`repro.rl.nn.online_param_grads` for the parameter
gradients, and DDPG forms ∂Q/∂a inline. This is the per-layer chain they
replaced, sharing no code with them: each Linear layer computes
``x @ weight`` and then adds ``bias``, each ReLU returns
``np.maximum(x, 0.0)`` and keeps its mask ``x > 0``, tanh keeps its output,
and the backward walks the layers in reverse, accumulating each parameter
gradient into the network's gradient views and returning the gradient
with respect to the input. ``tests/test_rl_agents.py``'s per-array
reference updates and ``tests/test_nn.py``'s finite-difference checks
import it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def forward(net, x: np.ndarray) -> Tuple[np.ndarray, tuple]:
    """``net``'s output for ``x``, and the tape :func:`backward` reads:
    every layer's input, every ReLU's mask and the output."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    inputs: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    for i, layer in enumerate(net.layers):
        if i:
            masks.append(x > 0)
            x = np.maximum(x, 0.0)
        inputs.append(x)
        x = x @ layer.weight
        x += layer.bias
    if net.squash:
        x = np.tanh(x)
    return x, (inputs, masks, x)


def backward(net, tape: tuple, grad_out: np.ndarray) -> np.ndarray:
    """Back-propagate ``grad_out`` (dL/dy) along the ``tape`` of one
    :func:`forward`: each parameter gradient accumulates into ``net``'s
    gradient views until ``net.zero_grad()``, and dL/dx is returned."""
    inputs, masks, y = tape
    grad = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
    if net.squash:
        grad = grad * (1.0 - y**2)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        layer.grad_weight += inputs[i].T @ grad
        layer.grad_bias += np.add.reduce(grad, axis=0)
        grad = grad @ layer.weight.T
        if i:
            grad = grad * masks[i - 1]
    return grad
