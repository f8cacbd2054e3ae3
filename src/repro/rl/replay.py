"""Experience replay buffer.

RusKey's Lerp stores "experience samples" — quadruples of (state, action,
reward, next state) extracted from mission statistics — in a replay buffer
and samples mini-batches for actor-critic updates (paper Section 3.1).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import RLError


class ReplayBuffer:
    """Circular buffer of transitions with uniform sampling."""

    #: The preallocated columns, ``capacity`` rows each.
    _COLUMNS = ("_states", "_actions", "_rewards", "_next_states", "_dones")

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
    ) -> None:
        if capacity < 1:
            raise RLError(f"capacity must be >= 1, got {capacity}")
        if state_dim < 1 or action_dim < 1:
            raise RLError("state_dim and action_dim must be >= 1")
        self.capacity = capacity
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros((capacity, action_dim))
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, state_dim))
        self._dones = np.zeros(capacity)
        self._rng = rng
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size == self.capacity

    def push(
        self,
        state: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_state: np.ndarray,
        done: bool = False,
    ) -> None:
        """Append one transition, overwriting the oldest when full."""
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._dones[i] = float(done)
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, *shape: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniformly sample transitions (with replacement) in one draw:
        ``sample(batch_size)``, or ``sample(n, batch_size)`` for ``n``
        mini-batches — the indices ``n`` single draws would take, in order.
        Each column comes back with ``shape`` as its leading axes."""
        if self._size == 0:
            raise RLError("cannot sample from an empty replay buffer")
        if not shape or min(shape) < 1:
            raise RLError(f"sample shape must be positive, got {shape}")
        idx = self._rng.integers(0, self._size, size=shape)
        return (
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
            self._dones[idx],
        )

    def clear(self) -> None:
        self._size = 0
        self._cursor = 0

    def __getstate__(self) -> dict:
        # Only the filled rows of each column are state.
        state = dict(vars(self))
        for name in self._COLUMNS:
            state[name] = state[name][: self._size]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        for name in self._COLUMNS:
            filled = state[name]
            column = np.zeros((self.capacity, *filled.shape[1:]))
            column[: len(filled)] = filled
            setattr(self, name, column)
