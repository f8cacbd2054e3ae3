"""Bloom filters over integer keys.

Two interchangeable implementations are provided:

* :class:`BitArrayBloomFilter` — a real Bloom filter (bit array + double
  hashing). Used by correctness tests and available for any experiment.
* :class:`AnalyticalBloomFilter` — answers membership exactly and draws
  false positives as Bernoulli(f) events from a seeded RNG. For keys absent
  from the run, both filters produce i.i.d. Bernoulli(f) positives, so the
  analytical filter is statistically identical while avoiding per-probe
  hashing. The large benchmarks use it for speed (see DESIGN.md §2).

Keys are signed 64-bit integers (the simulated store's key type).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

_LN2 = math.log(2.0)

# Mixing constants from splitmix64; good avalanche behaviour on 64-bit ints.
_MIX_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX_MUL_1
    x ^= x >> np.uint64(27)
    x *= _MIX_MUL_2
    x ^= x >> np.uint64(31)
    return x


def optimal_num_hashes(bits_per_key: float) -> int:
    """Optimal number of hash functions ``k = bpk * ln 2`` (at least 1)."""
    if bits_per_key <= 0:
        raise ConfigError(f"bits_per_key must be > 0, got {bits_per_key}")
    return max(1, round(bits_per_key * _LN2))


class BitArrayBloomFilter:
    """Classic Bloom filter backed by a numpy boolean array.

    The number of bits is sized from the requested false-positive rate
    ``fpr`` via ``m = -n ln f / (ln 2)^2``; hashes are derived by double
    hashing two splitmix64 streams.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes", "_fpr", "_salt")

    def __init__(self, keys: np.ndarray, fpr: float, salt: int = 0) -> None:
        if not 0.0 < fpr <= 1.0:
            raise ConfigError(f"fpr must be in (0, 1], got {fpr}")
        self._fpr = float(fpr)
        self._salt = np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        n = len(keys)
        if fpr >= 1.0 or n == 0:
            # A degenerate filter that always answers "maybe".
            self._num_bits = 0
            self._num_hashes = 0
            self._bits = np.zeros(0, dtype=bool)
            return
        num_bits = max(8, int(math.ceil(-n * math.log(fpr) / (_LN2 * _LN2))))
        bits_per_key = num_bits / n
        self._num_bits = num_bits
        self._num_hashes = optimal_num_hashes(bits_per_key)
        self._bits = np.zeros(num_bits, dtype=bool)
        self._insert(np.asarray(keys, dtype=np.int64))

    @property
    def num_bits(self) -> int:
        return self._num_bits

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Bit positions for each key: shape ``(len(keys), num_hashes)``."""
        raw = keys.astype(np.int64).view(np.uint64) ^ self._salt
        h1 = _splitmix64(raw)
        h2 = _splitmix64(raw ^ _MIX_MUL_1) | np.uint64(1)
        steps = np.arange(self._num_hashes, dtype=np.uint64)
        combined = h1[:, None] + steps[None, :] * h2[:, None]
        return (combined % np.uint64(self._num_bits)).astype(np.int64)

    def _insert(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        self._bits[self._positions(keys).ravel()] = True

    def might_contain(self, key: int) -> bool:
        """``False`` guarantees absence; ``True`` means "maybe present"."""
        if self._num_bits == 0:
            return True
        positions = self._positions(np.asarray([key], dtype=np.int64))[0]
        return bool(self._bits[positions].all())

    def draws(self, present: np.ndarray) -> int:
        """Uniforms :meth:`might_contain_batch` consumes: none, it hashes."""
        return 0

    def might_contain_batch(self, keys: np.ndarray, present=None, uniforms=None) -> np.ndarray:
        """Vectorized :meth:`might_contain` over an int64 array; the
        analytical filter's hints are ignored (a real filter hashes)."""
        keys = np.asarray(keys, dtype=np.int64)
        if self._num_bits == 0:
            return np.ones(len(keys), dtype=bool)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        return self._bits[self._positions(keys)].all(axis=1)

    @property
    def memory_bits(self) -> int:
        """Bits of memory this filter occupies."""
        return self._num_bits


class AnalyticalBloomFilter:
    """Statistically exact Bloom filter simulation.

    Present keys always answer ``True`` (no false negatives); absent keys
    answer ``True`` with probability ``fpr`` using the provided RNG. The
    sorted key array is shared with the owning run, so memory overhead is a
    reference plus the RNG.
    """

    __slots__ = ("_sorted_keys", "_fpr", "_rng", "_num_bits")

    def __init__(self, sorted_keys: np.ndarray, fpr: float, rng: np.random.Generator) -> None:
        if not 0.0 < fpr <= 1.0:
            raise ConfigError(f"fpr must be in (0, 1], got {fpr}")
        self._sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
        self._fpr = float(fpr)
        self._rng = rng
        if fpr >= 1.0 or len(sorted_keys) == 0:
            self._num_bits = 0
        else:
            self._num_bits = int(math.ceil(-len(sorted_keys) * math.log(fpr) / (_LN2 * _LN2)))

    def _contains(self, keys: np.ndarray) -> np.ndarray:
        if len(self._sorted_keys) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.searchsorted(self._sorted_keys, keys)
        np.minimum(pos, len(self._sorted_keys) - 1, out=pos)
        return self._sorted_keys[pos] == keys

    def might_contain(self, key: int) -> bool:
        if self._fpr >= 1.0:
            return True
        keys = np.asarray([key], dtype=np.int64)
        if self._contains(keys)[0]:
            return True
        return bool(self._rng.random() < self._fpr)

    def draws(self, present: np.ndarray) -> int:
        """Uniforms :meth:`might_contain_batch` takes: one per absent key."""
        if self._fpr >= 1.0:
            return 0
        return len(present) - int(np.count_nonzero(present))

    def might_contain_batch(self, keys: np.ndarray, present=None, uniforms=None) -> np.ndarray:
        """Vectorized :meth:`might_contain`. ``present`` (exact membership,
        when the caller knows it) skips the binary search; ``uniforms`` are
        the :meth:`draws` the caller took (the read plan draws once per
        tree). The RNG stream is the same either way: one ``random(n)`` per
        call over the absent keys, in key order."""
        if self._fpr >= 1.0:
            return np.ones(len(keys), dtype=bool)
        if present is None:
            result = self._contains(np.asarray(keys, dtype=np.int64))
        else:
            result = present.copy()
        absent = ~result
        n_absent = int(np.count_nonzero(absent))
        if n_absent:
            if uniforms is None:
                uniforms = self._rng.random(n_absent)
            result[absent] = uniforms < self._fpr
        return result

    @property
    def memory_bits(self) -> int:
        """Bits a real filter of this design would occupy."""
        return self._num_bits
