"""System configuration shared by every layer of the simulated store.

:class:`SystemConfig` plays the role of the option structs a real key-value
store (e.g. RocksDB) exposes. The defaults follow the paper's experimental
setup (Section 7): size ratio ``T = 10``, 1 KiB entries (128 B key + 896 B
value), 4 KiB pages, 8 bits-per-key Bloom filters. The write buffer defaults
to a scaled-down size so that laptop-scale workloads still span several
levels; pass ``write_buffer_bytes=2 * 2**20`` for the paper's 2 MiB buffer.

All simulated times are expressed in **seconds**.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError


class BloomScheme(enum.Enum):
    """How bits-per-key are allocated to Bloom filters across levels.

    * ``UNIFORM`` — every level uses the same bits-per-key (RocksDB default).
    * ``MONKEY``  — level *i* gets an exponentially higher false-positive rate
      than level *i-1* (``f_i = f_1 * T**(i-1)``), the allocation of
      Dayan et al.'s Monkey used by Dostoevsky and Cosine.
    """

    UNIFORM = "uniform"
    MONKEY = "monkey"


class BloomMode(enum.Enum):
    """How Bloom filter probes are simulated.

    * ``BIT_ARRAY``  — a real Bloom filter: bit array plus double hashing.
    * ``ANALYTICAL`` — membership is answered exactly and false positives are
      drawn as Bernoulli(f) events. Statistically identical for absent keys
      and considerably faster; used by the large benchmarks.
    """

    BIT_ARRAY = "bit_array"
    ANALYTICAL = "analytical"


class TransitionKind(enum.Enum):
    """Compaction-policy transition strategy (paper Section 4)."""

    GREEDY = "greedy"
    LAZY = "lazy"
    FLEXIBLE = "flexible"


@dataclass(frozen=True)
class CostModelParams:
    """Cost constants of the simulated device and CPU (paper Eq. 5 terms).

    ``random_read_s``/``random_write_s`` price one 4 KiB page of random I/O
    (the paper's ``I_r`` and ``I_w``); ``seq_read_s``/``seq_write_s`` price a
    page moved during compaction, which is sequential on a real device;
    ``run_probe_cpu_s`` is the paper's ``c_r`` (probing the in-memory
    metadata of one sorted run); ``compaction_entry_cpu_s`` is ``c_w``
    (merge-sort and allocation work per entry compacted).
    """

    random_read_s: float = 25e-6
    random_write_s: float = 25e-6
    seq_read_s: float = 6.5e-6
    seq_write_s: float = 6.5e-6
    run_probe_cpu_s: float = 2e-6
    compaction_entry_cpu_s: float = 0.8e-6

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{field.name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete static configuration of the simulated key-value store.

    Parameters mirror the paper's notation (Table 1):

    * ``size_ratio`` — ``T``, capacity ratio between adjacent levels.
    * ``entry_bytes`` — ``E``, logical size of one key-value entry.
    * ``page_bytes`` — ``B``, size of one disk page.
    * ``write_buffer_bytes`` — main-memory buffer; level ``i`` has capacity
      ``write_buffer_bytes * T**i``.
    * ``bits_per_key`` — Bloom filter budget (level 1 budget under Monkey).
    * ``initial_policy`` — ``K`` applied to every level at start
      (``1`` = leveling, ``T`` = tiering).
    """

    size_ratio: int = 10
    entry_bytes: int = 1024
    page_bytes: int = 4096
    write_buffer_bytes: int = 64 * 1024
    bits_per_key: float = 8.0
    bloom_scheme: BloomScheme = BloomScheme.UNIFORM
    bloom_mode: BloomMode = BloomMode.ANALYTICAL
    initial_policy: int = 1
    block_cache_pages: int = 0
    costs: CostModelParams = dataclasses.field(default_factory=CostModelParams)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.size_ratio <= 255:
            # T is each level's max_policy; LevelLookupIndex ranks runs in a uint8.
            raise ConfigError(f"size_ratio must be in [2, 255], got {self.size_ratio}")
        if self.entry_bytes <= 0:
            raise ConfigError(f"entry_bytes must be > 0, got {self.entry_bytes}")
        if self.page_bytes < self.entry_bytes:
            raise ConfigError(
                "page_bytes must be >= entry_bytes "
                f"({self.page_bytes} < {self.entry_bytes})"
            )
        if self.write_buffer_bytes < self.entry_bytes:
            raise ConfigError(
                "write_buffer_bytes must hold at least one entry "
                f"({self.write_buffer_bytes} < {self.entry_bytes})"
            )
        if self.bits_per_key <= 0:
            raise ConfigError(f"bits_per_key must be > 0, got {self.bits_per_key}")
        if not 1 <= self.initial_policy <= self.size_ratio:
            raise ConfigError(
                f"initial_policy must be in [1, T]=[1, {self.size_ratio}], "
                f"got {self.initial_policy}"
            )
        if self.block_cache_pages < 0:
            raise ConfigError(
                f"block_cache_pages must be >= 0, got {self.block_cache_pages}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.costs.validate()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def entries_per_page(self) -> int:
        """Entries that fit on one disk page (at least 1)."""
        return max(1, self.page_bytes // self.entry_bytes)

    @property
    def buffer_capacity_entries(self) -> int:
        """Entries the write buffer holds before it flushes."""
        return max(1, self.write_buffer_bytes // self.entry_bytes)

    def level_capacity_entries(self, level: int) -> int:
        """Capacity of level ``level`` (1-based) in entries:
        ``buffer * T**level``."""
        if level < 1:
            raise ConfigError(f"level must be >= 1, got {level}")
        return self.buffer_capacity_entries * self.size_ratio**level

    def level_capacity_bytes(self, level: int) -> int:
        """Capacity of level ``level`` (1-based) in bytes (paper ``C_i``)."""
        return self.level_capacity_entries(level) * self.entry_bytes

    def pages_for_entries(self, n_entries: int) -> int:
        """Number of disk pages occupied by ``n_entries`` entries."""
        if n_entries <= 0:
            return 0
        per_page = self.entries_per_page
        return -(-n_entries // per_page)  # ceil division

    def with_updates(self, **changes: object) -> "SystemConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def config_to_state(config: SystemConfig) -> Dict[str, object]:
    """``SystemConfig`` as a plain dict (enums by value)."""
    state = dataclasses.asdict(config)
    state["bloom_scheme"] = config.bloom_scheme.value
    state["bloom_mode"] = config.bloom_mode.value
    return state


def config_from_state(state: Dict[str, object]) -> SystemConfig:
    """Rebuild a ``SystemConfig`` from :func:`config_to_state` output."""
    fields = dict(state)
    fields["bloom_scheme"] = BloomScheme(fields["bloom_scheme"])
    fields["bloom_mode"] = BloomMode(fields["bloom_mode"])
    fields["costs"] = CostModelParams(**fields["costs"])
    return SystemConfig(**fields)
