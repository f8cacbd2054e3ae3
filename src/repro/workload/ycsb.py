"""YCSB-style workloads with Zipfian key popularity.

The paper evaluates RusKey "under the YCSB standard benchmarks ... We use
the default Zipfian distribution, in which the update frequency and access
frequency of keys follow the power law" (Figure 11), with the same
compositions as the uniform experiments plus a 50 % range-scan / 50 % update
mix. :class:`YCSBWorkload` reproduces that generator;
:meth:`YCSBWorkload.paper_range_mix` builds the range mix.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.workload.spec import Mission, WorkloadSpec, mission_from_mix
from repro.workload.zipf import ZipfianSampler


class YCSBWorkload(WorkloadSpec):
    """Zipfian-key workload with configurable lookup / range / update mix."""

    def __init__(
        self,
        n_records: int,
        lookup_fraction: float,
        seed: int = 0,
        range_fraction: float = 0.0,
        range_span: int = 64,
        zipf_exponent: float = 0.99,
        value_space: int = 2**31,
        name: str = "",
    ) -> None:
        if n_records < 1:
            raise WorkloadError(f"n_records must be >= 1, got {n_records}")
        if not 0.0 <= lookup_fraction <= 1.0:
            raise WorkloadError(
                f"lookup_fraction must be in [0, 1], got {lookup_fraction}"
            )
        if not 0.0 <= range_fraction <= 1.0:
            raise WorkloadError(
                f"range_fraction must be in [0, 1], got {range_fraction}"
            )
        if range_span < 1:
            raise WorkloadError(f"range_span must be >= 1, got {range_span}")
        self.n_records = n_records
        self.lookup_fraction = lookup_fraction
        self.range_fraction = range_fraction
        self.range_span = range_span
        self.zipf_exponent = zipf_exponent
        self.value_space = value_space
        self.seed = seed
        self.name = name or f"ycsb(γ={lookup_fraction:.2f}, zipf={zipf_exponent})"

    @classmethod
    def paper_range_mix(
        cls, n_records: int, seed: int = 0, range_span: int = 64
    ) -> "YCSBWorkload":
        """The paper's Figure 11 (d): 50 % range lookups, 50 % updates."""
        return cls(
            n_records,
            lookup_fraction=0.5,
            range_fraction=1.0,
            range_span=range_span,
            seed=seed,
            name="ycsb-range50",
        )

    # ------------------------------------------------------------------
    def expected_lookup_fraction(self, mission_index: int) -> float:
        return self.lookup_fraction

    def load_records(self) -> "tuple[np.ndarray, np.ndarray]":
        rng = np.random.default_rng(self.seed ^ 0x5EED)
        keys = np.arange(self.n_records, dtype=np.int64)
        values = rng.integers(0, self.value_space, size=self.n_records, dtype=np.int64)
        return keys, values

    def missions(self, n_missions: int, mission_size: int) -> Iterator[Mission]:
        rng = np.random.default_rng(self.seed)
        sampler = ZipfianSampler(self.n_records, rng, self.zipf_exponent)
        for _ in range(n_missions):
            update_keys = sampler.sample(mission_size)
            lookup_keys = sampler.sample(mission_size)
            values = rng.integers(
                0, self.value_space, size=mission_size, dtype=np.int64
            )
            yield mission_from_mix(
                rng,
                mission_size,
                self.lookup_fraction,
                update_keys,
                lookup_keys,
                values,
                range_fraction=self.range_fraction,
                range_span=self.range_span,
            )
