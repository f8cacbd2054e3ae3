"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.config import BloomMode, SystemConfig

# ``pytest tests/test_oracle.py --hypothesis-profile=deep`` (the scheduled
# workflow): the differential oracle at ten times its tier-1 example count.
settings.register_profile("deep", max_examples=300)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> SystemConfig:
    """A very small tree (16-entry buffer) so compactions happen quickly."""
    return SystemConfig(
        size_ratio=4,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=16 * 1024,
        bits_per_key=8.0,
        seed=7,
    )


@pytest.fixture
def small_config() -> SystemConfig:
    """A small but multi-level tree with the paper's T=10."""
    return SystemConfig(
        size_ratio=10,
        entry_bytes=1024,
        page_bytes=4096,
        write_buffer_bytes=32 * 1024,
        bits_per_key=8.0,
        seed=7,
    )


@pytest.fixture
def bitarray_config(tiny_config: SystemConfig) -> SystemConfig:
    """Tiny config with real (bit-array) Bloom filters."""
    return tiny_config.with_updates(bloom_mode=BloomMode.BIT_ARRAY)
