"""Tests for repro.config."""

import dataclasses
import math

import pytest

from repro.config import (
    BloomMode,
    BloomScheme,
    CostModelParams,
    SystemConfig,
    TransitionKind,
)
from repro.core.ruskey import RusKey
from repro.errors import ConfigError
from repro.workload.uniform import UniformWorkload


class TestSystemConfigValidation:
    def test_defaults_are_valid(self):
        config = SystemConfig()
        assert config.size_ratio == 10
        assert config.entry_bytes == 1024

    def test_rejects_size_ratio_below_two(self):
        with pytest.raises(ConfigError):
            SystemConfig(size_ratio=1)

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(ConfigError):
            SystemConfig(entry_bytes=0)

    def test_rejects_page_smaller_than_entry(self):
        with pytest.raises(ConfigError):
            SystemConfig(entry_bytes=8192, page_bytes=4096)

    def test_rejects_buffer_smaller_than_entry(self):
        with pytest.raises(ConfigError):
            SystemConfig(write_buffer_bytes=512, entry_bytes=1024)

    def test_rejects_nonpositive_bits_per_key(self):
        with pytest.raises(ConfigError):
            SystemConfig(bits_per_key=0)

    def test_rejects_policy_outside_range(self):
        with pytest.raises(ConfigError):
            SystemConfig(initial_policy=0)
        with pytest.raises(ConfigError):
            SystemConfig(initial_policy=11, size_ratio=10)

    def test_policy_at_bounds_accepted(self):
        assert SystemConfig(initial_policy=1).initial_policy == 1
        assert SystemConfig(initial_policy=10).initial_policy == 10

    def test_rejects_negative_cache(self):
        with pytest.raises(ConfigError):
            SystemConfig(block_cache_pages=-1)

    def test_rejects_negative_costs(self):
        with pytest.raises(ConfigError):
            SystemConfig(costs=CostModelParams(random_read_s=-1e-6))

    # ROADMAP 18(a): a NaN or infinite price turned every SimClock charge
    # into NaN or inf.
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
    def test_rejects_non_finite_costs(self, value):
        with pytest.raises(ConfigError, match="random_read_s"):
            SystemConfig(costs=CostModelParams(random_read_s=value))

    def test_zero_cost_runs_a_mission(self, small_config):
        config = small_config.with_updates(costs=CostModelParams(random_read_s=0.0))
        store = RusKey(config)
        workload = UniformWorkload(n_records=4000, lookup_fraction=0.5, seed=11)
        store.bulk_load(*workload.load_records())
        store.run_missions(workload.missions(1, 300))
        assert len(store.mission_log) == 1
        assert math.isfinite(store.view().clock_now) and store.view().clock_now > 0

    def test_rejects_negative_seed(self):
        """Refused when built, not later as numpy's ``ValueError`` from the
        first generator the store seeds with it."""
        with pytest.raises(ConfigError, match="seed"):
            SystemConfig(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            SystemConfig().with_updates(seed=-1)


class TestDerivedQuantities:
    def test_entries_per_page(self):
        config = SystemConfig(entry_bytes=1024, page_bytes=4096)
        assert config.entries_per_page == 4

    def test_entries_per_page_at_least_one(self):
        config = SystemConfig(entry_bytes=4096, page_bytes=4096)
        assert config.entries_per_page == 1

    def test_buffer_capacity_entries(self):
        config = SystemConfig(write_buffer_bytes=128 * 1024, entry_bytes=1024)
        assert config.buffer_capacity_entries == 128

    def test_level_capacity_grows_by_t(self):
        config = SystemConfig(write_buffer_bytes=64 * 1024, size_ratio=10)
        c1 = config.level_capacity_entries(1)
        c2 = config.level_capacity_entries(2)
        assert c2 == 10 * c1
        assert c1 == 10 * config.buffer_capacity_entries

    def test_level_capacity_bytes_consistent(self):
        config = SystemConfig()
        assert config.level_capacity_bytes(2) == (
            config.level_capacity_entries(2) * config.entry_bytes
        )

    def test_level_capacity_rejects_level_zero(self):
        with pytest.raises(ConfigError):
            SystemConfig().level_capacity_entries(0)

    def test_pages_for_entries_ceil(self):
        config = SystemConfig(entry_bytes=1024, page_bytes=4096)
        assert config.pages_for_entries(0) == 0
        assert config.pages_for_entries(1) == 1
        assert config.pages_for_entries(4) == 1
        assert config.pages_for_entries(5) == 2

    def test_with_updates_returns_new_config(self):
        config = SystemConfig()
        updated = config.with_updates(size_ratio=5)
        assert updated.size_ratio == 5
        assert config.size_ratio == 10
        assert isinstance(updated, SystemConfig)

    def test_with_updates_validates(self):
        with pytest.raises(ConfigError):
            SystemConfig().with_updates(size_ratio=0)

    def test_config_is_frozen(self):
        config = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.size_ratio = 5  # type: ignore[misc]


class TestEnums:
    def test_bloom_scheme_values(self):
        assert BloomScheme("uniform") is BloomScheme.UNIFORM
        assert BloomScheme("monkey") is BloomScheme.MONKEY

    def test_bloom_mode_values(self):
        assert BloomMode("bit_array") is BloomMode.BIT_ARRAY
        assert BloomMode("analytical") is BloomMode.ANALYTICAL

    def test_transition_kind_values(self):
        assert {t.value for t in TransitionKind} == {"greedy", "lazy", "flexible"}
