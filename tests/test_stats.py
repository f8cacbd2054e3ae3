"""Tests for repro.lsm.stats."""

import pytest
from reference_get import add_read

from repro.lsm.stats import BUFFER_LEVEL, MissionStats, StatsCollector
from repro.storage.pager import IOCounters


class TestMissionStats:
    def test_operation_counts(self):
        mission = MissionStats(index=0, n_lookups=3, n_updates=1, n_ranges=1)
        assert mission.n_operations == 5
        assert mission.lookup_fraction == pytest.approx(0.8)

    def test_empty_mission_fractions(self):
        mission = MissionStats(index=0)
        assert mission.lookup_fraction == 0.0
        assert mission.latency_per_op == 0.0

    def test_latency_per_op(self):
        mission = MissionStats(
            index=0, n_lookups=5, n_updates=5, read_time=1.0, write_time=1.0
        )
        assert mission.latency_per_op == pytest.approx(0.2)

    def test_level_time_sums_read_and_write(self):
        mission = MissionStats(index=0)
        mission.level_read_time[2] = 1.5
        mission.level_write_time[2] = 0.5
        assert mission.level_time(2) == pytest.approx(2.0)
        assert mission.level_time(3) == 0.0


class TestStatsCollector:
    def test_attribution_accumulates(self):
        stats = StatsCollector()
        add_read(stats, 1, 0.5)
        add_read(stats, 2, 0.25)
        stats.add_write(1, 1.0)
        assert stats.total_read_time == pytest.approx(0.75)
        assert stats.total_write_time == pytest.approx(1.0)

    def test_mission_window_isolates_costs(self):
        stats = StatsCollector()
        io = IOCounters()
        add_read(stats, 1, 9.0)  # outside any mission
        stats.begin_mission(io, clock_now=0.0)
        add_read(stats, 1, 1.0)
        stats.count_lookup()
        io.random_reads += 3
        mission = stats.end_mission(io, clock_now=1.0)
        assert mission.read_time == pytest.approx(1.0)
        assert mission.n_lookups == 1
        assert mission.io.random_reads == 3
        assert mission.sim_duration == pytest.approx(1.0)

    @pytest.mark.parametrize("in_mission", (False, True))
    def test_read_totals_round_trip_equals_add_read_calls(self, in_mission):
        charges = [(3, 0.1), (3, 0.2), (1, 1e-9), (3, 0.7), (1, 0.3)]
        direct, replayed = StatsCollector(), StatsCollector()
        for stats in (direct, replayed):
            add_read(stats, 3, 0.05)  # level 3 known before the window
            if in_mission:
                stats.begin_mission(IOCounters(), 0.0)
                add_read(stats, 1, 0.4)  # the window starts non-zero
        for level_no, seconds in charges:
            add_read(direct, level_no, seconds)
        total, stored, window, window_stored = replayed.read_totals()
        levels, window_levels = {}, {}  # in first-charge order
        for level_no, seconds in charges:
            if level_no not in levels:
                levels[level_no] = stored.get(level_no, 0.0)
                window_levels[level_no] = window_stored.get(level_no, 0.0)
            total += seconds
            levels[level_no] += seconds
            window += seconds
            window_levels[level_no] += seconds
        replayed.set_read_totals(total, levels, window, window_levels)
        assert replayed.total_read_time == direct.total_read_time
        # equal in insertion order too: a level new to the map goes where
        # its first charge put it
        assert list(replayed.level_read_time.items()) == list(direct.level_read_time.items())
        assert replayed.in_mission == in_mission
        if in_mission:
            ours = replayed.end_mission(IOCounters(), 0.0)
            theirs = direct.end_mission(IOCounters(), 0.0)
            assert ours.read_time == theirs.read_time
            assert list(ours.level_read_time.items()) == list(theirs.level_read_time.items())

    def test_mission_indices_increment(self):
        stats = StatsCollector()
        io = IOCounters()
        for expected in range(3):
            stats.begin_mission(io, 0.0)
            mission = stats.end_mission(io, 0.0)
            assert mission.index == expected
            # The collector keeps the last closed window and a count; the
            # log belongs to whoever consumes it.
            assert stats.last_mission is mission
        assert stats.windows_closed == 3

    def test_double_begin_rejected(self):
        stats = StatsCollector()
        stats.begin_mission(IOCounters(), 0.0)
        with pytest.raises(RuntimeError):
            stats.begin_mission(IOCounters(), 0.0)

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            StatsCollector().end_mission(IOCounters(), 0.0)

    def test_io_diff_only_counts_window(self):
        stats = StatsCollector()
        io = IOCounters(random_reads=100)
        stats.begin_mission(io, 0.0)
        io.random_reads += 7
        mission = stats.end_mission(io, 0.0)
        assert mission.io.random_reads == 7

    def test_counts_by_kind(self):
        stats = StatsCollector()
        stats.begin_mission(IOCounters(), 0.0)
        stats.count_lookup(2)
        stats.count_update(3)
        stats.count_range(1)
        mission = stats.end_mission(IOCounters(), 0.0)
        assert (mission.n_lookups, mission.n_updates, mission.n_ranges) == (2, 3, 1)
        assert (stats.total_lookups, stats.total_updates, stats.total_ranges) == (2, 3, 1)

    def test_buffer_level_constant(self):
        assert BUFFER_LEVEL == 0
