"""Tests for repro.workload: specs, samplers, generators and dynamic
schedules."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import (
    OP_LOOKUP,
    OP_RANGE,
    OP_UPDATE,
    DynamicWorkload,
    Mission,
    UniformWorkload,
    WorkloadPhase,
    YCSBWorkload,
    ZipfianSampler,
    mission_from_mix,
    paper_dynamic_workload,
)


class TestMission:
    def _mission(self, kinds):
        n = len(kinds)
        return Mission(
            kinds=np.asarray(kinds, dtype=np.int8),
            keys=np.zeros(n, dtype=np.int64),
            values=np.zeros(n, dtype=np.int64),
            spans=np.zeros(n, dtype=np.int64),
        )

    def test_counts(self):
        mission = self._mission([OP_LOOKUP, OP_UPDATE, OP_RANGE, OP_LOOKUP])
        assert mission.n_lookups == 2
        assert mission.n_updates == 1
        assert mission.n_ranges == 1
        assert len(mission) == 4

    def test_lookup_fraction_counts_ranges(self):
        mission = self._mission([OP_RANGE, OP_UPDATE])
        assert mission.lookup_fraction == pytest.approx(0.5)

    def test_rejects_misaligned_arrays(self):
        with pytest.raises(WorkloadError):
            Mission(
                kinds=np.zeros(2, dtype=np.int8),
                keys=np.zeros(1, dtype=np.int64),
                values=np.zeros(2, dtype=np.int64),
                spans=np.zeros(2, dtype=np.int64),
            )


class TestMissionFromMix:
    def test_mix_fraction_respected(self, rng):
        n = 10_000
        pool = rng.integers(0, 1000, size=n, dtype=np.int64)
        mission = mission_from_mix(rng, n, 0.7, pool, pool, pool)
        assert mission.lookup_fraction == pytest.approx(0.7, abs=0.03)

    def test_range_promotion(self, rng):
        n = 10_000
        pool = rng.integers(0, 1000, size=n, dtype=np.int64)
        mission = mission_from_mix(
            rng, n, 0.5, pool, pool, pool, range_fraction=1.0, range_span=16
        )
        assert mission.n_lookups == 0
        assert mission.n_ranges > 0
        spans = mission.spans[mission.kinds == OP_RANGE]
        assert (spans == 16).all()

    def test_validation(self, rng):
        pool = np.zeros(10, dtype=np.int64)
        with pytest.raises(WorkloadError):
            mission_from_mix(rng, 10, 1.5, pool, pool, pool)
        with pytest.raises(WorkloadError):
            mission_from_mix(rng, 100, 0.5, pool, pool, pool)  # pools too small


class TestZipfianSampler:
    def test_range(self, rng):
        sampler = ZipfianSampler(100, rng)
        samples = sampler.sample(1000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_skew_unscrambled(self):
        rng = np.random.default_rng(0)
        sampler = ZipfianSampler(1000, rng, exponent=0.99, scrambled=False)
        samples = sampler.sample(50_000)
        top = np.mean(samples == 0)
        assert top > 0.05  # the hottest item draws far more than 1/1000

    def test_scramble_spreads_hot_keys(self):
        rng = np.random.default_rng(0)
        sampler = ZipfianSampler(1000, rng, scrambled=True)
        samples = sampler.sample(50_000)
        values, counts = np.unique(samples, return_counts=True)
        assert values[np.argmax(counts)] != 0  # hottest key not rank 0

    def test_exponent_zero_is_uniform(self):
        rng = np.random.default_rng(0)
        sampler = ZipfianSampler(10, rng, exponent=0.0, scrambled=False)
        samples = sampler.sample(100_000)
        _, counts = np.unique(samples, return_counts=True)
        assert counts.std() / counts.mean() < 0.05

    def test_validation(self, rng):
        with pytest.raises(WorkloadError):
            ZipfianSampler(0, rng)
        sampler = ZipfianSampler(10, rng)
        with pytest.raises(WorkloadError):
            sampler.sample(-1)


class TestUniformWorkload:
    def test_mission_stream_shape(self):
        workload = UniformWorkload(n_records=1000, lookup_fraction=0.5, seed=1)
        missions = list(workload.missions(5, 200))
        assert len(missions) == 5
        assert all(len(m) == 200 for m in missions)

    def test_mix_matches_configuration(self):
        workload = UniformWorkload(n_records=1000, lookup_fraction=0.8, seed=1)
        mission = next(iter(workload.missions(1, 20_000)))
        assert mission.lookup_fraction == pytest.approx(0.8, abs=0.02)

    def test_deterministic_given_seed(self):
        a = next(iter(UniformWorkload(100, 0.5, seed=9).missions(1, 100)))
        b = next(iter(UniformWorkload(100, 0.5, seed=9).missions(1, 100)))
        assert (a.keys == b.keys).all()
        assert (a.kinds == b.kinds).all()

    def test_load_records_cover_space(self):
        workload = UniformWorkload(n_records=500, lookup_fraction=0.5)
        keys, values = workload.load_records()
        assert len(keys) == 500
        assert keys.tolist() == list(range(500))

    def test_zero_result_lookups_outside_records(self):
        workload = UniformWorkload(
            n_records=100, lookup_fraction=1.0, zero_result_fraction=1.0, seed=2
        )
        mission = next(iter(workload.missions(1, 500)))
        assert (mission.keys[mission.kinds == OP_LOOKUP] >= 100).all()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            UniformWorkload(0, 0.5)
        with pytest.raises(WorkloadError):
            UniformWorkload(10, 1.5)


class TestYCSBWorkload:
    def test_paper_range_mix(self):
        workload = YCSBWorkload.paper_range_mix(100)
        mission = next(iter(workload.missions(1, 4000)))
        assert mission.lookup_fraction == pytest.approx(0.5, abs=0.05)
        assert mission.n_ranges > 0

    def test_keys_are_skewed(self):
        workload = YCSBWorkload(1000, lookup_fraction=0.0, seed=3)
        mission = next(iter(workload.missions(1, 20_000)))
        _, counts = np.unique(mission.keys, return_counts=True)
        assert counts.max() > 5 * counts.mean()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            YCSBWorkload(100, 0.5, range_span=0)


class TestDynamicWorkload:
    def _dynamic(self):
        return paper_dynamic_workload(n_records=200, missions_per_session=10, seed=0)

    def test_phase_boundaries(self):
        workload = self._dynamic()
        assert workload.phase_boundaries() == [0, 10, 20, 30, 40]
        assert workload.total_missions == 50

    def test_phase_at(self):
        workload = self._dynamic()
        assert workload.phase_at(0)[0] == 0
        assert workload.phase_at(9)[0] == 0
        assert workload.phase_at(10)[0] == 1
        assert workload.phase_at(49)[0] == 4
        assert workload.phase_at(999)[0] == 4

    def test_expected_fraction_tracks_sessions(self):
        workload = self._dynamic()
        assert workload.expected_lookup_fraction(0) == pytest.approx(0.9)
        assert workload.expected_lookup_fraction(25) == pytest.approx(0.1)
        assert workload.expected_lookup_fraction(45) == pytest.approx(0.7)

    def test_mission_stream_crosses_phases(self):
        workload = self._dynamic()
        missions = list(workload.missions(50, 2000))
        early = missions[0].lookup_fraction
        middle = missions[25].lookup_fraction
        assert early > 0.8
        assert middle < 0.2

    def test_stream_replays_tail_when_over_requested(self):
        workload = self._dynamic()
        missions = list(workload.missions(60, 100))
        assert len(missions) == 60

    def test_validation(self):
        with pytest.raises(WorkloadError):
            DynamicWorkload([])
        with pytest.raises(WorkloadError):
            WorkloadPhase(UniformWorkload(10, 0.5), 0)
        with pytest.raises(WorkloadError):
            self._dynamic().phase_at(-1)
