"""Tests for the benchmark harness (repro.bench)."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.bench import (
    Experiment,
    SystemSpec,
    base_config,
    bench_lerp_config,
    bench_scale,
    dynamic_workload_experiment,
    format_latency_series,
    format_per_level_latency,
    format_policy_trace,
    format_ranking_table,
    format_summary,
    format_transfer_report,
    run_experiment,
    run_system,
    run_warmstart_transfer,
    session_bounds,
    session_rankings,
    standard_systems,
    static_workload_experiment,
    transfer_schedule,
    ycsb_experiment,
)
from repro.bench.experiments import NAMED_EXPERIMENTS, serving_scale
from repro.bench.harness import SeriesResult
from repro.bench.__main__ import main as bench_main
from repro.config import BloomScheme, SystemConfig
from repro.core.tuners import StaticTuner
from repro.errors import ConfigError, WorkloadError
from repro.lsm.stats import MissionStats
from repro.workload.uniform import UniformWorkload


def tiny_experiment(n_missions=6, systems=None):
    config = SystemConfig(write_buffer_bytes=16 * 1024, seed=3)
    workload = UniformWorkload(1500, lookup_fraction=0.5, seed=9)
    return Experiment(
        name="tiny",
        workload=workload,
        n_missions=n_missions,
        mission_size=150,
        base_config=config,
        chunk_size=32,
        systems=systems
        or [
            SystemSpec("K=1", lambda config: StaticTuner(1), 1),
            SystemSpec("K=10", lambda config: StaticTuner(10), 10),
        ],
    )


class TestHarness:
    def test_run_system_collects_series(self):
        experiment = tiny_experiment()
        result = run_system(experiment, experiment.systems[0])
        assert result.system == "K=1"
        assert len(result.missions) == 6
        assert result.latencies.shape == (6,)
        assert (result.latencies > 0).all()
        assert len(result.policy_history) == 6

    def test_run_experiment_all_systems(self):
        results = run_experiment(tiny_experiment())
        assert set(results) == {"K=1", "K=10"}

    def test_initial_policy_respected(self):
        experiment = tiny_experiment()
        result = run_system(experiment, experiment.systems[1])
        assert all(k == 10 for k in result.policy_history[0])

    def test_empty_systems_rejected(self):
        experiment = tiny_experiment(systems=[])
        experiment.systems = []
        with pytest.raises(WorkloadError):
            run_experiment(experiment)

    def test_experiment_validation(self):
        with pytest.raises(WorkloadError):
            tiny_experiment(n_missions=0)

    @staticmethod
    def _mission(latency):
        return MissionStats(
            index=0, n_lookups=10, read_time=latency * 10, write_time=0.0
        )

    def test_mean_latency_refuses_nonpositive_last_n(self):
        missions = [self._mission(v) for v in (0.001, 0.002, 0.003)]
        result = SeriesResult("x", missions, [[1]] * 3)
        assert result.mean_latency(last_n=2) == pytest.approx(0.0025)
        for last_n in (0, -1):
            with pytest.raises(ConfigError):
                result.mean_latency(last_n=last_n)

    def test_session_rankings(self):
        def series(values):
            missions = [self._mission(v) for v in values]
            return SeriesResult("x", missions, [[1]] * len(values))

        results = {
            "a": series([0.1] * 10),
            "b": series([0.2] * 5 + [0.05] * 5),
        }
        ranks = session_rankings(results, [0, 5, 10])
        assert ranks["a"] == [1, 2]
        assert ranks["b"] == [2, 1]

    def test_session_rankings_validation(self):
        with pytest.raises(WorkloadError):
            session_rankings({}, [0])

    def test_series_read_write_split(self):
        experiment = tiny_experiment()
        result = run_system(experiment, experiment.systems[0])
        reads = [m.read_time for m in result.missions]
        writes = [m.write_time for m in result.missions]
        assert min(reads) >= 0 and min(writes) >= 0
        assert result.total_time() == pytest.approx(sum(reads) + sum(writes))

    def test_twin_runs_are_equal_records_and_byte_equal_reports(self):
        """Results are a pure function of (config, seed): no field of a
        mission record and no column of the summary follows the host."""

        def run():
            return run_experiment(
                tiny_experiment(
                    systems=[
                        SystemSpec("K=10", lambda config: StaticTuner(10), 10),
                        SystemSpec(
                            "RusKey", lambda config: None, 1,
                            lerp_config=bench_lerp_config(6),
                        ),
                        SystemSpec(
                            "K=1 x4", lambda config: StaticTuner(1), 1,
                            n_shards=4,
                        ),
                    ]
                )
            )

        first, second = run(), run()
        assert format_summary(first, title="t") == format_summary(second, title="t")
        for name in first:
            assert first[name].missions == second[name].missions


class TestExperimentConfigs:
    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        assert bench_scale().name == "quick"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
        with pytest.raises(ConfigError):
            bench_scale()

    @pytest.mark.parametrize(
        "scale, field, value",
        [
            ("bench", "n_records", 0),
            ("bench", "mission_size", -1),
            ("serving", "rate", float("nan")),
            ("serving", "window_ops", -1),
        ],
    )
    def test_scales_refuse_out_of_domain_values(self, scale, field, value):
        row = bench_scale() if scale == "bench" else serving_scale()
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(row, **{field: value})
        # window_ops == 0 (no tuning loop) sits on its domain's edge.
        assert dataclasses.replace(serving_scale(), window_ops=0).window_ops == 0

    def test_base_config_scheme_bits(self):
        assert base_config(BloomScheme.UNIFORM).bits_per_key == 8.0
        assert base_config(BloomScheme.MONKEY).bits_per_key == 4.0

    def test_bench_lerp_config_scales_decay(self):
        short = bench_lerp_config(100)
        long = bench_lerp_config(2000)
        assert short.ddpg.noise_decay < long.ddpg.noise_decay
        short.validate()
        long.validate()

    def test_standard_systems_names(self):
        systems = standard_systems(100)
        names = [s.name for s in systems]
        assert names == ["RusKey", "K=1 (Aggressive)", "K=5 (Moderate)", "K=10 (Lazy)"]
        with_ll = standard_systems(100, include_lazy_leveling=True)
        assert with_ll[-1].name == "Lazy-Leveling"

    def test_static_experiment_shapes(self):
        experiment = static_workload_experiment("balanced")
        assert experiment.name == "fig6-balanced"
        assert experiment.workload.lookup_fraction == 0.5
        monkey = static_workload_experiment("balanced", BloomScheme.MONKEY)
        assert monkey.name == "fig8-balanced"
        assert any("Lazy-Leveling" in s.name for s in monkey.systems)

    def test_static_experiment_rejects_unknown_mix(self):
        with pytest.raises(ConfigError):
            static_workload_experiment("mixed-up")

    def test_dynamic_experiment_sessions(self):
        experiment = dynamic_workload_experiment()
        bounds = session_bounds(experiment.workload)
        assert len(bounds) == 6
        assert bounds[-1] == experiment.n_missions

    def test_dynamic_greedy_variant(self):
        experiment = dynamic_workload_experiment(include_greedy=True)
        names = [s.name for s in experiment.systems]
        assert names[0] == "RusKey"
        assert sum("Greedy" in n for n in names) == 6

    def test_ycsb_panels(self):
        for panel in ("read-heavy", "write-heavy", "balanced", "range"):
            experiment = ycsb_experiment(panel)
            assert experiment.name == f"fig11-{panel}"
        with pytest.raises(ConfigError):
            ycsb_experiment("nope")

    def test_named_experiments_table_drives_the_cli(self, capsys):
        names = {build().name for build in NAMED_EXPERIMENTS.values()}
        assert len(names) == len(NAMED_EXPERIMENTS)  # one experiment per name
        assert "fig7-dynamic" in names and "fig11-range" in names
        with pytest.raises(SystemExit):
            bench_main(["static:mixed-up"])
        error = capsys.readouterr().err
        assert all(repr(name) in error for name in NAMED_EXPERIMENTS)
        with pytest.raises(SystemExit):
            bench_main(["dynamic", "--last-n", "0"])
        assert "--last-n must be >= 1" in capsys.readouterr().err

    def test_cli_module_runs_once(self):
        """``python -m repro.bench`` imports no module that then runs
        again as ``__main__`` (that import prints a RuntimeWarning)."""
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.bench", "--help"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestWarmStartTransfer:
    def test_warm_run_continues_the_pretrained_tuner(self):
        scale = dataclasses.replace(
            bench_scale(),
            write_buffer_bytes=16 * 1024,
            n_records=2_000,
            mission_size=100,
            session_missions=12,
        )
        result = run_warmstart_transfer(scale=scale)
        n = result.n_transfer_missions
        assert n == transfer_schedule(scale).total_missions == 24
        # Both transfer runs cover the whole schedule.
        assert len(result.warm.missions) == len(result.cold.missions) == n
        assert len(result.pretrain.missions) == 36
        tuners = result.tuners
        assert len({id(tuner) for tuner in tuners.values()}) == 3
        assert tuners["pretrain"].missions_observed == 36
        assert tuners["cold-start"].missions_observed == n
        # Copied from the pretrained tuner, not built fresh: its count of
        # observed missions continues the pretrained one's.
        assert tuners["warm-start"].missions_observed == 36 + n
        assert tuners["warm-start"]._levels.keys() >= tuners["pretrain"]._levels.keys()
        assert "tuner restarts" in format_transfer_report(result, transfer_schedule(scale))


class TestReporting:
    def _results(self):
        missions = [
            MissionStats(index=i, n_lookups=10, read_time=0.1) for i in range(4)
        ]
        return {"sys": SeriesResult("sys", missions, [[1, 2]] * 4)}

    def test_format_latency_series(self):
        text = format_latency_series(self._results(), every=2, title="t")
        assert "t" in text
        assert "sys" in text
        assert "mission" in text

    def test_format_policy_trace(self):
        text = format_policy_trace(self._results()["sys"], every=2)
        assert "[1, 2]" in text

    def test_format_summary_sorted(self):
        missions_fast = [MissionStats(index=0, n_lookups=10, read_time=0.01)]
        missions_slow = [MissionStats(index=0, n_lookups=10, read_time=1.0)]
        results = {
            "slow": SeriesResult("slow", missions_slow, [[1]]),
            "fast": SeriesResult("fast", missions_fast, [[1]]),
        }
        text = format_summary(results)
        assert text.index("fast") < text.index("slow")

    def test_format_ranking_table(self):
        text = format_ranking_table(
            {"a": [1, 2], "b": [2, 1]}, ["s1", "s2"], title="ranks"
        )
        assert "avg rank" in text
        assert "1.5" in text

    def test_format_per_level_latency(self):
        text = format_per_level_latency({"sys": {1: 0.5, 2: 1.0}})
        assert "L" in text and "sys" in text


class TestBenchCompare:
    """One-tier trajectory diff in scripts/bench_compare.py: every column
    is simulated, so any drift or dropped leaf hard-fails."""

    @pytest.fixture(scope="class")
    def bench_compare(self):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "scripts"
            / "bench_compare.py"
        )
        spec = importlib.util.spec_from_file_location("bench_compare", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _snapshot(benchmarks, scale="quick"):
        return {"schema": 1, "scale": scale, "benchmarks": benchmarks}

    def test_identical_passes(self, bench_compare, capsys):
        snap = self._snapshot({"b": {"sim_total_s": 1.25, "n_operations": 9}})
        assert bench_compare.compare(snap, snap) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert "0 failure(s), 0 missing" in summary
        assert "warn" not in summary

    def test_simulated_drift_fails(self, bench_compare, capsys):
        base = self._snapshot({"b": {"sim_total_s": 1.0}})
        pr = self._snapshot({"b": {"sim_total_s": 1.0001}})
        assert bench_compare.compare(pr, base) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_drifted_operation_count_fails(self, bench_compare, capsys):
        # "ratio" is a substring of "n_operations": the old substring hint
        # table compared every exact operation count warn-only.
        base = self._snapshot({"b": {"systems": {"x": {"n_operations": 1000}}}})
        pr = self._snapshot({"b": {"systems": {"x": {"n_operations": 1001}}}})
        assert bench_compare.compare(pr, base) == 1
        assert "FAIL: b:systems.x.n_operations" in capsys.readouterr().out

    @pytest.mark.parametrize("leaf", ["ops_per_second", "speedup", "p99_ms"])
    def test_no_column_name_is_exempt(self, bench_compare, capsys, leaf):
        base = self._snapshot({"b": {leaf: 100.0}})
        assert bench_compare.compare(self._snapshot({"b": {leaf: 10.0}}), base) == 1
        assert bench_compare.compare(self._snapshot({"b": {}}), base) == 1
        assert "warn" not in capsys.readouterr().out

    def test_simulated_float_print_noise_tolerated(self, bench_compare):
        base = self._snapshot({"b": {"sim_total_s": 1.0}})
        pr = self._snapshot({"b": {"sim_total_s": 1.0 + 1e-12}})
        assert bench_compare.compare(pr, base) == 0

    def test_dropped_leaf_fails(self, bench_compare, capsys):
        base = self._snapshot({"b": {"sim_total_s": 1.0, "n_missions": 5}})
        pr = self._snapshot({"b": {"n_missions": 5}})
        assert bench_compare.compare(pr, base) == 1
        assert "dropped" in capsys.readouterr().out

    def test_threshold_flag_is_gone(self, bench_compare, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_compare.main(["--pr", "x.json", "--threshold", "0.25"])
        assert excinfo.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_missing_benchmark_still_fails(self, bench_compare):
        base = self._snapshot({"a": {"sim_total_s": 1.0}, "b": {"x": 1.0}})
        pr = self._snapshot({"a": {"sim_total_s": 1.0}})
        assert bench_compare.compare(pr, base) == 1

    def test_scale_mismatch_skips_numbers(self, bench_compare):
        base = self._snapshot({"b": {"sim_total_s": 1.0}}, scale="default")
        pr = self._snapshot({"b": {"sim_total_s": 99.0}}, scale="quick")
        assert bench_compare.compare(pr, base) == 0
