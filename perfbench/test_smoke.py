"""Smoke test of the benchmark itself (outside tier-1 ``testpaths``).

Run by path from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It runs the suite at 1 % op counts twice (traced and untraced) and checks
the benchmark's own promises: every name in ``BENCHMARK.json`` is printed
exactly once with its unit, the offline simulated numbers repeat bit for
bit across runs and across tracing on/off, spans nest, and self times sum
back to the traced wall.
"""

import collections
import json
import os
import subprocess
import sys

import pytest

from perfbench import OUT, ROOT
from perfbench.runner import load_spec

OFFLINE = ("offline_dynamic", "offline_sharded_scan")
EXACT = ("sim_us_per_op", "storage.random_reads", "storage.seq_writes")


def perfbench(*args):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def traced():
    path = os.path.join(OUT, "smoke-traced.json")
    done = perfbench("--smoke", "--json", path)
    assert done.returncode == 0, done.stdout
    with open(path) as handle:
        return done.stdout, json.load(handle)["runs"][0]


@pytest.fixture(scope="module")
def untraced():
    path = os.path.join(OUT, "smoke-untraced.json")
    done = perfbench("--smoke", "--trace", "0", "--json", path)
    assert done.returncode == 0, done.stdout
    with open(path) as handle:
        return json.load(handle)["runs"][0]


def test_spec_names_are_unique_and_counted(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert len(spec["workloads"]) == 4
    assert len(spec["per_layer"]) <= 128
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )


def test_every_name_printed_once_with_its_unit(spec, traced):
    stdout, _ = traced
    printed = collections.Counter()
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and not line.startswith("=="):
            printed[(fields[0], fields[1], fields[3])] += 1
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key = (workload["name"], metric["name"], metric["unit"])
            assert printed[key] == 1, key


def test_runs_are_correct_and_conserve_requests(traced, untraced):
    for run in (traced[1], untraced):
        for result in run.values():
            assert result["correct"], result["checks"]
            assert result["failed"] == 0
            assert result["attempted"] >= 1


def test_offline_simulation_is_exact_across_runs_and_tracing(traced, untraced):
    for workload in OFFLINE:
        for name in EXACT:
            a = traced[1][workload]["metrics"][name]
            b = untraced[workload]["metrics"][name]
            assert a == b, (workload, name, a, b)
        assert traced[1][workload]["checks"]["traced_clock"]


def test_spans_nest_and_self_times_sum_to_the_wall(spec, traced):
    for workload in (w["name"] for w in spec["workloads"]):
        with open(os.path.join(OUT, f"{workload}.trace.jsonl")) as handle:
            spans = [json.loads(line) for line in handle]
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        for span in spans:
            assert span["t_end"] >= span["t_start"]
            if span["parent"] >= 0:
                parent = by_id[span["parent"]]
                assert parent["thread"] == span["thread"]
                assert parent["t_start"] <= span["t_start"]
                assert span["t_end"] <= parent["t_end"]
        share = traced[1][workload]["metrics"]["trace.self_sum_frac"]
        assert 0.95 <= share <= 1.05, (workload, share)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_line(spec, trace, kind):
    done = perfbench(
        "--workload", "served_durable", "--seed", "3", "--seconds", "0.25",
        "--trace", str(trace),
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
    for metric in spec[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_too_few_runs_are_unresolved_and_aa_needs_two():
    from perfbench.compare import MIN_RUNS, verdict

    few = [1.0] * (MIN_RUNS - 1)
    assert verdict(few, [2.0] * MIN_RUNS, "lower", 0.1) == "unresolved"
    assert verdict([1.0] * MIN_RUNS, [2.0] * MIN_RUNS, "lower", 0.1) == "worse"
    assert perfbench("--aa", "1", "--smoke").returncode == 2


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    command exits non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "offline_dynamic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
