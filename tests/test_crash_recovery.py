"""Kill -9 the durable store at every fault-injection point; recover.

Each case re-runs ``scripts/crash_smoke.py``'s child workload in a
subprocess with ``REPRO_CRASH=<point>:<n>`` armed, asserts the process
actually died at the injected I/O boundary (exit code 137), then reopens
the directory and checks the durability contract: the recovered store's
contents equal a dict model of exactly the operations the recovered
watermark covers, the watermark covers every acknowledged write, and
``check_invariants`` (tree structure + manifest/disk agreement) passes.

The CI ``crash-recovery`` job runs the same matrix standalone (with a
report artifact) via ``scripts/crash_smoke.py``; keeping the suite in
tier-1 as well means a broken recovery path can never land even when the
benchmark jobs are skipped.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent / "scripts" / "crash_smoke.py"
)
_spec = importlib.util.spec_from_file_location("crash_smoke", _SCRIPT)
crash_smoke = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("crash_smoke", crash_smoke)
_spec.loader.exec_module(crash_smoke)


@pytest.fixture(scope="module")
def op_stream():
    return crash_smoke.op_stream()


@pytest.mark.parametrize("spec", crash_smoke.SCENARIOS)
def test_crash_point_recovers(spec, op_stream, tmp_path):
    row = crash_smoke.run_scenario(spec, op_stream, str(tmp_path))
    # run_scenario raises ScenarioFailure on any broken contract; the row
    # is the evidence that the child died *after* acknowledging work.
    assert row["recovered_ops"] >= row["acked_seqno"]
    assert row["recovered_keys"] > 0


def test_injection_spec_parsing(monkeypatch):
    from repro.durable import faults

    monkeypatch.setenv("REPRO_CRASH", "wal.append:3, manifest.swap:1")
    faults.reset_counts()
    armed = faults._armed()
    assert armed == {"wal.append": 3, "manifest.swap": 1}
    assert faults._armed() is armed  # parsed once per value of the variable
    # Re-arming within the process takes effect at the next hit.
    monkeypatch.setenv("REPRO_CRASH", "wal.sync:2")
    faults.reset_counts()
    assert [faults.crash_hit("wal.sync") for _ in range(3)] == [False, True, False]
    monkeypatch.delenv("REPRO_CRASH")
    faults.reset_counts()
    assert faults._armed() == {}
    # Unarmed points never fire.
    assert not faults.crash_hit("wal.append")


def test_crash_exit_code_is_distinct():
    # 137 mirrors SIGKILL's shell convention — distinguishable from both
    # clean exits and Python tracebacks (exit 1) in CI logs.
    assert crash_smoke.CRASH_EXIT_CODE == 137
