"""Tests for the invariant linter (:mod:`repro.analysis`).

Each rule gets a *bad* fixture that must fire and a *good* fixture that
must stay silent, written into a throwaway package tree so the rules run
against exactly the code under test. Pragma suppression is exercised,
the CLI's exit-code contract too, and a final self-check asserts the real
repo is clean — the same gate CI runs.
"""

import json
import textwrap

import pytest

from repro.analysis import Analyzer, get_rules
from repro.analysis.__main__ import default_package_root, main
from repro.analysis.core import PRAGMA_FORMAT
from repro.analysis.report import render_json, render_text
from repro.errors import ConfigError


def make_pkg(tmp_path, files):
    """Write ``files`` (rel-posix-path -> source) under a package root."""
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def run_rules(tmp_path, files, rules=None):
    return Analyzer(make_pkg(tmp_path, files), get_rules(rules)).run()


def rules_fired(report):
    return sorted({f.rule for f in report.unsuppressed})


# ----------------------------------------------------------------------
# SIM-PURITY
# ----------------------------------------------------------------------

SIM_BAD = """\
    import random
    import time
    from datetime import datetime

    import numpy as np


    def stamp():
        return time.time()


    def when():
        return datetime.now()


    def roll():
        rng = np.random.default_rng()
        return rng.random() + random.random()
    """


def test_sim_purity_flags_wall_clock_injected_into_lsm(tmp_path):
    report = run_rules(tmp_path, {"lsm/hot.py": SIM_BAD}, rules=["SIM-PURITY"])
    findings = report.unsuppressed
    assert rules_fired(report) == ["SIM-PURITY"]
    messages = "\n".join(f.message for f in findings)
    assert "time.time" in messages
    assert "datetime.datetime.now" in messages
    lines = {f.line for f in findings}
    assert len(findings) >= 4  # time, datetime, unseeded rng, stdlib random
    assert all(f.module == "lsm/hot.py" for f in findings)
    assert len(lines) >= 4


def test_sim_purity_good_fixture_is_silent(tmp_path):
    good = """\
        import numpy as np


        def timed(span):
            if span is not None:
                span.lap("bloom")


        def roll(seed):
            return np.random.default_rng(seed).random()
        """
    report = run_rules(tmp_path, {"lsm/cool.py": good}, rules=["SIM-PURITY"])
    assert report.clean
    assert report.findings == []


def test_sim_purity_ignores_out_of_scope_modules(tmp_path):
    report = run_rules(tmp_path, {"bench/wall.py": SIM_BAD}, rules=["SIM-PURITY"])
    assert report.clean


def test_sim_purity_has_no_sanctioned_timer_and_no_excluded_file(tmp_path):
    owner = """\
        import time


        def perf_counter():
            return time.perf_counter()
        """
    user = """\
        from repro.lsm.readpath import perf_counter


        def timed():
            return perf_counter()
        """
    report = run_rules(
        tmp_path,
        {"lsm/readpath.py": owner, "lsm/hot.py": user},
        rules=["SIM-PURITY"],
    )
    assert sorted(f.module for f in report.unsuppressed) == [
        "lsm/hot.py", "lsm/readpath.py",
    ]


# ----------------------------------------------------------------------
# OBS-ZERO-IMPACT
# ----------------------------------------------------------------------


def test_obs_rule_flags_sim_mutation_and_rng(tmp_path):
    bad = """\
        import numpy as np


        def poke(clock, engine):
            clock.advance(3.0)
            engine.put(1, 2)
            engine.total_gets += 1


        def jitter():
            return np.random.default_rng(7)
        """
    report = run_rules(tmp_path, {"obs/spy.py": bad}, rules=["OBS-ZERO-IMPACT"])
    assert rules_fired(report) == ["OBS-ZERO-IMPACT"]
    # advance, put, counter mutation, rng — one bad construct per line
    assert len({f.line for f in report.unsuppressed}) == 4


def test_obs_rule_good_fixture_is_silent(tmp_path):
    good = """\
        def snapshot(engine):
            stats = engine.stats_snapshot()
            return {"n": len(stats), "hits": engine.cache_hits}
        """
    report = run_rules(tmp_path, {"obs/view.py": good}, rules=["OBS-ZERO-IMPACT"])
    assert report.clean


def test_obs_rule_allows_local_mutation(tmp_path):
    source = """\
        def tally(engine):
            acc = {}
            acc["gets"] = engine.gets
            acc["gets"] += 0
            return acc
        """
    report = run_rules(tmp_path, {"obs/acc.py": source}, rules=["OBS-ZERO-IMPACT"])
    assert report.clean


# ----------------------------------------------------------------------
# LOCK-ORDER
# ----------------------------------------------------------------------

LOCK_BAD = """\
    def double(a, b):
        with a.lock:
            with b.lock:
                return 1


    def manual(lane):
        lane.lock.acquire()
        try:
            return 2
        finally:
            lane.lock.release()
    """


def test_lock_order_flags_unordered_double_lane_lock(tmp_path):
    report = run_rules(tmp_path, {"serve/bad.py": LOCK_BAD}, rules=["LOCK-ORDER"])
    assert rules_fired(report) == ["LOCK-ORDER"]
    # nested second lock + explicit acquire + explicit release
    assert len(report.unsuppressed) == 3


def test_lock_order_good_fixture_is_silent(tmp_path):
    good = """\
        from repro.serve.locks import ordered_lane_locks


        def serve(lanes):
            with ordered_lane_locks(lanes) as ordered:
                return len(ordered)


        def single(lane):
            with lane.lock:
                return 1
        """
    report = run_rules(tmp_path, {"serve/good.py": good}, rules=["LOCK-ORDER"])
    assert report.clean


def test_lock_order_ignores_reacquiring_the_same_lock_name(tmp_path):
    source = """\
        def twice(lane, other):
            with lane.lock:
                pass
            with other.lock:
                pass
        """
    report = run_rules(tmp_path, {"serve/seq.py": source}, rules=["LOCK-ORDER"])
    assert report.clean


# ----------------------------------------------------------------------
# DURABLE-FSYNC
# ----------------------------------------------------------------------


def test_durable_rule_flags_unsynced_publishes(tmp_path):
    bad = """\
        import os


        def rename(a, b):
            os.rename(a, b)


        def replace_without_fsync(tmp, live):
            os.replace(tmp, live)


        def write_without_fsync(path, data):
            with open(path, "wb") as fh:
                fh.write(data)
        """
    report = run_rules(tmp_path, {"durable/pub.py": bad}, rules=["DURABLE-FSYNC"])
    assert rules_fired(report) == ["DURABLE-FSYNC"]
    assert len(report.unsuppressed) == 3


def test_durable_rule_good_fixture_is_silent(tmp_path):
    good = """\
        import os


        def publish(path, data):
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        """
    report = run_rules(tmp_path, {"durable/ok.py": good}, rules=["DURABLE-FSYNC"])
    assert report.clean


def test_durable_rule_allowlists_atomio(tmp_path):
    source = """\
        import os


        def helper(tmp, path):
            os.replace(tmp, path)
        """
    report = run_rules(
        tmp_path, {"durable/atomio.py": source}, rules=["DURABLE-FSYNC"]
    )
    assert report.clean


# ----------------------------------------------------------------------
# Pragma suppression
# ----------------------------------------------------------------------


def test_justified_inline_pragma_suppresses(tmp_path):
    source = """\
        import time


        def stamp():
            return time.time()  # repro: allow[SIM-PURITY] wall telemetry only
        """
    report = run_rules(tmp_path, {"lsm/t.py": source}, rules=["SIM-PURITY"])
    assert report.clean
    assert len(report.suppressed) == 1
    finding = report.suppressed[0]
    assert finding.suppressed_by == "pragma"
    assert "wall telemetry" in finding.justification


def test_standalone_pragma_line_covers_next_statement(tmp_path):
    source = """\
        import time


        def stamp():
            # repro: allow[SIM-PURITY] wall telemetry only
            return time.time()
        """
    report = run_rules(tmp_path, {"lsm/t.py": source}, rules=["SIM-PURITY"])
    assert report.clean
    assert report.suppressed[0].suppressed_by == "pragma"


def test_unjustified_pragma_does_not_suppress(tmp_path):
    source = """\
        import time


        def stamp():
            return time.time()  # repro: allow[SIM-PURITY]
        """
    report = run_rules(tmp_path, {"lsm/t.py": source}, rules=["SIM-PURITY"])
    assert not report.clean
    fired = rules_fired(report)
    assert "SIM-PURITY" in fired  # the violation is still live
    assert PRAGMA_FORMAT in fired  # and the bare pragma is itself flagged


def test_pragma_for_a_different_rule_does_not_suppress(tmp_path):
    source = """\
        import time


        def stamp():
            return time.time()  # repro: allow[LOCK-ORDER] wrong rule entirely
        """
    report = run_rules(tmp_path, {"lsm/t.py": source}, rules=["SIM-PURITY"])
    assert not report.clean
    assert rules_fired(report) == ["SIM-PURITY"]


# ----------------------------------------------------------------------
# Reporters + CLI
# ----------------------------------------------------------------------


def test_render_text_and_json_agree(tmp_path):
    report = run_rules(tmp_path, {"lsm/hot.py": SIM_BAD})
    text = render_text(report)
    payload = json.loads(render_json(report))
    assert "SIM-PURITY" in text
    assert payload["clean"] is False
    assert payload["counts"]["unsuppressed"] == len(report.unsuppressed)
    assert {f["rule"] for f in payload["findings"]} == {"SIM-PURITY"}


def test_unknown_rule_name_raises():
    with pytest.raises(ConfigError):
        get_rules(["NO-SUCH-RULE"])


def test_cli_exit_codes_and_artifact(tmp_path, capsys):
    dirty = make_pkg(tmp_path, {"lsm/hot.py": SIM_BAD})
    artifact = tmp_path / "findings.json"
    code = main(["--package-root", dirty, "--json", str(artifact)])
    assert code == 1
    payload = json.loads(artifact.read_text())
    assert payload["counts"]["unsuppressed"] >= 4
    capsys.readouterr()

    clean = make_pkg(tmp_path / "ok", {"lsm/fine.py": "X = 1\n"})
    assert main(["--package-root", clean]) == 0
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SIM-PURITY" in out


# ----------------------------------------------------------------------
# Repo self-check — the gate CI runs
# ----------------------------------------------------------------------


def test_repo_is_clean():
    report = Analyzer(default_package_root(), get_rules(None)).run()
    assert report.clean, render_text(report)
    # The two sanctioned wall-clock sites (Lerp's model-update timer, both
    # halves in core/lerp.py) carry justified pragmas.
    assert [f.module for f in report.suppressed] == ["core/lerp.py"] * 2
    assert all(f.suppressed_by == "pragma" for f in report.suppressed)
