#!/usr/bin/env python
"""CI crash-recovery matrix for the durable store (DESIGN.md §13).

For every fault-injection point in :mod:`repro.durable.faults`, this
script re-executes itself as a child process that writes a deterministic
operation stream into a fresh :class:`~repro.durable.store.DurableStore`
while ``REPRO_CRASH`` kills it (``os._exit(137)``) mid-I/O — mid WAL
append, inside an fsync, between an SSTable landing and its manifest
commit, halfway through a manifest record, between a compacted manifest's
durable temp file and its replace. The parent then reopens the directory
and asserts the durability contract:

* the child actually died at the injected point (exit code 137);
* recovery succeeds and ``check_invariants`` passes;
* every **acknowledged** write survives: the recovered watermark covers
  the last ``ACK`` the child printed, and store contents equal a dict
  model replaying exactly the first ``recovered_seqno`` operations of
  the stream (no missing keys, no wrong values, no resurrected deletes).

The scenario table is emitted as ``bench_reports/crash_recovery.txt``
and as a machine-readable ``crash_recovery`` benchmark record riding the
perf-trajectory gate (``scripts/bench_compare.py``): recovered-op /
manifest-record / replayed-record counts are deterministic and diffed
exactly. How long recovery takes on the host is ``perfbench``'s
``durable.recover_s``.

Usage::

    PYTHONPATH=src python scripts/crash_smoke.py            # full matrix
    PYTHONPATH=src python scripts/crash_smoke.py --scenario wal.torn:4
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import numpy as np  # noqa: E402

from repro.config import SystemConfig  # noqa: E402
from repro.durable import DurableStore, manifest  # noqa: E402
from repro.durable.faults import CRASH_EXIT_CODE  # noqa: E402

# Fixed, scale-independent workload: big enough that every injection
# point fires several times (flushes, compactions, WAL rotations and
# manifest compactions), small enough to run the whole matrix in seconds.
N_BATCHES = 40
BATCH_SIZE = 150
DELETES_EVERY = 4
DELETES_PER_ROUND = 5
KEYSPACE = 3_000
SEED = 7
#: The child's ``MANIFEST_COMPACT_EVERY``: small, so compactions happen.
MANIFEST_COMPACT_EVERY = 6

#: ``point:n`` — die on the n-th hit of each injection point. The counts
#: are chosen so each scenario dies in a *different* store state (mid
#: first flush, deep in compactions, during a manifest compaction).
SCENARIOS = (
    "wal.append:3",
    "wal.torn:4",
    "wal.sync:9",
    "commit.before:2",
    "sst.partial:3",
    "commit.mid:4",
    "manifest.edit:5",
    "manifest.torn:4",
    "manifest.swap:2",
)


def op_stream() -> List[Tuple[str, int, int]]:
    """The deterministic operation stream, one tuple per sequence number.

    Both parent and child derive it from the same RNG seed, so the parent
    can rebuild the expected contents at *any* recovered watermark by
    replaying a prefix of this list into a dict.
    """
    rng = np.random.default_rng(SEED)
    ops: List[Tuple[str, int, int]] = []
    for batch in range(N_BATCHES):
        keys = rng.integers(0, KEYSPACE, size=BATCH_SIZE)
        values = rng.integers(0, 10**6, size=BATCH_SIZE)
        ops.extend(
            ("put", int(k), int(v))
            for k, v in zip(keys.tolist(), values.tolist())
        )
        if batch % DELETES_EVERY == DELETES_EVERY - 1:
            dels = rng.integers(0, KEYSPACE, size=DELETES_PER_ROUND)
            ops.extend(("del", int(k), 0) for k in dels.tolist())
    return ops


def model_at(ops: Sequence[Tuple[str, int, int]], seqno: int) -> Dict[int, int]:
    """Expected contents after the first ``seqno`` operations."""
    model: Dict[int, int] = {}
    for op, key, value in ops[:seqno]:
        if op == "put":
            model[key] = value
        else:
            model.pop(key, None)
    return model


def run_child(data_dir: str) -> int:
    """Write the stream into ``data_dir``, printing an ``ACK <seqno>``
    line after every synced group. Run with ``REPRO_CRASH`` set, this is
    the process the matrix kills."""
    manifest.MANIFEST_COMPACT_EVERY = MANIFEST_COMPACT_EVERY
    store = DurableStore(data_dir, SystemConfig())
    rng = np.random.default_rng(SEED)
    for batch in range(N_BATCHES):
        keys = rng.integers(0, KEYSPACE, size=BATCH_SIZE)
        values = rng.integers(0, 10**6, size=BATCH_SIZE)
        store.put_batch(keys, values)
        print(f"ACK {store.acked_seqno}", flush=True)
        if batch % DELETES_EVERY == DELETES_EVERY - 1:
            dels = rng.integers(0, KEYSPACE, size=DELETES_PER_ROUND)
            for key in dels.tolist():
                store.delete(int(key))
            print(f"ACK {store.acked_seqno}", flush=True)
    store.close()
    print("DONE", flush=True)
    return 0


class ScenarioFailure(AssertionError):
    pass


def run_scenario(
    spec: str, ops: Sequence[Tuple[str, int, int]], work_dir: str
) -> Dict[str, object]:
    """Kill a child at ``spec``, recover, verify; returns the result row."""
    data_dir = os.path.join(
        work_dir, "crash_" + spec.replace(".", "_").replace(":", "_")
    )
    shutil.rmtree(data_dir, ignore_errors=True)
    env = dict(os.environ, REPRO_CRASH=spec)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", data_dir],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    acks = [
        int(line.split()[1])
        for line in child.stdout.splitlines()
        if line.startswith("ACK ")
    ]
    if child.returncode != CRASH_EXIT_CODE:
        raise ScenarioFailure(
            f"{spec}: child exited {child.returncode}, expected "
            f"{CRASH_EXIT_CODE} (injection never fired?)\n"
            f"{child.stderr[-2000:]}"
        )
    acked = max(acks) if acks else 0

    store = DurableStore(data_dir)
    try:
        report = store.last_recovery
        if report.recovered_seqno < acked:
            raise ScenarioFailure(
                f"{spec}: recovered watermark {report.recovered_seqno} "
                f"loses acknowledged writes (acked through {acked})"
            )
        model = model_at(ops, report.recovered_seqno)
        live = np.array(sorted(model), dtype=np.int64)
        missing = wrong = 0
        if len(live):
            found, values = store.get_batch(live)
            expected = np.array([model[int(k)] for k in live], dtype=np.int64)
            missing = int((~found).sum())
            wrong = int((values[found] != expected[found]).sum())
        deleted = [
            key
            for op, key, _ in ops[: report.recovered_seqno]
            if op == "del" and key not in model
        ]
        resurrected = sum(1 for key in deleted if store.get(key) is not None)
        store.check_invariants()
        if missing or wrong or resurrected:
            raise ScenarioFailure(
                f"{spec}: {missing} missing, {wrong} wrong, "
                f"{resurrected} resurrected of {len(live)} live keys"
            )
        return {
            "scenario": spec,
            "acked_seqno": acked,
            "recovered_ops": report.recovered_seqno,
            "recovered_keys": len(live),
            "wal_records_replayed": report.wal_records_replayed,
            "wal_ops_replayed": report.wal_ops_replayed,
            "wal_torn": int(report.wal_torn),
            "manifest_records": report.manifest_records,
            "runs_opened": report.runs_opened,
            "orphans_removed": report.orphans_removed,
        }
    finally:
        store.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    header = (
        f"{'scenario':<16} {'acked':>6} {'recov':>6} {'keys':>5} "
        f"{'replayed':>8} {'torn':>4} {'records':>7} {'runs':>4} "
        f"{'orphans':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['scenario']:<16} {row['acked_seqno']:>6} "
            f"{row['recovered_ops']:>6} {row['recovered_keys']:>5} "
            f"{row['wal_records_replayed']:>8} {row['wal_torn']:>4} "
            f"{row['manifest_records']:>7} {row['runs_opened']:>4} "
            f"{row['orphans_removed']:>7}"
        )
    lines.append("")
    lines.append(
        f"{len(rows)} kill-point scenarios: every acknowledged write "
        "survived (0 missing, 0 wrong, 0 resurrected)."
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash-recovery scenario matrix for the durable store."
    )
    parser.add_argument(
        "--child",
        metavar="DIR",
        help=argparse.SUPPRESS,  # internal: the process the matrix kills
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="POINT:N",
        help="run only this injection spec (repeatable; default: full matrix)",
    )
    parser.add_argument(
        "--no-report",
        action="store_true",
        help="skip bench_reports/ output (just print pass/fail)",
    )
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args.child)

    ops = op_stream()
    scenarios = tuple(args.scenario) if args.scenario else SCENARIOS
    rows: List[Dict[str, object]] = []
    work_dir = tempfile.mkdtemp(prefix="repro-crash-")
    try:
        for spec in scenarios:
            row = run_scenario(spec, ops, work_dir)
            rows.append(row)
            print(
                f"{spec:<16} ok: acked={row['acked_seqno']} "
                f"recovered={row['recovered_ops']} "
                f"replayed={row['wal_records_replayed']} "
                f"orphans={row['orphans_removed']}",
                flush=True,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not args.no_report:
        from benchmarks._common import emit_metrics, emit_report

        emit_report("crash_recovery", format_table(rows))
        payload = {
            "scenarios": {
                str(row["scenario"]).replace(".", "_").replace(":", "_x"): {
                    key: value
                    for key, value in row.items()
                    if key != "scenario"
                }
                for row in rows
            },
            "summary": {
                "n_scenarios": len(rows),
                "failures": 0,
                "total_recovered_ops": sum(
                    int(row["recovered_ops"]) for row in rows
                ),
                "total_records_replayed": sum(
                    int(row["wal_records_replayed"]) for row in rows
                ),
            },
        }
        emit_metrics("crash_recovery", payload)
    print(f"crash matrix: {len(rows)}/{len(scenarios)} scenarios recovered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
