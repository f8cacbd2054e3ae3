"""The phases of one child run: set-up, measured pass, oracle, traced pass.

Imported by :mod:`perfbench.child` *after* it has stamped the process
entry time: importing this module imports numpy and ``repro``, and that
time is part of ``setup_s``. Timed regions hold nothing but calls into the
program: inputs are materialised per segment before the clock starts and
freed after it stops, and the host calibration runs between segments.
"""

from __future__ import annotations

import os
import resource
import statistics
from time import perf_counter

import numpy as np

from perfbench import OUT, hostcal
from perfbench.tracer import ROOT_SPAN, SpanTable, SpanTracer
from perfbench.workloads import (
    FULL_SECONDS,
    FULL_SYNC_REQUESTS,
    READBACK_KEYS,
    UNIT_OPS,
    WORKLOADS,
    counters,
)


def _delta(after, before):
    return {key: after[key] - before[key] for key in after}


def _ratio(num, den):
    return num / den if den else 0.0


class Run:
    """The phases of one child run; each phase fills ``self.metrics``."""

    def __init__(self, args, import_s):
        self.args = args
        #: Process entry to "numpy, repro and the benchmark are imported".
        self.import_s = import_s
        self.metrics = {}
        self.checks = {}
        self.layer_self = {}
        self.sync_requests = 0
        self.scratch = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")

    # ------------------------------------------------------------------
    def set_up(self):
        """Child entry to first measured op. Host calibrations are taken
        at both ends and excluded from the time they normalise."""
        cal_entry = hostcal.calibrate()

        args = self.args
        import_s = self.import_s
        os.makedirs(self.scratch, exist_ok=True)
        wl = WORKLOADS[args.workload](
            args.seed, args.seconds, self.scratch
        )
        marks = [perf_counter()]
        wl.build()
        marks.append(perf_counter())
        self.model = wl.load()
        marks.append(perf_counter())
        warm = wl.take(wl.sizes.warm_units, self.model)
        self.first_units = wl.take(wl.sizes.seg_units, self.model)
        marks.append(perf_counter())
        wl.run(warm, [])
        del warm
        marks.append(perf_counter())
        self.cal_first = hostcal.calibrate()
        self.wl = wl

        build_s, load_s, inputs_s, warmup_s = (
            b - a for a, b in zip(marks, marks[1:])
        )
        raw = import_s + marks[-1] - marks[0]
        scale, = hostcal.bracket_scales([cal_entry, self.cal_first])
        self.metrics.update({
            "setup_s": raw * scale,
            "raw.setup_s": raw,
            "setup.import_s": import_s * scale,
            "setup.build_s": build_s * scale,
            "setup.load_s": load_s * scale,
            "setup.inputs_s": inputs_s * scale,
            "setup.warmup_s": warmup_s * scale,
        })

    # ------------------------------------------------------------------
    def measure(self):
        """The untraced measured pass: equal-op-count segments, one host
        calibration before each (and one after the last)."""
        wl = self.wl
        sizes = wl.sizes
        served = wl.served
        self.before = self._snapshot()
        cals = [self.cal_first]
        walls, samples_by_segment, clocks = [], [], []
        request_latency = []
        gen_s = 0.0
        units = self.first_units
        del self.first_units
        for segment in range(sizes.n_segments):
            if segment:
                started = perf_counter()
                units = wl.take(sizes.seg_units, self.model)
                gen_s += perf_counter() - started
                cals.append(hostcal.calibrate())
            samples = []
            started = perf_counter()
            wl.run(units, samples)
            walls.append(perf_counter() - started)
            samples_by_segment.append(samples)
            clocks.append(wl.engine.clock_now)
            if served:
                # Saturated request latency, exact stamps, every 8th.
                request_latency.append(np.fromiter(
                    (r.t_done - r.t_submit for chunk in units
                     for r in chunk[::8]),
                    dtype=float,
                ))
            del units
        cals.append(hostcal.calibrate())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.after = self._snapshot()
        self.segment_clocks = clocks

        scales = hostcal.bracket_scales(cals)
        self.segment_scales = scales
        self.segments = [
            {"wall_s": w, "cal_s": (a + b) / 2}
            for w, a, b in zip(walls, cals, cals[1:])
        ]
        self.norm_walls = [w * s for w, s in zip(walls, scales)]
        raw_ms = np.concatenate(
            [np.asarray(s) for s in samples_by_segment]
        ) * 1e3
        norm_ms = np.concatenate(
            [np.asarray(s) * k for s, k in zip(samples_by_segment, scales)]
        ) * 1e3
        ops = sizes.measured_units * UNIT_OPS
        delta = _delta(self.after["engine"], self.before["engine"])
        m = self.metrics
        m.update({
            "ops_per_s": ops / sum(self.norm_walls),
            "p50_ms": float(np.percentile(norm_ms, 50)),
            "p90_ms": float(np.percentile(norm_ms, 90)),
            "sim_us_per_op": delta["clock"] / ops * 1e6,
            "peak_rss_mb": peak_rss_mb,
            "raw.ops_per_s": ops / sum(walls),
            "raw.p50_ms": float(np.percentile(raw_ms, 50)),
            "raw.p90_ms": float(np.percentile(raw_ms, 90)),
            "tail.p99_ms": float(np.percentile(norm_ms, 99)),
            "tail.max_ms": float(norm_ms.max()),
            "host.cal_ms_min": min(cals) * 1e3,
            "host.cal_ms_mean": statistics.fmean(cals) * 1e3,
            "host.cal_ms_max": max(cals) * 1e3,
            "workload.gen_s": gen_s,
        })
        self._counter_metrics(delta)
        if served:
            latency_ms = np.concatenate([
                lat * k for lat, k in zip(request_latency, scales)
            ]) * 1e3
            m["serve.sat_p50_ms"] = float(np.percentile(latency_ms, 50))
            m["serve.sat_p99_ms"] = float(np.percentile(latency_ms, 99))

    def _snapshot(self):
        wl = self.wl
        snap = {"engine": counters(wl.engine)}
        if wl.served:
            server = wl.server
            snap["serve"] = {
                "completed": server.total_completed,
                "drains": sum(lane.depth_samples for lane in server.lanes),
                "windows": len(server.windows),
            }
        telemetry = getattr(wl.engine, "telemetry", None)
        if telemetry is not None:
            snap["durable"] = dict(telemetry)
        return snap

    def _counter_metrics(self, d):
        """Per-layer metrics that come from public counters: deltas over
        the measured pass, structure at its end."""
        wl = self.wl
        engine = wl.engine
        config = engine.config
        reads = d["lookups"] + d["ranges"]
        user_pages = d["updates"] * config.entry_bytes / config.page_bytes
        shape = engine.describe()
        trees = shape if shape and isinstance(shape[0], list) else [shape]
        m = self.metrics
        m.update({
            "core.policy_switches": wl.policy_switches(),
            "lsm.levels": max(len(levels) for levels in trees),
            "lsm.runs_total": sum(
                level["runs"] for levels in trees for level in levels
            ),
            "lsm.entries_stored_per_live": engine.total_entries / wl.n_records,
            "storage.pages_read_per_lookup": _ratio(
                d["random_reads"], d["lookups"]
            ),
            "storage.seq_pages_per_range": _ratio(d["seq_reads"], d["ranges"]),
            "storage.write_amp": _ratio(
                d["random_writes"] + d["seq_writes"], user_pages
            ),
            "storage.random_reads": d["random_reads"],
            "storage.seq_writes": d["seq_writes"],
            "storage.cache_hit_rate": _ratio(
                d["cache_hits"], d["cache_hits"] + d["cache_misses"]
            ),
            "cost.sim_read_us_per_lookup": _ratio(d["read_time"], reads) * 1e6,
            "cost.sim_write_us_per_update": _ratio(
                d["write_time"], d["updates"]
            ) * 1e6,
        })
        shards = getattr(engine, "shards", None)
        if shards:
            per_shard = [
                s.stats.total_lookups + s.stats.total_updates
                + s.stats.total_ranges
                for s in shards
            ]
            m["engine.shard_skew"] = max(per_shard) / statistics.fmean(per_shard)
        if wl.served:
            s = _delta(self.after["serve"], self.before["serve"])
            m.update({
                "serve.batch_size_mean": _ratio(s["completed"], s["drains"]),
                "serve.queue_depth_mean": wl.server.mean_queue_depth(),
                "serve.queue_depth_max": wl.server.max_queue_depth(),
                "serve.windows": s["windows"],
            })
        if "durable" in self.after:
            t = _delta(self.after["durable"], self.before["durable"])
            # A user byte is a byte of the int64 key and int64 value the
            # caller handed over (the 1 KiB entry is simulated, not stored).
            user_bytes = d["updates"] * 16
            m.update({
                "durable.wal_syncs": t["wal_syncs"],
                "durable.puts_per_sync": _ratio(d["updates"], t["wal_syncs"]),
                "durable.wal_bytes_per_user_byte": _ratio(
                    t["wal_bytes"], user_bytes
                ),
                "durable.sstables_written": t["sstables_written"],
                "durable.sstable_bytes_per_user_byte": _ratio(
                    t["sstable_bytes"], user_bytes
                ),
                "durable.commits": t["commits"],
                "durable.wall_wal_s": t["wall_wal_s"],
            })

    # ------------------------------------------------------------------
    def sync_phase(self):
        """One synchronous client: per-request latency without queueing."""
        wl = self.wl
        n = max(
            50,
            round(FULL_SYNC_REQUESTS * self.args.seconds
                  / FULL_SECONDS),
        )
        cal = hostcal.calibrate()
        started = perf_counter()
        latency = wl.run_sync(n, self.model)
        wall = perf_counter() - started
        scale, = hostcal.bracket_scales([cal, hostcal.calibrate()])
        latency_ms = np.asarray(latency) * scale * 1e3
        self.sync_requests = n
        self.metrics.update({
            "serve.sync_p50_ms": float(np.percentile(latency_ms, 50)),
            "serve.sync_p90_ms": float(np.percentile(latency_ms, 90)),
            "serve.sync_ops_per_s": n / (wall * scale),
        })

    # ------------------------------------------------------------------
    def finish(self):
        """Stop the program, run the epilogues and the correctness oracle:
        conservation, durable close → reopen, seeded read-back."""
        wl = self.wl
        attempted = wl.sizes.total_units * UNIT_OPS + self.sync_requests
        failed = wl.failed
        wl.close()
        if wl.served:
            # attempted = completed + failed (rejected or never completed)
            lost = attempted - wl.server.total_completed
            self.checks["conservation"] = lost == wl.failed
            failed = max(failed, lost)
        wl.epilogue(self.metrics, self.checks, self.segment_scales[-1])
        mismatches = wl.readback(self.model)
        self.checks["readback"] = mismatches == 0
        self.attempted = attempted + READBACK_KEYS
        self.failed = failed + mismatches
        self.metrics["failed_frac"] = self.failed / self.attempted

    # ------------------------------------------------------------------
    def traced_pass(self):
        """Replay the first quarter of the measured stream, same seed, on
        a freshly built instance with the span wrappers installed."""
        args = self.args
        wl = WORKLOADS[args.workload](
            args.seed, args.seconds, os.path.join(self.scratch, "traced")
        )
        os.makedirs(wl.scratch, exist_ok=True)
        wl.build()
        wl.load()
        wl.run(wl.take(wl.sizes.warm_units, None), [])
        n_segments = wl.sizes.traced_segments
        tracer = SpanTracer()
        tracer.install()
        traced_run = tracer.wrap(wl.run, ROOT_SPAN)
        try:
            cals, walls = [], []
            for segment in range(n_segments):
                units = wl.take(wl.sizes.seg_units, None)
                cals.append(hostcal.calibrate())
                tracer.segment = segment
                started = perf_counter()
                traced_run(units, [])
                walls.append(perf_counter() - started)
                del units
            cals.append(hostcal.calibrate())
            wl.close()
        finally:
            tracer.uninstall()
        if not wl.served:
            # Tracing must not move a single simulated microsecond.
            self.checks["traced_clock"] = (
                wl.engine.clock_now == self.segment_clocks[n_segments - 1]
            )
        os.makedirs(OUT, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT, f"{args.workload}.trace.jsonl"))

        scales = hostcal.bracket_scales(cals)
        wall = sum(w * s for w, s in zip(walls, scales))
        table = SpanTable(tracer.spans, scales)
        self._span_metrics(table, wall, len(wl.engine.tuning_targets()))
        untraced = sum(self.norm_walls[:n_segments])
        self.metrics.update({
            "trace.spans": table.count,
            "trace.overhead_frac": wall / untraced - 1.0,
            "trace.self_sum_frac": table.thread_self_total("MainThread") / wall,
        })
        self.layer_self = table.layer_self()

    def _span_metrics(self, t, wall, n_lanes):
        def p(name, q):
            d = t.durations(name)
            return float(np.percentile(d, q)) * 1e3 if len(d) else 0.0

        put = t.durations("lsm.put_batch")
        engine_self = sum(
            t.self_total(f"engine.{op}")
            for op in ("put_batch", "get_batch", "range_scan_batch")
        )
        busy = t.thread_root_total("kvserver-lane")
        self.metrics.update({
            "bench.driver_self_s": t.self_total(ROOT_SPAN),
            "core.runner_self_s": (
                t.self_total("core.runner") + t.self_total("core.run_mission")
            ),
            "core.tuner_step_s": t.total("core.tuner_step"),
            "core.tuner_step_p90_ms": p("core.tuner_step", 90),
            "core.tuner_share": t.total("core.tuner_step") / wall,
            "rl.update_s": t.total("rl.update"),
            "rl.updates": t.calls("rl.update"),
            "lsm.put_batch_s": t.total("lsm.put_batch"),
            "lsm.get_batch_s": t.total("lsm.get_batch"),
            "lsm.range_scan_batch_s": t.total("lsm.range_scan_batch"),
            "lsm.delete_s": t.total("lsm.delete"),
            "lsm.mission_close_s": t.total("lsm.end_mission"),
            "lsm.put_batch_calls": t.calls("lsm.put_batch"),
            "lsm.get_batch_calls": t.calls("lsm.get_batch"),
            "lsm.range_calls": t.calls("lsm.range_scan_batch"),
            "lsm.keys_per_put_call": t.mean_size("lsm.put_batch"),
            "lsm.keys_per_get_call": t.mean_size("lsm.get_batch"),
            "lsm.put_batch_p90_ms": p("lsm.put_batch", 90),
            "lsm.put_batch_max_ms": float(put.max()) * 1e3 if len(put) else 0.0,
            "engine.route_self_s": engine_self,
            "engine.route_share": engine_self / wall,
            "engine.range_merge_self_s": t.self_total("engine.range_scan_batch"),
            "serve.submit_s": t.total("serve.submit"),
            "serve.engine_busy_s": busy,
            "serve.overhead_share": (
                1.0 - busy / (n_lanes * wall) if busy else 0.0
            ),
            "serve.window_close_s": t.thread_root_total("kvserver-tuning"),
            "durable.put_self_s": t.self_total("durable.put_batch"),
        })

    # ------------------------------------------------------------------
    def result(self):
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "mode": self.args.mode,
            "correct": all(self.checks.values()) and not self.failed,
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "segments": self.segments,
            "layer_self_s": self.layer_self,
        }
