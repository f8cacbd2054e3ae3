#!/usr/bin/env python
"""Where the ``lsm`` layer's peak memory comes from, per call site.

Runs the ``offline_dynamic`` shape of ``perfbench/`` (200k records bulk-loaded,
the paper's five-session dynamic workload, one FLSM-tree tuned by Lerp, cache
off) and prints, for each of the three places that allocate in proportion to a
level — the compaction merge (``merge_sorted_sources`` as ``lsm/tree.py`` calls
it), the stacked point-lookup index (``LevelLookupIndex``: keys, ranks and
positions, 13 B per unique key and no value) and run construction
(``LSMTree._new_run``: the Bloom filter) — the call with the largest *transient*:
``tracemalloc`` peak inside the call minus what was live when it was entered,
beside that live size and the call's input entries. A compaction frees the
index of every level it rewrites before it merges, so a merge's live size
holds no index it is about to make stale. ``--rss`` runs the same
missions untraced and prints ``ru_maxrss`` after the load and after each
segment instead (``tracemalloc`` itself costs resident memory, so the two
cannot share a process); that is the number ``perfbench`` gates as
``peak_rss_mb``, minus its own driver.
Usage: ``PYTHONPATH=src python scripts/profile_memory.py [--rss] [--missions N]``
"""

import argparse
import itertools
import resource
import tracemalloc

import repro.lsm.tree as tree_module
from repro import RusKey
from repro.bench.experiments import base_config, bench_lerp_config
from repro.lsm.level import LevelLookupIndex
from repro.workload import paper_dynamic_workload

MIB = 1024 * 1024
#: site -> (transient bytes, live bytes at entry, input entries) of every call.
CALLS: dict[str, list[tuple[int, int, int]]] = {}


def traced(owner, attr: str, site: str, n_entries) -> None:
    inner, calls = getattr(owner, attr), CALLS.setdefault(site, [])

    def wrapper(*args, **kwargs):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = inner(*args, **kwargs)
        calls.append((tracemalloc.get_traced_memory()[1] - live, live, n_entries(*args)))
        return result

    setattr(owner, attr, wrapper)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--missions", type=int, default=1_000, help="2,000 ops each")
    parser.add_argument("--segments", type=int, default=10)
    parser.add_argument("--rss", action="store_true", help="untraced; ru_maxrss per segment")
    args = parser.parse_args()
    spec = paper_dynamic_workload(200_000, -(-args.missions // 5), seed=17)
    store = RusKey(base_config(seed=0), lerp_config=bench_lerp_config(args.missions, seed=0))
    if not args.rss:
        # The three sites never nest, so each owns the peak between its
        # reset and its read.
        traced(tree_module, "merge_sorted_sources", "merge_sorted_sources",
               lambda key_arrays, *_: sum(map(len, key_arrays)))
        traced(LevelLookupIndex, "__init__", "LevelLookupIndex",
               lambda _self, runs: sum(run.n_entries for run in runs))
        traced(tree_module.LSMTree, "_new_run", "_new_run",
               lambda _self, _level, keys, *_: len(keys))
        tracemalloc.start()
    store.engine.bulk_load(*spec.load_records())
    missions = spec.missions(args.missions, 2_000)
    per_segment = -(-args.missions // args.segments)
    rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    for _ in range(args.segments):
        for mission in itertools.islice(missions, per_segment):
            store.run_mission(mission)
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    entries = store.engine.total_entries
    print(f"{args.missions} missions of 2,000 ops, {entries} entries stored at the end")
    if args.rss:
        print("ru_maxrss MiB after load, then per segment:", " ".join(f"{x:.1f}" for x in rss))
        return
    print(f"{'call site':<22}{'calls':>7}{'largest transient':>19}{'live at entry':>15}"
          f"{'input entries':>15}{'B/entry':>9}")
    for site, calls in CALLS.items():
        transient, live, n = max(calls)
        print(f"{site:<22}{len(calls):>7}{transient / MIB:>15.1f} MiB{live / MIB:>11.1f} MiB"
              f"{n:>15}{transient / max(n, 1):>9.1f}")


if __name__ == "__main__":
    main()
