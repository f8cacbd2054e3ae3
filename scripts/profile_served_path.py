#!/usr/bin/env python
"""Where a served request's CPU goes, per thread role.

Runs a short closed-loop load through ``KVServer`` (the ``served_mem_s4`` shape:
sharded, cached, split write buffer; gets and puts) and prints CPU seconds per
request for the producer (build the ``Request`` block, ``submit``), the lanes'
own Python (``_serve_batch`` minus its engine calls), the engine and, inside it,
the block cache (``access_batch`` under reads, ``invalidate_run`` under flushes).

Every timer is ``time.thread_time`` read on the thread that does the work. A
wall-clock timer or profiler cannot be read here: producer, lanes and tuner
share the GIL, so wall time inside a function is mostly time another thread
held the interpreter, and it lands on whichever call released the GIL last.
The timers cost ~0.2 us a call; a row includes the rows indented under it.
Usage: ``PYTHONPATH=src python scripts/profile_served_path.py --shards 4``
"""

import argparse
from time import thread_time

from repro.bench.experiments import base_config
from repro.engine.sharded import ShardedStore
from repro.lsm.tree import LSMTree
from repro.serve import KVServer, requests_from_mission
from repro.storage.cache import LRUBlockCache
from repro.workload import paper_dynamic_workload

#: row -> CPU seconds of each call (appends are atomic; a shared sum is not).
CPU: dict[str, list[float]] = {}


def timed(owner, attr: str, row: str) -> None:
    inner, calls = getattr(owner, attr), CPU.setdefault(row, [])

    def wrapper(*args, **kwargs):
        started = thread_time()
        result = inner(*args, **kwargs)
        calls.append(thread_time() - started)
        return result

    setattr(owner, attr, wrapper)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--missions", type=int, default=40, help="2,000 requests each")
    args = parser.parse_args()
    config = base_config(seed=17).with_updates(block_cache_pages=4_096)
    config = config.with_updates(write_buffer_bytes=config.write_buffer_bytes // args.shards)
    spec = paper_dynamic_workload(50_000, -(-args.missions // 5), seed=17)
    store = ShardedStore(config, args.shards)
    store.bulk_load(*spec.load_records())
    timed(KVServer, "_serve_batch", "lane: _serve_batch")
    for attr in ("get_batch", "put_batch"):
        timed(LSMTree, attr, f"  engine {attr}")
    for attr in ("access_batch", "invalidate_run"):
        timed(LRUBlockCache, attr, f"    cache {attr}")
    build = submit = 0.0
    with KVServer(store) as server:
        for mission in spec.missions(args.missions, 2_000):
            started = thread_time()
            block = list(requests_from_mission(mission))
            built = thread_time()
            for request in block:
                server.submit(request, 30.0)
            submit += thread_time() - built
            build += built - started
    rows = {"producer: build block": build, "producer: submit": submit}
    rows.update({row: sum(calls) for row, calls in CPU.items()})
    engine = sum(cpu for row, cpu in rows.items() if row.startswith("  engine"))
    rows["lane: own Python (_serve_batch - engine)"] = rows["lane: _serve_batch"] - engine
    n_requests = args.missions * 2_000
    print(f"{n_requests} requests, {args.shards} lanes, CPU by thread_time:")
    for row, cpu in rows.items():
        print(f"{row:<42} {cpu:8.3f} s {cpu / n_requests * 1e6:8.3f} us/req")


if __name__ == "__main__":
    main()
