"""Child process: one workload, measured in one fresh interpreter.

``python3 -m perfbench.child --workload W --seed N --seconds S --mode M``
prints one JSON object as its last line of standard output:

* ``--mode setup``   — set up (imports, build, bulk load, first inputs,
  warm-up), report the set-up times and exit;
* ``--mode measure`` — set up, run the measured segments untraced, verify
  the outputs against the model;
* ``--mode trace``   — as ``measure``, then the synchronous client phase
  (served workloads) and a traced replay of the first quarter of the
  measured stream on a freshly built instance.
"""

from time import perf_counter

T_ENTRY = perf_counter()  # before numpy and repro are imported

import argparse
import json
import os
import shutil
import sys

from perfbench import SRC


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace"), required=True
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # base_config reads the scale tier from the environment; pin it.
    os.environ.pop("REPRO_BENCH_SCALE", None)

    from perfbench.measure import Run  # numpy + repro: part of setup_s

    run = Run(args, import_s=perf_counter() - T_ENTRY)
    try:
        run.set_up()
        if args.mode == "setup":
            run.wl.close()
            print(json.dumps({"metrics": run.metrics}))
            return 0
        run.measure()
        if args.mode == "trace" and run.wl.served:
            run.sync_phase()
        run.finish()
        if args.mode == "trace":
            run.traced_pass()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    result = run.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
