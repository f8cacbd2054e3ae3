"""Run a named experiment and print its summary.

Example::

    python -m repro.bench dynamic --last-n 100
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.bench.experiments import NAMED_EXPERIMENTS
from repro.bench.harness import run_experiment
from repro.bench.reporting import format_summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.bench <experiment> [--last-n N]``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Run a canonical experiment and print its summary.",
    )
    parser.add_argument("experiment", choices=NAMED_EXPERIMENTS)
    parser.add_argument(
        "--last-n", type=int, default=None,
        help="missions to average in the summary (default: all)",
    )
    args = parser.parse_args(argv)
    if args.last_n is not None and args.last_n < 1:
        parser.error("--last-n must be >= 1")
    experiment = NAMED_EXPERIMENTS[args.experiment]()
    results = run_experiment(experiment)
    print(format_summary(results, last_n=args.last_n, title=f"== {experiment.name} =="))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
