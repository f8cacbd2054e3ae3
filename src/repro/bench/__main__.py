"""Run a named experiment with checkpoint / resume support.

Example::

    python -m repro.bench dynamic --checkpoint-every 100 --resume
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.bench.experiments import NAMED_EXPERIMENTS
from repro.bench.harness import run_experiment
from repro.bench.reporting import format_summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.bench <experiment> [options]``."""
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Run a canonical experiment with optional "
        "checkpoint-every-K-missions and bit-exact --resume.",
    )
    parser.add_argument("experiment", choices=NAMED_EXPERIMENTS)
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="snapshot each system every K missions (0 disables)",
    )
    parser.add_argument(
        "--checkpoint-dir", default="checkpoints",
        help="directory for checkpoint files (default: checkpoints/)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from existing checkpoints instead of starting over",
    )
    parser.add_argument(
        "--last-n", type=int, default=None,
        help="missions to average in the summary (default: all)",
    )
    args = parser.parse_args(argv)
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if args.last_n is not None and args.last_n < 1:
        parser.error("--last-n must be >= 1")
    experiment = NAMED_EXPERIMENTS[args.experiment]()
    experiment.checkpoint_every = args.checkpoint_every
    experiment.checkpoint_dir = args.checkpoint_dir
    experiment.resume = args.resume
    results = run_experiment(experiment)
    print(format_summary(results, last_n=args.last_n, title=f"== {experiment.name} =="))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
