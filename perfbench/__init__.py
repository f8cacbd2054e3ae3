"""perfbench — the repository's one wall-clock benchmark.

End-to-end and per-layer metrics for four workloads. Wall durations are
normalised against host-speed drift (see :mod:`perfbench.hostcal`); only
what repeats within a tenth between runs of one commit is end-to-end and
bounded in ``BENCHMARK.json``, the rest is reported per-layer. The
benchmark drives the program only through its public entry points and
edits nothing under ``src/``; see ``perfbench/README.md``.

Importing this package imports neither numpy nor ``repro``: the child
process times those imports as part of ``setup_s``.
"""

import os

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program under test; the benchmark refuses to run without it.
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (traces, results, the durable data directory).
OUT = os.path.join(ROOT, "perfbench", "out")
