"""Benchmark-suite configuration."""

import os
import sys

# Make the sibling _common helpers and the test-side reference
# implementations (tests/reference_range.py, tests/reference_get.py,
# tests/reference_put.py) importable when pytest is run from the
# repository root.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "tests"))
sys.path.insert(0, _HERE)


def pytest_report_header(config):
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    return f"repro benchmarks: REPRO_BENCH_SCALE={scale}"
