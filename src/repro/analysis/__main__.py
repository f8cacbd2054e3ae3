"""``python -m repro.analysis`` — run the invariant linter.

Exits non-zero on any unsuppressed finding (or analysis error), so CI
can gate on it next to ruff. Default package root is the installed
``repro`` package itself.

Examples::

    python -m repro.analysis                      # lint the repo, text report
    python -m repro.analysis --format json        # JSON to stdout
    python -m repro.analysis --json out.json      # text + JSON artifact
    python -m repro.analysis --rules SIM-PURITY,LOCK-ORDER
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.core import Analyzer
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES, get_rules


def default_package_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the repro codebase",
    )
    parser.add_argument(
        "--package-root",
        default=None,
        help="directory that is the repro package (default: the installed one)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (CI artifact)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.name}: {cls.description}")
        return 0

    package_root = args.package_root or default_package_root()
    rule_names = (
        [n.strip() for n in args.rules.split(",") if n.strip()]
        if args.rules
        else None
    )
    report = Analyzer(package_root, get_rules(rule_names)).run()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))
    if args.format == "json":
        print(render_json(report), end="")
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
