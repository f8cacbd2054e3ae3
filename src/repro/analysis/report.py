"""Reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.core import AnalysisReport, Finding

REPORT_VERSION = 1


def _render_finding(finding: Finding, show_snippet: bool = True) -> str:
    parts = [f"{finding.location()}: {finding.rule}: {finding.message}"]
    if show_snippet and finding.snippet:
        parts.append(f"    | {finding.snippet}")
    if finding.suppressed_by:
        why = f" ({finding.justification})" if finding.justification else ""
        parts.append(f"    suppressed by {finding.suppressed_by}{why}")
    return "\n".join(parts)


def render_text(report: AnalysisReport, show_suppressed: bool = False) -> str:
    """Human-readable report; one block per finding, summary last."""
    out: list[str] = []
    for error in report.errors:
        out.append(f"error: {error}")
    shown = report.findings if show_suppressed else report.unsuppressed
    for finding in shown:
        out.append(_render_finding(finding))
    counts = Counter(f.rule for f in report.unsuppressed)
    n_files = len(report.files)
    n_supp = len(report.suppressed)
    if report.clean:
        summary = (
            f"repro.analysis: clean — {n_files} files, "
            f"{len(report.rules)} rules, {n_supp} suppressed finding(s)"
        )
    else:
        by_rule = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
        summary = (
            f"repro.analysis: {len(report.unsuppressed)} unsuppressed finding(s) "
            f"[{by_rule}] in {n_files} files "
            f"({n_supp} suppressed, {len(report.errors)} error(s))"
        )
    out.append(summary)
    return "\n".join(out)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report (uploaded as a CI artifact)."""
    payload = {
        "version": REPORT_VERSION,
        "package_root": report.package_root,
        "rules": report.rules,
        "n_files": len(report.files),
        "clean": report.clean,
        "counts": {
            "unsuppressed": len(report.unsuppressed),
            "suppressed": len(report.suppressed),
            "errors": len(report.errors),
        },
        "errors": report.errors,
        "findings": [
            {
                "rule": f.rule,
                "module": f.module,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "snippet": f.snippet,
                "suppressed_by": f.suppressed_by,
                "justification": f.justification,
            }
            for f in report.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
