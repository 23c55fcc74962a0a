"""Render diagnostics as text, JSON, or SARIF.

Shared by ``repro-route lint`` (data linting) and
``python -m repro.analysis`` (source linting), so both tools speak the
same output format and the CI gate can parse either. The SARIF renderer
targets SARIF 2.1.0 so CI can upload reports to code-scanning UIs that
annotate diagnostics onto pull-request diffs.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from repro.analysis.diagnostics import Diagnostic, Severity, registry


def summarize(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    """Counts per severity, e.g. ``{"error": 1, "warning": 2, "info": 0}``."""
    counts = {str(severity): 0 for severity in Severity}
    for diag in diagnostics:
        counts[str(diag.severity)] += 1
    return counts


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """Human-readable report: one line per diagnostic plus a summary line."""
    diags = list(diagnostics)
    lines = [diag.render() for diag in diags]
    counts = summarize(diags)
    if diags:
        lines.append(f"{len(diags)} diagnostic(s): "
                     f"{counts['error']} error(s), "
                     f"{counts['warning']} warning(s), "
                     f"{counts['info']} info")
    else:
        lines.append("clean: no diagnostics")
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Machine-readable report with a ``summary`` and a ``diagnostics`` list."""
    diags = list(diagnostics)
    return json.dumps({
        "summary": summarize(diags),
        "diagnostics": [diag.to_dict() for diag in diags],
    }, indent=2)


#: Diagnostic severity → SARIF result level.
_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def render_sarif(diagnostics: Iterable[Diagnostic],
                 tool_name: str = "repro.analysis") -> str:
    """SARIF 2.1.0 report.

    ``tool.driver.rules`` carries one reporting descriptor per rule id
    that appears in the results, with summary/rationale pulled from the
    registry when the rule is registered there (ad-hoc ids like
    ``nets-malformed`` get a minimal descriptor). Results reference
    their descriptor by ``ruleIndex``.
    """
    diags = list(diagnostics)
    rule_ids = sorted({d.rule for d in diags})
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    descriptors = []
    for rule_id in rule_ids:
        descriptor: dict[str, object] = {"id": rule_id}
        if rule_id in registry:
            rule = registry.get(rule_id)
            descriptor["shortDescription"] = {"text": rule.summary}
            descriptor["fullDescription"] = {"text": rule.rationale}
            descriptor["defaultConfiguration"] = {
                "level": _SARIF_LEVELS[rule.severity]}
            descriptor["properties"] = {"category": rule.category}
        descriptors.append(descriptor)

    results = []
    for diag in diags:
        message = diag.message
        if diag.hint:
            message += f" (hint: {diag.hint})"
        result: dict[str, object] = {
            "ruleId": diag.rule,
            "ruleIndex": rule_index[diag.rule],
            "level": _SARIF_LEVELS[diag.severity],
            "message": {"text": message},
        }
        if diag.location.file is not None:
            physical: dict[str, object] = {
                "artifactLocation": {"uri": diag.location.file}}
            if diag.location.line is not None:
                physical["region"] = {"startLine": diag.location.line}
            location: dict[str, object] = {"physicalLocation": physical}
            if diag.location.obj is not None:
                location["logicalLocations"] = [
                    {"fullyQualifiedName": diag.location.obj}]
            result["locations"] = [location]
        results.append(result)

    return json.dumps({
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "rules": descriptors,
            }},
            "results": results,
        }],
    }, indent=2)


#: ``--format`` name → renderer, for both lint entry points.
RENDERERS: dict[str, Callable[[Iterable[Diagnostic]], str]] = {
    "text": render_text, "json": render_json, "sarif": render_sarif}
