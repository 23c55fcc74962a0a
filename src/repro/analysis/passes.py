"""The code passes' shared front end: one parse, one registry, one driver.

The source, dataflow, contracts and interlock passes all run over one
:class:`~repro.analysis.dataflow.callgraph.ProjectModel`: every file is
parsed once, the call graph is built once (on first use), and every
pass reads the same :class:`~repro.analysis.source_rules.ParsedSource`
objects. This module holds what the passes share:

* :data:`PASSES`, the registry the ``--pass`` names come from, and
  :func:`run_passes`, the dispatcher behind both
  ``python -m repro.analysis`` and ``repro lint --pass``;
* :class:`PassModel`, the base of the whole-program pass models;
* :func:`register_waiver_audit`, the one audit behind every
  ``<pass>-unused-waiver`` rule;
* :func:`run_pass`, the driver behind ``analyze_dataflow``,
  ``analyze_contracts`` and ``analyze_interlock``.

It imports no engine at module level, so ``repro.cli`` can read
:data:`PASSES` without paying for the analyzers.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.analysis.diagnostics import (
    Diagnostic,
    LintConfig,
    Location,
    Rule,
    Severity,
    registry,
    sort_diagnostics,
)

if TYPE_CHECKING:
    from repro.analysis.dataflow.callgraph import ProjectModel

#: The pass registry: ``--pass`` name → ``module:function`` of its
#: analyze function, in the order ``--pass all`` runs them. Entries are
#: resolved on use, which keeps this module light to import.
PASSES: dict[str, str] = {
    "source": "repro.analysis.source_rules:lint_source_tree",
    "dataflow": "repro.analysis.dataflow.engine:analyze_dataflow",
    "contracts": "repro.analysis.contracts.engine:analyze_contracts",
    "interlock": "repro.analysis.interlock.engine:analyze_interlock",
}

AnalyzeFn = Callable[..., list[Diagnostic]]


def load_passes() -> dict[str, AnalyzeFn]:
    """Import every pass (registering its rules): name → analyze function."""
    analyzers: dict[str, AnalyzeFn] = {}
    for name, target in PASSES.items():
        module, _, function = target.partition(":")
        analyzers[name] = getattr(importlib.import_module(module), function)
    return analyzers


def run_passes(names: Iterable[str], paths: Iterable[str | Path],
               config: LintConfig) -> list[Diagnostic]:
    """Run the named passes, in order, over one parse of ``paths``.

    A syntax error is the source pass's finding; when that pass is not
    among ``names`` the errors lead the report instead, each once.
    """
    from repro.analysis.dataflow.callgraph import build_project

    names = list(names)
    analyzers = load_passes()
    project = build_project(paths)
    out: list[Diagnostic] = []
    if "source" not in names:
        out.extend(sort_diagnostics(list(project.parse_errors.values())))
    for name in names:
        out.extend(analyzers[name](project, config))
    return out


class PassModel:
    """What every whole-program rule may consult: the project and its
    call graph. Subclasses add their pass's options and fixpoints."""

    def __init__(self, project: ProjectModel):
        self.project = project
        self.graph = project.call_graph

    def allows(self, rule_id: str, path: str | Path, lineno: int) -> bool:
        """Whether an allow-pragma waives ``rule_id`` at this site."""
        module = self.project.module_at(path)
        return module is not None and module.source.allows(rule_id, lineno)


def register_waiver_audit(category: str) -> Rule:
    """Register ``<category>-unused-waiver``: pragmas of this pass's
    rules that waived nothing. :meth:`RuleRegistry.run` runs it after
    every other rule of the pass, so the used-waiver bookkeeping is
    complete when it looks."""
    rule_id = f"{category}-unused-waiver"

    def check(model: PassModel) -> Iterator[Diagnostic]:
        r = registry.get(rule_id)
        for module in model.project.modules.values():
            for lineno, waived in module.source.waiver_lines():
                if waived == "all" or waived not in registry:
                    continue  # unknown ids are the source pass's finding
                if registry.get(waived).category != category:
                    continue
                if (lineno, waived) not in module.source.used_waivers:
                    yield r.diagnostic(
                        f"pragma waives {waived!r} but nothing here "
                        f"violates it",
                        location=Location(file=str(module.path), line=lineno),
                        hint="delete the stale pragma (or fix the rule id)")

    return registry.register(Rule(
        id=rule_id, category=category, severity=Severity.WARNING,
        summary=f"{'an' if category[0] in 'aeiou' else 'a'} {category} "
                "allow-pragma waives nothing",
        rationale="a stale waiver hides the next real violation on its "
                  f"line; {category} waivers must each suppress a live "
                  "diagnostic and carry a justification",
        check=check))


def run_pass(category: str,
             model_type: Callable[[ProjectModel, Any], PassModel],
             source: Iterable[str | Path] | ProjectModel,
             config: LintConfig | None, options: Any) -> list[Diagnostic]:
    """Build one whole-program model and run every enabled rule on it.

    ``source`` is the paths to parse, or a project that is already
    parsed; the syntax errors of the latter are its parser's to report.
    """
    from repro.analysis.dataflow.callgraph import ProjectModel, build_project

    if isinstance(source, ProjectModel):
        return registry.run(category, model_type(source, options), config)
    project = build_project(source)
    out = list(project.parse_errors.values())
    out.extend(registry.run(category, model_type(project, options), config))
    return sort_diagnostics(out)
