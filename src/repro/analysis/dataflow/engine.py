"""The dataflow pass driver: options, model assembly, rule execution.

:func:`analyze_dataflow` is the whole-program counterpart to
:func:`repro.analysis.source_rules.lint_source`: it parses every file
under the given paths into one :class:`~repro.analysis.dataflow
.callgraph.ProjectModel`, runs effect inference, computes reachability
from the experiment entry points and from the worker-pool trial
functions, and hands the resulting :class:`DataflowModel` to every
registered ``dataflow``-category rule.

:class:`DataflowOptions` carries the project conventions the rules
check against — which modules are entry points, where wall-clock reads
are sanctioned, which functions are the blessed ContextVar scope
managers, and which function/class pair defines the cache identity. The
defaults describe this repository; tests override them to point at
fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, LintConfig
from repro.analysis.dataflow.callgraph import ProjectModel, build_project
from repro.analysis.dataflow.effects import EFFECTS, analyze_effects
from repro.analysis.passes import PassModel, run_pass


@dataclass(frozen=True)
class DataflowOptions:
    """Project conventions the dataflow rules check against."""

    #: Modules whose public module-level functions are determinism entry
    #: points: everything reachable from them must be replayable.
    entry_prefixes: tuple[str, ...] = ("repro.core", "repro.experiments")
    #: Worker-pool trial functions (in addition to every function found
    #: at a ``PoolTask(fn=...)`` construction site). The incremental
    #: scorers are listed explicitly because they reach the pool through
    #: a local variable the resolver cannot follow.
    worker_entries: tuple[str, ...] = (
        "repro.runtime.execute.run_trial",
        "repro.delay.incremental._addition_score",
        "repro.delay.incremental._upgrade_score",
    )
    #: Modules allowed to read the wall clock (the timing shims that
    #: land measurements in declared-volatile fields).
    timing_modules: tuple[str, ...] = ("repro.runtime", "repro.service")
    #: The only functions allowed to write ContextVars — the
    #: token-restoring scope managers.
    scope_functions: tuple[str, ...] = (
        "repro.guard.policy.guard_scope",
        "repro.runtime.provenance.collecting",
    )
    #: Modules forming the config boundary where env reads are expected.
    env_modules: tuple[str, ...] = ("repro.experiments.harness",
                                    "repro.cli")
    #: Modules allowed to launch subprocesses (the hardened simulator
    #: runner and the daemon supervisor's spawn loop).
    subprocess_modules: tuple[str, ...] = ("repro.circuit.ngspice",
                                           "repro.service.supervisor")
    #: The function whose body defines the delay-cache identity.
    fingerprint_function: str = "repro.delay.incremental.graph_fingerprint"
    #: Modules whose graph reads must be covered by the fingerprint.
    eval_modules: tuple[str, ...] = (
        "repro.delay.rc_builder",
        "repro.delay.elmore_graph",
        "repro.delay.incremental",
        "repro.delay.multinet",
    )
    #: Parameter names under which routing graphs flow into eval code.
    graph_params: tuple[str, ...] = ("graph",)
    #: The experiment config dataclass and its fingerprint method.
    config_class: str = "repro.experiments.harness.ExperimentConfig"
    config_fingerprint: str = "fingerprint_data"


class DataflowModel(PassModel):
    """Everything a dataflow rule may consult, precomputed once."""

    def __init__(self, project: ProjectModel,
                 options: DataflowOptions | None = None):
        super().__init__(project)
        self.options = opts = options or DataflowOptions()
        self.effects = analyze_effects(project, self.graph)
        self.entry_roots = tuple(sorted(discover_entries(project, opts)))
        self.worker_roots = tuple(sorted(
            set(opts.worker_entries) | self.graph.pool_entries))
        #: function → BFS parent, for everything entry-reachable.
        self.entry_parents = self.graph.reachable_from(self.entry_roots)
        #: function → BFS parent, for everything worker-reachable.
        self.worker_parents = self.graph.reachable_from(self.worker_roots)


def discover_entries(project: ProjectModel,
                     options: DataflowOptions) -> set[str]:
    """Public module-level functions under the entry prefixes."""
    entries: set[str] = set()
    for prefix in options.entry_prefixes:
        for fn in project.functions_in(prefix):
            if fn.is_public and not fn.is_method:
                entries.add(fn.qualname)
    return entries


def build_dataflow_model(paths: Iterable[str | Path],
                         options: DataflowOptions | None = None
                         ) -> DataflowModel:
    """Parse, build the call graph, infer effects, compute reachability."""
    return DataflowModel(build_project(paths), options)


def analyze_dataflow(paths: Iterable[str | Path] | ProjectModel,
                     config: LintConfig | None = None,
                     options: DataflowOptions | None = None
                     ) -> list[Diagnostic]:
    """Run every enabled dataflow rule over the tree under ``paths``
    (or over a project another pass already parsed)."""
    return run_pass("dataflow", DataflowModel, paths, config, options)


def purity_report(model: DataflowModel,
                  qualnames: Iterable[str] | None = None) -> str:
    """A plain-text effects table, one line per function.

    With no explicit ``qualnames``, reports the entry points. The smoke
    scripts embed this in their output so a determinism regression comes
    with the analyzer's view of where the nondeterminism entered.
    """
    names = sorted(qualnames if qualnames is not None else model.entry_roots)
    width = max((len(n) for n in names), default=0)
    lines = []
    for name in names:
        effects = model.effects.of(name)
        shown = [e for e in EFFECTS if e in effects]
        lines.append(f"{name:<{width}}  "
                     + (", ".join(shown) if shown else "pure"))
    return "\n".join(lines)


# Importing the rule pack registers every dataflow-* rule; it lives at
# the bottom because the rules type-annotate against DataflowModel.
from repro.analysis.dataflow import rules as _rules  # noqa: E402,F401
