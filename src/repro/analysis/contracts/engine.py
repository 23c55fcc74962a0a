"""The contracts pass driver: options, model assembly, rule execution.

:func:`analyze_contracts` mirrors :func:`repro.analysis.dataflow.engine
.analyze_dataflow`: parse the tree into one project model, run the
may-raise fixpoint, locate the declared boundaries, and hand the
resulting :class:`ContractsModel` to every registered
``contracts``-category rule. :class:`ContractOptions` names the repo's
service boundaries — which module prefixes are guarded numeric code,
which functions wrap pool workers, which function is the CLI entry —
and what each boundary is allowed to let escape.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.diagnostics import Diagnostic, LintConfig
from repro.analysis.dataflow.callgraph import (
    CallGraph,
    FunctionInfo,
    ProjectModel,
    _dotted_name,
    build_project,
)
from repro.analysis.contracts.raises import analyze_raises, canonical
from repro.analysis.passes import PassModel, run_pass


@dataclass(frozen=True)
class ContractOptions:
    """The repo's service boundaries and their allowed failure surfaces."""

    #: Module prefixes forming the guarded numeric layer: no public
    #: function here may surface a raw linear-algebra failure.
    guarded_prefixes: tuple[str, ...] = ("repro.delay", "repro.guard",
                                         "repro.circuit")
    #: The raw numeric failure types the guard layer exists to absorb.
    forbidden_numeric: tuple[str, ...] = ("numpy.linalg.LinAlgError",
                                          "FloatingPointError")
    #: Pool wrapper functions: they convert every trial exception into a
    #: ``TrialFailure`` value, so (almost) nothing may escape them.
    pool_wrappers: tuple[str, ...] = (
        "repro.runtime.pool._worker_main",
        "repro.runtime.pool._run_serial",
        "repro.runtime.pool._run_parallel",
    )
    #: Types a pool wrapper may still surface: journal/pipe I/O failures
    #: happen outside the per-trial conversion and must reach the
    #: caller rather than masquerade as trial results.
    pool_wrapper_allowed: tuple[str, ...] = ("OSError",)
    #: Worker trial functions beyond ``PoolTask(fn=...)`` detection
    #: (same convention as ``DataflowOptions.worker_entries``).
    worker_entries: tuple[str, ...] = (
        "repro.runtime.execute.run_trial",
        "repro.delay.incremental._addition_score",
        "repro.delay.incremental._upgrade_score",
    )
    #: CLI entry points: every escaping exception must be mapped to a
    #: documented exit code (i.e. only SystemExit may leave).
    cli_entries: tuple[str, ...] = ("repro.cli.main",)
    cli_allowed: tuple[str, ...] = ("SystemExit",)
    #: Decorator (bare name) marking declared boundaries.
    decorator_name: str = "boundary"
    #: Class-name substrings marking long-lived caches for the
    #: unbounded-growth rule.
    growth_class_markers: tuple[str, ...] = ("Memo", "Cache")
    #: Opt-in: treat every subscript read as a potential LookupError
    #: raiser (very noisy; off by default, per-run flag).
    intrinsic_subscripts: bool = False


@dataclass(frozen=True)
class BoundaryDecl:
    """One ``@boundary(raises=...)`` declaration, read statically."""

    qualname: str
    raises: tuple[str, ...]  # canonical exception type names
    lineno: int


class ContractsModel(PassModel):
    """Everything a contracts rule may consult, precomputed once."""

    def __init__(self, project: ProjectModel,
                 options: ContractOptions | None = None):
        super().__init__(project)
        self.options = opts = options or ContractOptions()
        self.raises = analyze_raises(
            project, self.graph, track_subscripts=opts.intrinsic_subscripts)
        self.pool_entries = tuple(sorted(
            (set(opts.worker_entries) & project.functions.keys())
            | self.graph.pool_entries))
        self.boundaries = _decorated_boundaries(project, self.graph,
                                                opts.decorator_name)

    def escapes_of(self, qualname: str):
        return self.raises.of(qualname)


def _decorated_boundaries(project: ProjectModel, graph: CallGraph,
                          decorator_name: str) -> dict[str, BoundaryDecl]:
    """Every ``@boundary(raises=...)`` declaration in the tree."""
    out: dict[str, BoundaryDecl] = {}
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        decl = _boundary_decl(fn, graph, decorator_name)
        if decl is not None:
            out[qualname] = decl
    return out


def _boundary_decl(fn: FunctionInfo, graph: CallGraph,
                   decorator_name: str) -> BoundaryDecl | None:
    for deco in fn.node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        parts = _dotted_name(deco.func)
        if parts is None or parts[-1] != decorator_name:
            continue
        raises_expr = None
        for kw in deco.keywords:
            if kw.arg == "raises":
                raises_expr = kw.value
        if raises_expr is None:
            continue
        elements = (raises_expr.elts
                    if isinstance(raises_expr, ast.Tuple)
                    else [raises_expr])
        resolve, resolve_class, resolve_external = graph._resolver(fn)
        names = []
        for element in elements:
            name_parts = _dotted_name(element)
            if name_parts is None:
                continue
            cls = resolve_class(name_parts)
            names.append(cls if cls is not None
                         else canonical(resolve_external(name_parts)))
        return BoundaryDecl(qualname=fn.qualname, raises=tuple(names),
                            lineno=fn.node.lineno)
    return None


def build_contracts_model(paths: Iterable[str | Path],
                          options: ContractOptions | None = None
                          ) -> ContractsModel:
    """Parse, build the call graph, run the may-raise fixpoint."""
    return ContractsModel(build_project(paths), options)


def analyze_contracts(paths: Iterable[str | Path] | ProjectModel,
                      config: LintConfig | None = None,
                      options: ContractOptions | None = None
                      ) -> list[Diagnostic]:
    """Run every enabled contracts rule over the tree under ``paths``
    (or over a project another pass already parsed)."""
    return run_pass("contracts", ContractsModel, paths, config, options)


# Importing the rule pack registers every contracts-* rule; it lives at
# the bottom because the rules type-annotate against ContractsModel.
from repro.analysis.contracts import rules as _rules  # noqa: E402,F401
