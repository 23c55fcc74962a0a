"""The service-readiness contracts rule pack.

Each rule receives the whole-program :class:`~repro.analysis.contracts
.engine.ContractsModel` (project + call graph + may-raise fixpoint) and
yields diagnostics anchored at the site where the contract breaks — the
``raise`` or intrinsic raiser call whose exception escapes a boundary,
the ``except`` clause that swallows, the acquisition that leaks. Every
rule is waivable with the standard ``# repro: allow=<rule-id>`` pragma
on the flagged line; the engine audits pragmas that waive nothing.

Rule ids are stable; the catalog lives in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    registry,
    rule,
)
from repro.analysis.passes import register_waiver_audit
from repro.analysis.dataflow.callgraph import FunctionInfo
from repro.analysis.contracts.lifecycle import (
    find_resource_leaks,
    find_unbounded_cache_attrs,
    find_unbounded_globals,
)

if TYPE_CHECKING:
    from repro.analysis.contracts.engine import ContractsModel


def _in_modules(fn: FunctionInfo, prefixes: tuple[str, ...]) -> bool:
    return any(fn.module == p or fn.module.startswith(p + ".")
               for p in prefixes)


def _short(type_name: str) -> str:
    return type_name.rsplit(".", 1)[-1]


@rule("contracts-exception-escape", category="contracts",
      severity=Severity.ERROR,
      summary="an exception type escapes a service boundary that must "
              "absorb it",
      rationale="the boundaries are the repo's failure contracts: the "
                "guard layer converts raw LinAlgError into "
                "NumericalIncident, the pool wrappers convert trial "
                "exceptions into TrialFailure rows, and the CLI maps "
                "everything to documented exit codes — an escaping raw "
                "exception turns a contained failure into an outage")
def check_exception_escape(model: "ContractsModel") -> Iterator[Diagnostic]:
    r = registry.get("contracts-exception-escape")
    opts = model.options
    hierarchy = model.raises.hierarchy
    reported: set[tuple[str, int, str]] = set()

    def emit(site, boundary_desc: str, hint: str):
        key = (str(site.path), site.lineno, site.exc_type)
        if key in reported:
            return None
        reported.add(key)
        if model.allows(r.id, site.path, site.lineno):
            return None
        return r.diagnostic(
            f"{_short(site.exc_type)} may escape {boundary_desc} "
            f"({site.detail}, raised in {site.function})",
            location=Location(file=str(site.path), line=site.lineno,
                              obj=site.function),
            hint=hint)

    # Guarded numeric layer: public functions must not surface raw
    # linear-algebra failures.
    for qualname in sorted(model.project.functions):
        fn = model.project.functions[qualname]
        if not _in_modules(fn, opts.guarded_prefixes) or not fn.is_public:
            continue
        for exc_type, site in sorted(model.escapes_of(qualname).items()):
            if not any(hierarchy.is_subtype(exc_type, forbidden)
                       for forbidden in opts.forbidden_numeric):
                continue
            diag = emit(site, f"guarded numeric boundary {qualname}",
                        "route the solve through repro.guard.numerics."
                        "guarded_solve (or catch and re-raise as "
                        "NumericalIncident with a system fingerprint)")
            if diag is not None:
                yield diag

    # Pool trial functions: a raw numeric failure crossing the worker
    # boundary aborts the trial with a pickled traceback instead of a
    # structured TrialFailure row.
    for qualname in model.pool_entries:
        for exc_type, site in sorted(model.escapes_of(qualname).items()):
            if not any(hierarchy.is_subtype(exc_type, forbidden)
                       for forbidden in opts.forbidden_numeric):
                continue
            diag = emit(site, f"pool trial function {qualname}",
                        "guard the numeric kernel so the worker surfaces "
                        "a NumericalIncident the runtime policy can "
                        "convert to a TrialFailure")
            if diag is not None:
                yield diag

    # Pool wrappers: everything except the allowed I/O surface must be
    # converted, not propagated.
    for qualname in opts.pool_wrappers:
        for exc_type, site in sorted(model.escapes_of(qualname).items()):
            if any(hierarchy.is_subtype(exc_type, allowed)
                   for allowed in opts.pool_wrapper_allowed):
                continue
            diag = emit(site, f"pool wrapper {qualname}",
                        "convert the exception into a TrialFailure row "
                        "(only journal/pipe OSError may propagate)")
            if diag is not None:
                yield diag

    # CLI entries: every escape must already be mapped to an exit code.
    for qualname in opts.cli_entries:
        for exc_type, site in sorted(model.escapes_of(qualname).items()):
            if any(hierarchy.is_subtype(exc_type, allowed)
                   for allowed in opts.cli_allowed):
                continue
            diag = emit(site, f"CLI entry point {qualname}",
                        "map the exception to a documented exit code in "
                        "the entry point's catch ladder")
            if diag is not None:
                yield diag


@rule("contracts-broad-catch-swallow", category="contracts",
      severity=Severity.ERROR,
      summary="an except clause silently swallows the failure",
      rationale="a handler whose body neither re-raises, logs, nor "
                "records anything erases the only evidence a failure "
                "happened; in a long-running service that is how "
                "corrupted journals and half-dead workers go unnoticed "
                "— intentional best-effort sites must carry a justified "
                "waiver")
def check_broad_catch_swallow(model: "ContractsModel") -> Iterator[Diagnostic]:
    r = registry.get("contracts-broad-catch-swallow")
    for name in sorted(model.project.modules):
        module = model.project.modules[name]
        for node in ast.walk(module.source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_silent_swallow(node.body):
                continue
            if model.allows(r.id, module.path, node.lineno):
                continue
            caught = (ast.unparse(node.type) if node.type is not None
                      else "BaseException")
            yield r.diagnostic(
                f"except {caught} swallows the exception without "
                f"re-raising, recording, or reporting it",
                location=Location(file=str(module.path), line=node.lineno),
                hint="handle it, record provenance/stderr before "
                     "suppressing, or waive with a one-line "
                     "justification if best-effort is the contract")


def _is_silent_swallow(body: list[ast.stmt]) -> bool:
    """A handler body that destroys all evidence of the exception.

    ``pass``/``continue``/``break``, bare or constant ``return``, docstring
    expressions — and ``os._exit(...)``, which kills the process without
    letting any finally/atexit reporting run.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Return):
            if stmt.value is None or isinstance(stmt.value, ast.Constant):
                continue
            return False
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Constant):
                continue
            if (isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr == "_exit"):
                continue
            return False
        return False
    return True


@rule("contracts-undeclared-raise", category="contracts",
      severity=Severity.ERROR,
      summary="a declared boundary may raise a type its contract omits",
      rationale="@boundary(raises=...) is a promise callers build their "
                "own handling on; an escaping type outside the "
                "declaration means either the declaration or the "
                "implementation is wrong, and callers find out in "
                "production")
def check_undeclared_raise(model: "ContractsModel") -> Iterator[Diagnostic]:
    r = registry.get("contracts-undeclared-raise")
    hierarchy = model.raises.hierarchy
    for qualname in sorted(model.boundaries):
        decl = model.boundaries[qualname]
        fn = model.project.functions.get(qualname)
        if fn is None:
            continue
        undeclared = []
        for exc_type, site in sorted(model.escapes_of(qualname).items()):
            if any(hierarchy.is_subtype(exc_type, declared)
                   for declared in decl.raises):
                continue
            undeclared.append((exc_type, site))
        if not undeclared:
            continue
        if model.allows(r.id, fn.path, decl.lineno):
            continue
        listing = "; ".join(
            f"{_short(t)} ({site.detail}, line {site.lineno})"
            for t, site in undeclared)
        declared = ", ".join(_short(t) for t in decl.raises)
        yield r.diagnostic(
            f"{qualname} declares raises=({declared}) but may also "
            f"raise {listing}",
            location=Location(file=str(fn.path), line=decl.lineno,
                              obj=qualname),
            hint="extend the declaration or catch-and-convert inside "
                 "the boundary")


@rule("contracts-resource-leak", category="contracts",
      severity=Severity.ERROR,
      summary="an acquired handle can reach the function exit without "
              "release",
      rationale="a file descriptor, temp file, pipe end, or child "
                "process left open on an early-return or exception path "
                "accumulates for the lifetime of a routing daemon until "
                "the fd table or process table runs out — every "
                "acquisition must reach a release on all paths (with, "
                "try/finally, or explicit close)")
def check_resource_leak(model: "ContractsModel") -> Iterator[Diagnostic]:
    r = registry.get("contracts-resource-leak")
    for qualname in sorted(model.project.functions):
        fn = model.project.functions[qualname]
        for leak in find_resource_leaks(fn.node):
            if model.allows(r.id, fn.path, leak.lineno):
                continue
            yield r.diagnostic(
                f"{leak.resource} {leak.variable!r} acquired here may "
                f"reach the exit of {qualname} without being released",
                location=Location(file=str(fn.path), line=leak.lineno,
                                  obj=qualname),
                hint="use a with-block, or release in a finally that "
                     "dominates every exit")


@rule("contracts-unbounded-growth", category="contracts",
      severity=Severity.ERROR,
      summary="a long-lived container grows without any bound",
      rationale="module globals and *Memo/*Cache instance containers "
                "outlive every request in a long-running service; one "
                "that is only ever grown is a slow memory leak — bound "
                "it (LRU eviction, deque(maxlen=...)) or scope it to "
                "the request")
def check_unbounded_growth(model: "ContractsModel") -> Iterator[Diagnostic]:
    r = registry.get("contracts-unbounded-growth")
    markers = model.options.growth_class_markers
    for name in sorted(model.project.modules):
        module = model.project.modules[name]
        tree = module.source.tree
        for site in find_unbounded_globals(tree):
            if model.allows(r.id, module.path, site.lineno):
                continue
            yield r.diagnostic(
                f"module-level container {site.owner!r} is grown (line "
                f"{site.grow_lineno}) but never shrunk or bounded",
                location=Location(file=str(module.path), line=site.lineno),
                hint="evict under a size bound like the delay memo "
                     "(popitem under a length guard) or move the state "
                     "into a request-scoped object")
        for site in find_unbounded_cache_attrs(tree, markers):
            if model.allows(r.id, module.path, site.lineno):
                continue
            yield r.diagnostic(
                f"cache attribute {site.owner} is grown (line "
                f"{site.grow_lineno}) with no eviction anywhere in the "
                f"class",
                location=Location(file=str(module.path), line=site.lineno),
                hint="add a capacity bound with LRU eviction, as "
                     "DelayMemo.put does")


#: The contracts waiver audit; RuleRegistry.run runs it after every other rule.
register_waiver_audit("contracts")
