"""AST-level lint rules enforcing repo discipline on the Python sources.

The routing library has a few conventions that a type checker cannot
express but whose violation has burned EDA codebases forever:

* coordinates are floats, so ``==``/``!=`` on them (or on Manhattan
  distances and costs) is a latent nondeterminism bug — compare against
  tolerances instead;
* :class:`~repro.geometry.net.Net` and
  :class:`~repro.geometry.point.Point` are frozen; sneaking past the
  freeze with ``object.__setattr__`` from outside the class invalidates
  hashes and every cached routing built on them;
* every algorithm module in ``core/`` must validate its routing at the
  boundary (via :mod:`repro.graph.validation` or :mod:`repro.analysis`)
  so malformed graphs fail at construction, not deep in delay code;
* mutable default arguments alias state across calls.

Run one file through :func:`lint_source` or a whole tree through
:func:`lint_source_tree` (also exposed as ``python -m repro.analysis``).
A violation can be locally waived with a ``# repro: allow=<rule-id>``
comment on the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.diagnostics import (
    Diagnostic,
    LintConfig,
    Location,
    Severity,
    registry,
    rule,
)

if TYPE_CHECKING:
    from repro.analysis.dataflow.callgraph import ProjectModel

#: Attribute names treated as plane coordinates.
COORDINATE_ATTRS = frozenset({"x", "y"})

#: Functions/methods returning geometric lengths — never compare with ==.
LENGTH_FUNCTIONS = frozenset(
    {"manhattan", "euclidean", "distance", "cost", "edge_length"})

#: Names that count as a routing-boundary validation call.
BOUNDARY_CHECKS = frozenset({
    "check_connected", "check_spanning", "check_tree",
    "lint_graph", "validate_routing",
})

#: ``core/`` modules that define no routing-producing algorithms.
BOUNDARY_EXEMPT = frozenset({"__init__.py", "result.py"})

#: Comment waiving a rule on its line: ``# repro: allow=<rule-id>``.
ALLOW_PRAGMA = "# repro: allow="

#: What a waiver's rule-id token may look like (``all`` included).
_RULE_ID_TOKEN = re.compile(r"[a-z][a-z0-9-]*")


@dataclass(frozen=True)
class ParsedSource:
    """One Python file parsed for linting.

    Waiver pragmas are consulted through :meth:`allows` (one line) or
    :meth:`allows_statement` (a whole statement's span, including the
    decorator lines of a decorated def). Every *consulted-and-matched*
    pragma is recorded in ``used_waivers`` so an audit pass can flag
    pragmas that waive nothing.
    """

    path: Path
    tree: ast.Module
    lines: tuple[str, ...]
    #: ``(lineno, rule-id-as-written)`` of every pragma that waived a
    #: diagnostic this run. Mutable bookkeeping, excluded from equality.
    used_waivers: set[tuple[int, str]] = field(
        default_factory=set, compare=False, repr=False)

    def _pragma_on(self, line: int) -> tuple[int, str] | None:
        """The ``(lineno, rule_id)`` pragma on ``line``, if any.

        Only well-formed rule-id tokens count: mentions of the pragma
        syntax inside docstrings or string literals are not pragmas.
        """
        if not 1 <= line <= len(self.lines):
            return None
        text = self.lines[line - 1]
        marker = text.find(ALLOW_PRAGMA)
        if marker < 0:
            return None
        tokens = text[marker + len(ALLOW_PRAGMA):].split()
        if not tokens or not _RULE_ID_TOKEN.fullmatch(tokens[0]):
            return None
        return (line, tokens[0])

    def waiver_lines(self) -> list[tuple[int, str]]:
        """Every pragma in the file as ``(lineno, rule-id-as-written)``."""
        found = []
        for line in range(1, len(self.lines) + 1):
            pragma = self._pragma_on(line)
            if pragma is not None:
                found.append(pragma)
        return found

    def allows(self, rule_id: str, line: int) -> bool:
        """Whether ``line`` carries an allow-pragma for ``rule_id``."""
        pragma = self._pragma_on(line)
        if pragma is None or pragma[1] not in (rule_id, "all"):
            return False
        self.used_waivers.add(pragma)
        return True

    def allows_statement(self, rule_id: str, node: ast.AST) -> bool:
        """Whether any line of ``node``'s statement waives ``rule_id``.

        The span runs from the first decorator (for decorated defs)
        through the statement's last line — but for function/class
        definitions it stops at the signature, so a pragma deep inside a
        body never waives a definition-level diagnostic.
        """
        start = getattr(node, "lineno", None)
        if start is None:
            return False
        decorators = getattr(node, "decorator_list", [])
        if decorators:
            start = min(start, decorators[0].lineno)
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and body:
            end = min(end, max(node.lineno, body[0].lineno - 1))
        return any(self.allows(rule_id, line)
                   for line in range(start, end + 1))

    def location(self, node: ast.AST) -> Location:
        return Location(file=str(self.path),
                        line=getattr(node, "lineno", None))


def _call_name(node: ast.AST) -> str | None:
    """The bare name of a called function, for ``f(...)`` and ``o.f(...)``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _is_coordinate_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in COORDINATE_ATTRS:
        return True
    return _call_name(node) in LENGTH_FUNCTIONS


@rule("source-float-eq", category="source", severity=Severity.ERROR,
      summary="== or != on coordinates or geometric lengths",
      rationale="coordinates and wirelengths are floats; exact equality "
                "depends on summation order and silently flips between "
                "platforms — compare against a tolerance instead")
def check_float_eq(source: ParsedSource) -> Iterator[Diagnostic]:
    r = registry.get("source-float-eq")
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        offender = next((o for o in operands if _is_coordinate_expr(o)), None)
        if offender is None or source.allows_statement(r.id, node):
            continue
        yield r.diagnostic(
            f"floating-point equality on {ast.unparse(offender)!r}",
            location=source.location(node),
            hint="use abs(a - b) <= tol, or math.isclose")


@rule("source-frozen-mutation", category="source", severity=Severity.ERROR,
      summary="object.__setattr__ used outside the defining class",
      rationale="Net and Point are frozen and hashable; mutating one "
                "from outside its own __post_init__ corrupts every dict "
                "or set the instance already lives in")
def check_frozen_mutation(source: ParsedSource) -> Iterator[Diagnostic]:
    r = registry.get("source-frozen-mutation")
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"):
            continue
        target = node.args[0] if node.args else None
        if isinstance(target, ast.Name) and target.id == "self":
            continue  # a class may complete its own frozen __init__
        if source.allows_statement(r.id, node):
            continue
        yield r.diagnostic(
            f"object.__setattr__ on {ast.unparse(target) if target else '?'}",
            location=source.location(node),
            hint="build a new instance instead of mutating a frozen one")


@rule("source-missing-boundary-check", category="source",
      severity=Severity.ERROR,
      summary="a core/ algorithm module performs no boundary validation",
      rationale="core algorithms must call a graph.validation or "
                "analysis check before trusting a routing, so malformed "
                "graphs fail at the boundary instead of producing a "
                "plausible-looking delay downstream")
def check_boundary_validation(source: ParsedSource) -> Iterator[Diagnostic]:
    r = registry.get("source-missing-boundary-check")
    if "core" not in source.path.parent.parts:
        return
    if (source.path.name in BOUNDARY_EXEMPT
            or source.path.name.startswith("test_")
            or source.path.name == "conftest.py"):
        return
    for node in ast.walk(source.tree):
        if _call_name(node) in BOUNDARY_CHECKS:
            return
    yield r.diagnostic(
        f"module {source.path.name} never calls any of "
        f"{', '.join(sorted(BOUNDARY_CHECKS))}",
        location=Location(file=str(source.path), line=1),
        hint="call check_spanning/check_tree (or lint_graph) on the "
             "routing the module builds or consumes")


@rule("source-mutable-default", category="source", severity=Severity.ERROR,
      summary="a function has a mutable default argument",
      rationale="list/dict/set defaults are evaluated once and shared "
                "across calls; state leaks between independent routings")
def check_mutable_default(source: ParsedSource) -> Iterator[Diagnostic]:
    r = registry.get("source-mutable-default")
    mutable = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
               ast.SetComp)
    constructors = frozenset({"list", "dict", "set"})
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            bad = (isinstance(default, mutable)
                   or _call_name(default) in constructors)
            if bad and not (source.allows(r.id, default.lineno)
                            or source.allows_statement(r.id, node)):
                yield r.diagnostic(
                    f"function {node.name!r} has mutable default "
                    f"{ast.unparse(default)!r}",
                    location=source.location(default),
                    hint="default to None and build inside the function")


@rule("source-invariant-assert", category="source", severity=Severity.ERROR,
      summary="a core/ algorithm guards a runtime invariant with assert",
      rationale="assert statements disappear under python -O, silently "
                "disabling the invariant they guard; core algorithms "
                "must raise through the guard sentinels instead so the "
                "check survives every interpreter mode")
def check_invariant_assert(source: ParsedSource) -> Iterator[Diagnostic]:
    r = registry.get("source-invariant-assert")
    if "core" not in source.path.parent.parts:
        return
    if (source.path.name.startswith("test_")
            or source.path.name == "conftest.py"):
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Assert):
            continue
        if source.allows_statement(r.id, node):
            continue
        yield r.diagnostic(
            f"runtime invariant asserted: {ast.unparse(node.test)!r}",
            location=source.location(node),
            hint="use repro.guard.sentinels.ensure(...) or "
                 "ensure_found(...) — they raise InvariantViolation in "
                 "every interpreter mode (python -O included)")


#: The waiver-audit rule id; :meth:`RuleRegistry.run` runs it *after*
#: every other rule of its pass, so the used-waiver bookkeeping is complete.
WAIVER_AUDIT_RULE = "source-unused-waiver"


@rule(WAIVER_AUDIT_RULE, category="source", severity=Severity.WARNING,
      summary="an allow-pragma waives nothing (stale or misspelled)",
      rationale="a pragma that no longer suppresses a diagnostic hides "
                "the next real violation on its line; stale waivers must "
                "be deleted, and a typo in the rule id means the "
                "intended waiver never worked at all")
def check_unused_waiver(source: ParsedSource) -> Iterator[Diagnostic]:
    r = registry.get(WAIVER_AUDIT_RULE)
    for lineno, rule_id in source.waiver_lines():
        if rule_id == "all":
            continue  # blanket waivers cannot be attributed to one rule
        location = Location(file=str(source.path), line=lineno)
        if rule_id not in registry:
            yield r.diagnostic(
                f"waiver names unknown rule {rule_id!r}",
                location=location,
                hint="check the rule id against --list-rules")
            continue
        if registry.get(rule_id).category != "source":
            continue  # audited by that rule's own pass (e.g. dataflow)
        if (lineno, rule_id) not in source.used_waivers:
            yield r.diagnostic(
                f"pragma waives {rule_id!r} but nothing on this "
                f"statement violates it",
                location=location,
                hint="delete the stale pragma (or fix the rule id)")


def parse_source(path: str | Path) -> ParsedSource | Diagnostic:
    """Parse one file; a syntax error comes back as a diagnostic."""
    file_path = Path(path)
    text = file_path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(file_path))
    except SyntaxError as exc:
        return Diagnostic(
            rule="source-syntax-error", severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
            location=Location(file=str(file_path), line=exc.lineno))
    return ParsedSource(path=file_path, tree=tree,
                        lines=tuple(text.splitlines()))


def lint_source(path: str | Path,
                config: LintConfig | None = None) -> list[Diagnostic]:
    """Run every enabled source rule against one Python file."""
    parsed = parse_source(path)
    if isinstance(parsed, Diagnostic):
        return [parsed]
    return registry.run("source", parsed, config)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files they contain."""
    for path in paths:
        p = Path(path)
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts))
        else:
            yield p


def lint_source_tree(paths: Iterable[str | Path] | ProjectModel,
                     config: LintConfig | None = None) -> list[Diagnostic]:
    """Lint every Python file under ``paths`` (files or directories), or
    every file of a project another pass already parsed."""
    # Imported here: the project model's module imports this one.
    from repro.analysis.dataflow.callgraph import ProjectModel, build_project

    project = (paths if isinstance(paths, ProjectModel)
               else build_project(paths))
    out: list[Diagnostic] = []
    for parsed in project.sources:
        if isinstance(parsed, Diagnostic):
            out.append(parsed)
        else:
            out.extend(registry.run("source", parsed, config))
    return out
