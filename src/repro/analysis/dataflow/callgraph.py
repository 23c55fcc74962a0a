"""The project model and call graph the dataflow rules reason over.

A :class:`ProjectModel` is every parsed module of the tree with its
symbol tables: imports (alias → fully qualified name), functions and
methods, module-level globals, and which of those globals are
``ContextVar`` instances. A :class:`CallGraph` over that model resolves
three call shapes —

* bare calls ``f(...)`` against same-module defs and ``from`` imports;
* dotted calls ``mod.sub.f(...)`` against module import aliases;
* ``self.m(...)`` against methods of the enclosing class —

and additionally records a *reference edge* whenever a known project
function is mentioned as a value (``partial(run, ...)``, ``fn=run_trial``,
a runner passed into a sweep). Reference edges make reachability a safe
over-approximation in a codebase that passes trial runners around as
first-class values: if a function's name can flow somewhere, its
effects can too.

Thread entry points are first-class: every
``threading.Thread(target=...)`` / ``threading.Timer(...)`` spawn is
recorded as a :class:`ThreadSpawn` (and its resolved target becomes a
call edge, so effect propagation and ``reachable_from`` cover thread
bodies), and every ``signal.signal(signum, handler)`` registration is
recorded as a :class:`SignalRegistration` — resolving ``handler``
either to a project function or to a handler ``def`` nested inside the
registering function. ``spawn_pairs`` keeps the (spawner, target)
set separate so thread-aware analyses (the interlock pass) can
attribute a spawned body to its *own* thread root rather than to the
spawning thread.

Calls that resolve to nothing in the project (``np.linalg.solve``,
``time.perf_counter``) are kept as *external* calls under their fully
resolved dotted name; the effect layer pattern-matches those.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.source_rules import ParsedSource, iter_python_files, parse_source

#: Module-level constructor calls that produce immutable values — bindings
#: to these are never mutable shared state.
_IMMUTABLE_CONSTRUCTORS = frozenset({
    "frozenset", "tuple", "int", "float", "str", "bytes", "bool",
    "Fraction", "Decimal", "Path", "namedtuple", "MappingProxyType",
})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse",
    "move_to_end", "appendleft", "popleft", "extendleft",
})


def module_name_for(path: Path) -> str:
    """Dotted module name of a source file, anchored at the package root.

    ``.../src/repro/core/ldrg.py`` → ``repro.core.ldrg``. The *last*
    directory named ``repro`` anchors the package, so test fixtures laid
    out as ``tmp/src/repro/...`` resolve exactly like the real tree.
    Files outside any ``repro`` directory fall back to their stem
    (:func:`build_project` renames files whose names collide).
    """
    parts = list(path.parts)
    stem_parts = parts[:-1] + [path.stem]
    anchor = None
    for index, part in enumerate(stem_parts[:-1]):
        if part == "repro":
            anchor = index
    if anchor is None:
        return path.stem
    dotted = stem_parts[anchor:]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: Path

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass(frozen=True)
class GlobalInfo:
    """One module-level binding (a potential shared-state hazard)."""

    qualname: str
    module: str
    name: str
    lineno: int
    #: Whether the bound value is known-immutable at the binding site.
    immutable: bool
    #: Whether the binding is a ``ContextVar(...)`` instance.
    is_contextvar: bool


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: bases, methods, and class-level assigns."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: Path
    base_names: tuple[str, ...]
    #: Names assigned at class level (``cacheable = False`` and friends).
    class_assigns: dict[str, ast.expr] = field(default_factory=dict)

    def assigns_name(self, name: str) -> bool:
        return name in self.class_assigns


@dataclass
class ModuleInfo:
    """One parsed module and its symbol tables."""

    name: str
    path: Path
    source: ParsedSource
    #: local alias → fully qualified dotted target.
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    globals: dict[str, GlobalInfo] = field(default_factory=dict)


class ProjectModel:
    """Every module of the analyzed tree, addressable by dotted name."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: qualname → function, across all modules.
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.globals: dict[str, GlobalInfo] = {}
        #: every input file in argument order, as the source pass sees it:
        #: parsed, or the syntax-error diagnostic it produced.
        self.sources: list[ParsedSource | Diagnostic] = []
        #: files that failed to parse: path → syntax-error diagnostic.
        self.parse_errors: dict[Path, Diagnostic] = {}
        self._by_path: dict[Path, ModuleInfo] = {}

    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.name] = info
        self._by_path[info.path] = info
        self.functions.update(info.functions)
        self.classes.update(info.classes)
        self.globals.update(info.globals)

    @cached_property
    def call_graph(self) -> CallGraph:
        """The call graph every pass shares, built on first use."""
        return CallGraph(self)

    def module_at(self, path: str | Path) -> ModuleInfo | None:
        return self._by_path.get(Path(path))

    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def functions_in(self, module_prefix: str) -> Iterator[FunctionInfo]:
        """Functions whose module is ``module_prefix`` or nested under it."""
        for fn in self.functions.values():
            if (fn.module == module_prefix
                    or fn.module.startswith(module_prefix + ".")):
                yield fn


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_immutable_value(node: ast.expr) -> bool:
    """Whether a module-level RHS is a known-immutable value."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_immutable_value(elt) for elt in node.elts)
    if isinstance(node, (ast.UnaryOp, ast.BinOp)):
        return True  # arithmetic on constants (1.0 / 1e-6 etc.)
    if isinstance(node, ast.Call):
        name = _base_name(node.func)
        return name in _IMMUTABLE_CONSTRUCTORS
    if isinstance(node, ast.Attribute):
        return True  # e.g. Severity.ERROR — enum access
    return False


def _is_contextvar_value(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    return _base_name(node.func) == "ContextVar"


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative imports do not occur in this tree
                continue
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _module_symbols(info: ModuleInfo) -> None:
    """Populate functions, classes, and globals of one module in place."""
    module = info.name
    for node in info.source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module}.{node.name}"
            info.functions[qual] = FunctionInfo(
                qualname=qual, module=module, name=node.name, cls=None,
                node=node, path=info.path)
        elif isinstance(node, ast.ClassDef):
            cls_qual = f"{module}.{node.name}"
            assigns: dict[str, ast.expr] = {}
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{cls_qual}.{stmt.name}"
                    info.functions[qual] = FunctionInfo(
                        qualname=qual, module=module, name=stmt.name,
                        cls=node.name, node=stmt, path=info.path)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            assigns[target.id] = stmt.value
                elif (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    if stmt.value is not None:
                        assigns[stmt.target.id] = stmt.value
            info.classes[cls_qual] = ClassInfo(
                qualname=cls_qual, module=module, name=node.name, node=node,
                path=info.path,
                base_names=tuple(
                    name for base in node.bases
                    if (name := _base_name(base)) is not None),
                class_assigns=assigns)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                qual = f"{module}.{target.id}"
                info.globals[qual] = GlobalInfo(
                    qualname=qual, module=module, name=target.id,
                    lineno=node.lineno,
                    immutable=value is None or _is_immutable_value(value),
                    is_contextvar=(value is not None
                                   and _is_contextvar_value(value)))


def _module_names(files: list[Path]) -> dict[Path, str]:
    """Dotted module name of every file; distinct files never share one.

    Files that :func:`module_name_for` maps to one name (``a/util.py``
    and ``b/util.py`` outside any ``repro`` package) are each named by
    the shortest dotted suffix of their path that tells them apart, so
    no file shadows another whatever the argument order.
    """
    groups: dict[str, set[Path]] = {}
    for path in files:
        groups.setdefault(module_name_for(path), set()).add(
            Path(os.path.abspath(path)))
    renamed: dict[Path, str] = {}
    for group in groups.values():
        if len(group) > 1:
            depth = 1
            while len({p.with_suffix("").parts[-depth:]
                       for p in group}) < len(group):
                depth += 1
            renamed.update({p: ".".join(p.with_suffix("").parts[-depth:])
                            for p in group})
    return {path: renamed.get(Path(os.path.abspath(path)),
                              module_name_for(path)) for path in files}


def build_project(paths: Iterable[str | Path]) -> ProjectModel:
    """Parse every Python file under ``paths`` into a project model."""
    project = ProjectModel()
    files = list(iter_python_files(paths))
    names = _module_names(files)
    for file_path in files:
        parsed = parse_source(file_path)
        project.sources.append(parsed)
        if isinstance(parsed, ParsedSource):
            info = ModuleInfo(name=names[file_path], path=Path(file_path),
                              source=parsed)
            info.imports = _collect_imports(parsed.tree)
            _module_symbols(info)
            project.add_module(info)
        else:
            project.parse_errors[Path(file_path)] = parsed
    return project


# ---------------------------------------------------------------------------
# Call resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExternalCall:
    """A call that resolves to nothing inside the project."""

    #: fully alias-resolved dotted name (``numpy.random.default_rng``).
    name: str
    node: ast.Call
    #: whether the call site passes any positional/keyword argument.
    has_args: bool


#: Thread constructors → the keyword naming the thread body.
_THREAD_CONSTRUCTORS = {"threading.Thread": "target",
                        "threading.Timer": "function"}


@dataclass(frozen=True)
class ThreadSpawn:
    """One ``threading.Thread``/``Timer`` spawn site in the project."""

    #: qualname of the function containing the spawn.
    spawner: str
    #: resolved project qualname of the thread body (None if the target
    #: expression is not a resolvable project function).
    target: str | None
    #: whether the spawn passes ``daemon=True`` literally.
    daemon: bool
    lineno: int
    path: Path


@dataclass(frozen=True)
class SignalRegistration:
    """One ``signal.signal(signum, handler)`` registration site."""

    #: qualname of the function performing the registration.
    registrar: str
    #: resolved project qualname of the handler, if it is one.
    handler: str | None
    #: the handler ``def`` when it is nested inside the registrar
    #: (the dominant idiom: closures over ``self``).
    handler_node: ast.FunctionDef | ast.AsyncFunctionDef | None
    lineno: int
    path: Path


def _dotted_name(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        parts.reverse()
        return parts
    return None


class CallGraph:
    """Call and reference edges between project functions.

    ``edges[qualname]`` is every project function that ``qualname`` may
    invoke (called directly, or merely referenced as a value);
    ``external[qualname]`` is every unresolved call with its resolved
    dotted name, for effect pattern matching.
    """

    def __init__(self, project: ProjectModel):
        self.project = project
        self.edges: dict[str, set[str]] = {}
        self.external: dict[str, list[ExternalCall]] = {}
        self.thread_spawns: list[ThreadSpawn] = []
        self.signal_registrations: list[SignalRegistration] = []
        #: (spawner, target) pairs: the target runs on a *new* thread,
        #: so thread-aware analyses must not let the spawner inherit
        #: the target's root attribution.
        self.spawn_pairs: set[tuple[str, str]] = set()
        self._class_methods: dict[str, list[str]] = {}
        for fn in project.functions.values():
            if fn.cls is not None:
                cls_qual = f"{fn.module}.{fn.cls}"
                self._class_methods.setdefault(cls_qual, []).append(
                    fn.qualname)
        for fn in project.functions.values():
            self._analyze_function(fn)

    # -- construction --

    def _resolver(self, fn: FunctionInfo):
        module = self.project.modules[fn.module]
        functions = self.project.functions
        classes = self.project.classes

        def candidates_for(parts: list[str]) -> list[str]:
            head, rest = parts[0], parts[1:]
            candidates = []
            if head == "self" and fn.cls is not None and rest:
                candidates.append(".".join([fn.module, fn.cls, *rest]))
            target = module.imports.get(head)
            if target is not None:
                candidates.append(".".join([target, *rest]))
            candidates.append(".".join([fn.module, *parts]))
            return candidates

        def resolve(parts: list[str]) -> str | None:
            """Project qualname a dotted reference resolves to, if any."""
            for candidate in candidates_for(parts):
                if candidate in functions:
                    return candidate
            return None

        def resolve_class(parts: list[str]) -> str | None:
            """Project class a dotted reference resolves to, if any."""
            for candidate in candidates_for(parts):
                if candidate in classes:
                    return candidate
            return None

        def resolve_external(parts: list[str]) -> str:
            head, rest = parts[0], parts[1:]
            target = module.imports.get(head)
            if target is not None:
                return ".".join([target, *rest])
            return ".".join(parts)

        return resolve, resolve_class, resolve_external

    def _analyze_function(self, fn: FunctionInfo) -> None:
        resolve, resolve_class, resolve_external = self._resolver(fn)
        edges: set[str] = set()
        external: list[ExternalCall] = []

        def add_class_edges(cls_qual: str) -> None:
            # A referenced/instantiated project class links to all its
            # methods: which ones run later cannot be resolved statically,
            # so reachability assumes any of them may (safe over-approx).
            for method in self._class_methods.get(cls_qual, ()):
                if method != fn.qualname:
                    edges.add(method)

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                parts = _dotted_name(node.func)
                if parts is None:
                    continue
                target = resolve(parts)
                if target is not None and target != fn.qualname:
                    edges.add(target)
                    continue
                cls_target = resolve_class(parts)
                if cls_target is not None:
                    add_class_edges(cls_target)
                else:
                    name = resolve_external(parts)
                    external.append(ExternalCall(
                        name=name, node=node,
                        has_args=bool(node.args or node.keywords)))
                    if name in _THREAD_CONSTRUCTORS:
                        self._record_spawn(fn, node, name, resolve, edges)
                    elif name == "signal.signal" and len(node.args) >= 2:
                        self._record_signal(fn, node, resolve, edges)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                # Reference edge: a function mentioned as a value (passed
                # as a callback, stored in a task tuple) may be invoked.
                parts = _dotted_name(node)
                if parts is None:
                    continue
                target = resolve(parts)
                if target is not None and target != fn.qualname:
                    edges.add(target)
                    continue
                cls_target = resolve_class(parts)
                if cls_target is not None:
                    add_class_edges(cls_target)
        self.edges[fn.qualname] = edges
        self.external[fn.qualname] = external

    def _record_spawn(self, fn: FunctionInfo, node: ast.Call,
                      constructor: str, resolve, edges: set[str]) -> None:
        """Record one thread spawn and link its resolved body."""
        body_kwarg = _THREAD_CONSTRUCTORS[constructor]
        target_expr: ast.expr | None = None
        for kw in node.keywords:
            if kw.arg == body_kwarg:
                target_expr = kw.value
        if (target_expr is None and constructor == "threading.Timer"
                and len(node.args) >= 2):
            target_expr = node.args[1]
        daemon = any(kw.arg == "daemon"
                     and isinstance(kw.value, ast.Constant)
                     and kw.value.value is True for kw in node.keywords)
        target: str | None = None
        if target_expr is not None:
            parts = _dotted_name(target_expr)
            if parts is not None:
                target = resolve(parts)
        if target is not None and target != fn.qualname:
            edges.add(target)  # the spawned body does run
            self.spawn_pairs.add((fn.qualname, target))
        self.thread_spawns.append(ThreadSpawn(
            spawner=fn.qualname, target=target, daemon=daemon,
            lineno=node.lineno, path=fn.path))

    def _record_signal(self, fn: FunctionInfo, node: ast.Call,
                       resolve, edges: set[str]) -> None:
        """Record one signal-handler registration and link the handler."""
        handler_expr = node.args[1]
        parts = _dotted_name(handler_expr)
        handler = resolve(parts) if parts is not None else None
        handler_node: ast.FunctionDef | ast.AsyncFunctionDef | None = None
        if handler is None and isinstance(handler_expr, ast.Name):
            for inner in ast.walk(fn.node):
                if (isinstance(inner, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                        and inner is not fn.node
                        and inner.name == handler_expr.id):
                    handler_node = inner
                    break
        if handler is not None and handler != fn.qualname:
            edges.add(handler)  # the handler may run at any point
            # Like a thread body, the handler runs on its own (async)
            # entry, not as part of the registrar's execution.
            self.spawn_pairs.add((fn.qualname, handler))
        if handler is None and handler_node is None:
            # SIG_IGN/SIG_DFL, a saved-previous-handler variable, etc.
            return
        self.signal_registrations.append(SignalRegistration(
            registrar=fn.qualname, handler=handler,
            handler_node=handler_node, lineno=node.lineno, path=fn.path))

    # -- queries --

    @cached_property
    def pool_entries(self) -> frozenset[str]:
        """Worker trial functions, found at ``PoolTask(fn=...)`` sites."""
        entries: set[str] = set()
        for fn in self.project.functions.values():
            resolve, _, _ = self._resolver(fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = _dotted_name(node.func)
                if callee is None or callee[-1] != "PoolTask":
                    continue
                fn_arg: ast.expr | None = None
                for keyword in node.keywords:
                    if keyword.arg == "fn":
                        fn_arg = keyword.value
                if fn_arg is None and len(node.args) >= 2:
                    fn_arg = node.args[1]
                if fn_arg is None:
                    continue
                parts = _dotted_name(fn_arg)
                if parts is None:
                    continue
                target = resolve(parts)
                if target is not None:
                    entries.add(target)
        return frozenset(entries)

    def callees(self, qualname: str) -> set[str]:
        return self.edges.get(qualname, set())

    def reachable_from(self, roots: Iterable[str]) -> dict[str, str | None]:
        """BFS reachability: function → its BFS parent (roots map to None).

        The parent map doubles as the witness-chain source for
        diagnostics ("reachable from <entry> via a → b → c").
        """
        parents: dict[str, str | None] = {}
        frontier = [root for root in roots if root in self.edges]
        for root in frontier:
            parents[root] = None
        while frontier:
            next_frontier: list[str] = []
            for fn in frontier:
                for callee in sorted(self.edges.get(fn, ())):
                    if callee not in parents:
                        parents[callee] = fn
                        next_frontier.append(callee)
            frontier = next_frontier
        return parents

    def witness_chain(self, parents: dict[str, str | None],
                      qualname: str, limit: int = 6) -> list[str]:
        """The entry-point path to ``qualname``, root first."""
        chain: list[str] = []
        cursor: str | None = qualname
        while cursor is not None and len(chain) < 64:
            chain.append(cursor)
            cursor = parents.get(cursor)
        chain.reverse()
        if len(chain) > limit:
            chain = chain[:2] + ["..."] + chain[-(limit - 3):]
        return chain
