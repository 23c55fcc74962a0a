"""The determinism & concurrency rule pack.

Each rule receives the whole-program :class:`~repro.analysis.dataflow
.engine.DataflowModel` (project + call graph + effect analysis) and
yields diagnostics anchored at the *intrinsic* effect site — the line
where the nondeterminism actually enters — with a witness chain showing
how an experiment entry point reaches it. Every rule is waivable with
the standard ``# repro: allow=<rule-id>`` pragma on the flagged line;
the engine audits pragmas that waive nothing.

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
from repro.analysis.dataflow.effects import (
    CONTEXTVAR_WRITE,
    ENV_READ,
    FILESYSTEM,
    GLOBAL_WRITE,
    RNG_SEEDED,
    RNG_UNSEEDED,
    SUBPROCESS,
    WALL_CLOCK,
)

if TYPE_CHECKING:
    from repro.analysis.dataflow.engine import DataflowModel

#: RoutingGraph accessors whose value is *derived from* a fingerprint
#: component: reading them is covered as long as the fingerprint hashes
#: the component they derive from.
FINGERPRINT_DERIVED: dict[str, str] = {
    "positions": "positions",
    "position": "positions",
    "nodes": "positions",
    "num_nodes": "positions",
    "distance": "positions",
    "edge_length": "positions",
    "edge_lengths": "positions",
    "edges": "edges",
    "num_edges": "edges",
    "has_edge": "edges",
    "neighbors": "edges",
    "degree": "edges",
    "candidate_edges": "edges",
    "adjacency": "edges",
    "spans_net": "edges",
    "is_connected": "edges",
    "is_tree": "edges",
    "reachable_from": "edges",
    "rooted_parents": "edges",
    "cost": "edges",
    "with_edge": "edges",
    "num_pins": "num_pins",
    "sink_indices": "num_pins",
    "source": "num_pins",
    "is_steiner": "num_pins",
}

#: Accessors that cannot influence any delay (naming, conversion,
#: defensive copies) — exempt from the completeness cross-reference.
FINGERPRINT_EXEMPT = frozenset({"net", "copy", "to_networkx"})

#: Effects that make a delay oracle unsafe to memoize wherever they
#: appear in its transitive call graph: anything beyond the arguments
#: can change the value, or evaluating has side effects a cache would
#: silently skip.
UNCACHEABLE_EFFECTS = frozenset({
    RNG_UNSEEDED, WALL_CLOCK, SUBPROCESS, FILESYSTEM,
    GLOBAL_WRITE, CONTEXTVAR_WRITE, ENV_READ,
})

#: RNG effects that make an oracle *stateful* when a method of the class
#: itself owns them (intrinsic only): even a seeded generator advances
#: per draw, so cache hits that skip evaluation change every later draw.
#: Transitive seeded RNG is NOT counted — constructing a seeded
#: generator deep inside a helper is how deterministic code looks.
STATEFUL_RNG_EFFECTS = frozenset({RNG_UNSEEDED, RNG_SEEDED})


def _chain_text(model: "DataflowModel", parents: dict[str, str | None],
                qualname: str) -> str:
    chain = model.graph.witness_chain(parents, qualname)
    if len(chain) <= 1:
        return f"entry point {qualname}"
    return f"entry point {chain[0]} via " + " -> ".join(chain[1:])


def _in_modules(fn: FunctionInfo, prefixes: tuple[str, ...]) -> bool:
    return any(fn.module == p or fn.module.startswith(p + ".")
               for p in prefixes)


@rule("dataflow-unseeded-rng", category="dataflow", severity=Severity.ERROR,
      summary="unseeded RNG reachable from an experiment entry point",
      rationale="a draw from a hidden global stream (random.random, "
                "np.random.rand, default_rng()) makes trial outcomes "
                "depend on call order and process history, breaking "
                "resume byte-identity and serial-vs-parallel agreement")
def check_unseeded_rng(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-unseeded-rng")
    for site in model.effects.sites:
        if site.effect != RNG_UNSEEDED:
            continue
        if site.function not in model.entry_parents:
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            f"{site.detail}; reachable from "
            f"{_chain_text(model, model.entry_parents, site.function)}",
            location=Location(file=str(site.path), line=site.lineno),
            hint="thread an explicitly seeded generator "
                 "(np.random.default_rng(seed)) through the call instead")


@rule("dataflow-wall-clock", category="dataflow", severity=Severity.ERROR,
      summary="wall-clock read outside the repro.runtime timing shims",
      rationale="time.time/perf_counter values differ run to run; any "
                "path from an experiment entry point that folds them "
                "into results breaks reproducibility — only the runtime "
                "layer may measure time, into fields declared volatile")
def check_wall_clock(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-wall-clock")
    for site in model.effects.sites:
        if site.effect != WALL_CLOCK:
            continue
        if site.function not in model.entry_parents:
            continue
        fn = model.project.functions[site.function]
        if _in_modules(fn, model.options.timing_modules):
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            f"{site.detail}; reachable from "
            f"{_chain_text(model, model.entry_parents, site.function)}",
            location=Location(file=str(site.path), line=site.lineno),
            hint="measure timing in repro.runtime (whose elapsed fields "
                 "are declared volatile and excluded from byte-identity)")


@rule("dataflow-global-mutation", category="dataflow",
      severity=Severity.ERROR,
      summary="module-level state mutated on an experiment path",
      rationale="a module global mutated while trials run carries state "
                "from one trial into the next, so results depend on "
                "trial execution order — the exact property journaled "
                "resume and the memo cache assume away")
def check_global_mutation(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-global-mutation")
    for site in model.effects.sites:
        if site.effect != GLOBAL_WRITE:
            continue
        if site.function not in model.entry_parents:
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            f"{site.detail}; reachable from "
            f"{_chain_text(model, model.entry_parents, site.function)}",
            location=Location(file=str(site.path), line=site.lineno),
            hint="pass the state as an argument or keep it on an "
                 "instance owned by one trial")


@rule("dataflow-worker-shared-state", category="dataflow",
      severity=Severity.ERROR,
      summary="worker-pool trial code mutates module-level state",
      rationale="pool workers fork: a module global mutated inside a "
                "trial diverges per worker with the task schedule, so "
                "any read-back makes results depend on worker count and "
                "assignment — the race the pool's keyed aggregation "
                "cannot repair")
def check_worker_shared_state(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-worker-shared-state")
    for site in model.effects.sites:
        if site.effect != GLOBAL_WRITE:
            continue
        if site.function not in model.worker_parents:
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            f"{site.detail} inside worker-pool trial code; reachable from "
            f"{_chain_text(model, model.worker_parents, site.function)}",
            location=Location(file=str(site.path), line=site.lineno),
            hint="worker trial functions must communicate only through "
                 "their return value (the pool journals outcomes by key)")


@rule("dataflow-contextvar-write", category="dataflow",
      severity=Severity.ERROR,
      summary="ContextVar written outside a sanctioned scope manager",
      rationale="ambient context (guard policy, provenance collector) "
                "must only change inside the token-restoring scope "
                "managers; a stray .set() leaks policy across trials "
                "and across pool worker lifetimes")
def check_contextvar_write(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-contextvar-write")
    for site in model.effects.sites:
        if site.effect != CONTEXTVAR_WRITE:
            continue
        if site.function in model.options.scope_functions:
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            f"{site.detail} (outside "
            f"{', '.join(model.options.scope_functions) or 'any scope'})",
            location=Location(file=str(site.path), line=site.lineno),
            hint="wrap the write in a contextmanager that restores the "
                 "previous value via the set() token, like guard_scope")


@rule("dataflow-env-read", category="dataflow", severity=Severity.WARNING,
      summary="environment read outside the config boundary",
      rationale="os.environ consulted deep in library code makes "
                "results depend on ambient shell state that no config "
                "fingerprint captures; env reads belong in the "
                "from_env/CLI boundary where they land in fingerprinted "
                "config fields")
def check_env_read(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-env-read")
    for site in model.effects.sites:
        if site.effect != ENV_READ:
            continue
        fn = model.project.functions[site.function]
        if _in_modules(fn, model.options.env_modules):
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            site.detail,
            location=Location(file=str(site.path), line=site.lineno),
            hint="read the variable at the config boundary (from_env) so "
                 "it becomes a fingerprinted ExperimentConfig field")


@rule("dataflow-subprocess", category="dataflow", severity=Severity.ERROR,
      summary="subprocess launched outside the sandboxed simulator shim",
      rationale="subprocesses escape the trial-isolation guarantees "
                "(timeouts, crash containment, deck cleanup) unless "
                "they go through the hardened ngspice runner")
def check_subprocess(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-subprocess")
    for site in model.effects.sites:
        if site.effect != SUBPROCESS:
            continue
        fn = model.project.functions[site.function]
        if _in_modules(fn, model.options.subprocess_modules):
            continue
        if site.function not in model.entry_parents:
            continue
        if model.allows(r.id, site.path, site.lineno):
            continue
        yield r.diagnostic(
            f"{site.detail}; reachable from "
            f"{_chain_text(model, model.entry_parents, site.function)}",
            location=Location(file=str(site.path), line=site.lineno),
            hint="route external tools through repro.circuit.ngspice, "
                 "which owns timeout/cleanup/containment")


@rule("dataflow-unstable-iteration", category="dataflow",
      severity=Severity.WARNING,
      summary="set iteration feeds a numeric accumulation",
      rationale="set iteration order follows hash order, which varies "
                "with PYTHONHASHSEED and insertion history; folding it "
                "into float sums changes results at the last ulp — "
                "iterate sorted(...) instead")
def check_unstable_iteration(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-unstable-iteration")
    for qualname in sorted(model.project.functions):
        fn = model.project.functions[qualname]
        for node, detail in _unstable_iterations(fn.node):
            if model.allows(r.id, fn.path, node.lineno):
                continue
            yield r.diagnostic(
                detail,
                location=Location(file=str(fn.path), line=node.lineno),
                hint="wrap the iterable in sorted(...) so the fold "
                     "order is canonical")


def _set_valued_names(fn_node: ast.AST) -> set[str]:
    """Local names assigned a set value inside this function."""
    names: set[str] = set()
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_set_expr(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _unstable_iterations(fn_node: ast.FunctionDef | ast.AsyncFunctionDef
                         ) -> Iterator[tuple[ast.AST, str]]:
    set_names = _set_valued_names(fn_node)

    def is_set_iterable(node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names

    for node in ast.walk(fn_node):
        # sum(<set>) / fsum(<set>) — direct fold of hash order.
        if isinstance(node, ast.Call) and node.args:
            name = node.func.id if isinstance(node.func, ast.Name) else (
                node.func.attr if isinstance(node.func, ast.Attribute)
                else None)
            if name in ("sum", "fsum") and is_set_iterable(node.args[0]):
                yield node, (f"{name}() folds a set in hash order: "
                             f"{ast.unparse(node.args[0])!r}")
        # for x in <set>: ... acc += ...  — accumulation over hash order.
        elif isinstance(node, ast.For) and is_set_iterable(node.iter):
            for inner in ast.walk(node):
                if isinstance(inner, ast.AugAssign) and isinstance(
                        inner.op, (ast.Add, ast.Sub, ast.Mult)):
                    yield node, (
                        f"loop over set {ast.unparse(node.iter)!r} "
                        f"accumulates numerically (line {inner.lineno})")
                    break


@rule("dataflow-uncacheable-oracle", category="dataflow",
      severity=Severity.ERROR,
      summary="an effectful delay oracle does not opt out of the memo",
      rationale="the delay memo assumes oracles are pure functions of "
                "the graph fingerprint; a model with RNG, subprocess, "
                "clock, or stateful effects that leaves cacheable=True "
                "poisons every memoized result it ever produces")
def check_uncacheable_oracle(model: "DataflowModel") -> Iterator[Diagnostic]:
    r = registry.get("dataflow-uncacheable-oracle")
    for cls_qual in sorted(model.project.classes):
        cls = model.project.classes[cls_qual]
        if "Model" not in cls.name and not any(
                "Model" in base for base in cls.base_names):
            continue
        delays = model.project.function(f"{cls_qual}.delays")
        if delays is None:
            continue
        if cls.assigns_name("cacheable"):
            continue  # an explicit declaration, either way, is a decision
        combined: set[str] = set()
        for fn in model.project.functions.values():
            if fn.module == cls.module and fn.cls == cls.name:
                combined |= model.effects.of(fn.qualname) & UNCACHEABLE_EFFECTS
                combined |= (model.effects.intrinsic.get(fn.qualname,
                                                         frozenset())
                             & STATEFUL_RNG_EFFECTS)
        offending = sorted(combined)
        if not offending:
            continue
        if model.allows(r.id, cls.path, cls.node.lineno):
            continue
        yield r.diagnostic(
            f"oracle {cls.name} has effects ({', '.join(offending)}) but "
            f"no explicit cacheable declaration",
            location=Location(file=str(cls.path), line=cls.node.lineno,
                              obj=cls.qualname),
            hint="declare `cacheable = False` (memoize_model will then "
                 "pass it through) or make the oracle pure")


@rule("dataflow-cache-key-completeness", category="dataflow",
      severity=Severity.ERROR,
      summary="delay evaluation reads state the cache key never hashes",
      rationale="graph_fingerprint and ExperimentConfig.fingerprint_data "
                "are the identities of memoized delays and journaled "
                "runs; an attribute read by evaluation code (or a config "
                "field) missing from them lets two electrically "
                "different inputs collide on one cached value")
def check_cache_key_completeness(model: "DataflowModel"
                                 ) -> Iterator[Diagnostic]:
    r = registry.get("dataflow-cache-key-completeness")
    yield from _check_graph_fingerprint(model, r)
    yield from _check_config_fingerprint(model, r)


def _graph_accessors(fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
                     param: str) -> dict[str, int]:
    """Attribute names read off ``param`` inside ``fn_node`` → lineno."""
    out: dict[str, int] = {}
    for node in ast.walk(fn_node):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == param):
            out.setdefault(node.attr, node.lineno)
    return out


def _check_graph_fingerprint(model: "DataflowModel", r) -> Iterator[Diagnostic]:
    fingerprint = model.project.function(model.options.fingerprint_function)
    if fingerprint is None:
        return  # nothing to cross-reference in this tree (fixtures)
    args = fingerprint.node.args
    if not args.args:
        return
    graph_param = args.args[0].arg
    hashed = set(_graph_accessors(fingerprint.node, graph_param))

    for module_name in model.options.eval_modules:
        module = model.project.modules.get(module_name)
        if module is None:
            continue
        for fn in module.functions.values():
            fn_args = fn.node.args
            params = {a.arg for a in [*fn_args.posonlyargs, *fn_args.args]}
            for param in model.options.graph_params:
                if param not in params:
                    continue
                accessors = _graph_accessors(fn.node, param)
                for accessor in sorted(accessors):
                    if accessor in FINGERPRINT_EXEMPT:
                        continue
                    covered = FINGERPRINT_DERIVED.get(accessor)
                    lineno = accessors[accessor]
                    if covered is not None and covered in hashed:
                        continue
                    if model.allows(r.id, fn.path, lineno):
                        continue
                    if covered is None:
                        message = (
                            f"{fn.qualname} reads graph.{accessor}, which "
                            f"has no known derivation from any "
                            f"fingerprint component")
                        hint = ("map the accessor to the fingerprint "
                                "component it derives from in "
                                "FINGERPRINT_DERIVED, or hash it in "
                                f"{model.options.fingerprint_function}")
                    else:
                        message = (
                            f"{fn.qualname} reads graph.{accessor} "
                            f"(derived from {covered!r}), but "
                            f"{model.options.fingerprint_function} never "
                            f"hashes {covered!r}")
                        hint = (f"add {covered!r} to the fingerprint key "
                                f"or stop reading it in evaluation code")
                    yield r.diagnostic(
                        message,
                        location=Location(file=str(fn.path), line=lineno,
                                          obj=fn.qualname),
                        hint=hint)


def _check_config_fingerprint(model: "DataflowModel", r) -> Iterator[Diagnostic]:
    cls = model.project.classes.get(model.options.config_class)
    if cls is None:
        return
    method = model.project.function(
        f"{model.options.config_class}.{model.options.config_fingerprint}")
    if method is None:
        yield r.diagnostic(
            f"{model.options.config_class} has no "
            f"{model.options.config_fingerprint}() method to audit",
            location=Location(file=str(cls.path), line=cls.node.lineno,
                              obj=cls.qualname))
        return
    hashed_keys: set[str] = set()
    for node in ast.walk(method.node):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                        key.value, str):
                    hashed_keys.add(key.value)
    for stmt in cls.node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = ast.unparse(stmt.annotation)
        if annotation.startswith("ClassVar"):
            continue
        if name in hashed_keys:
            continue
        if model.allows(r.id, cls.path, stmt.lineno):
            continue
        yield r.diagnostic(
            f"config field {cls.name}.{name} is not hashed by "
            f"{model.options.config_fingerprint}() — two runs differing "
            f"only in {name!r} would share a journal",
            location=Location(file=str(cls.path), line=stmt.lineno,
                              obj=f"{cls.qualname}.{name}"),
            hint=f"add {name!r} to the dict {model.options.config_fingerprint} "
                 f"returns (or rename it with a leading underscore if it "
                 f"truly cannot affect outcomes)")


#: The dataflow waiver audit; RuleRegistry.run runs it after every other rule.
register_waiver_audit("dataflow")

