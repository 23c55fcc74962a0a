"""In-memory span recorder for the traced run, wrapped around ``repro``
from outside.

:func:`install` replaces each boundary function listed in :data:`TARGETS`
with a wrapper that records one span per call: ``(id, name, start, end,
parent id, request id, nested)``. Module-level functions are replaced in
every loaded ``repro`` module that bound them by name; methods are
replaced on their class. The program's own code is not edited.

A span's parent is the innermost open span on the same thread. The
request id is set by the boundaries that know it (a parsed frame, a
request taken off the admission queue, a trial's net) and inherited by
everything the thread does until the next one. Counts (cache hits,
candidates, integration steps, queue waits) are timestamped events.
:func:`dump` writes spans and events when the process ends;
:func:`aggregate` turns a dump into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

_SPANS: list[tuple] = []
_EVENTS: list[tuple[float, str, float]] = []
_OFFERED: dict[int, float] = {}
_IDS = itertools.count()
_LOCAL = threading.local()


def _state() -> threading.local:
    if not hasattr(_LOCAL, "stack"):
        _LOCAL.stack = []
        _LOCAL.active = Counter()
        _LOCAL.rid = None
    return _LOCAL


def count(name: str, amount: float = 1) -> None:
    """Record a timestamped count (list.append is atomic in CPython)."""
    _EVENTS.append((time.perf_counter(), name, amount))


def _traced(name: str | Callable[..., str], fn: Callable,
            before: Callable | None = None,
            after: Callable | None = None) -> Callable:
    """Wrap ``fn`` so each call records a span named ``name``.

    ``name`` may be a function of the call's arguments (for boundaries
    whose layer depends on them). ``before(args, kwargs, state)`` and
    ``after(args, kwargs, result, state)`` run outside the timed
    interval, for request ids and counts.
    """
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        st = _state()
        label = name(args, kwargs) if callable(name) else name
        if before is not None:
            before(args, kwargs, st)
        sid = next(_IDS)
        parent = st.stack[-1] if st.stack else None
        nested = st.active[label] > 0
        st.stack.append(sid)
        st.active[label] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.stack.pop()
            st.active[label] -= 1
            _SPANS.append((sid, label, start, end, parent, st.rid, nested))
        if after is not None:
            after(args, kwargs, result, st)
        return result
    return wrapper


# -- request ids and counts ------------------------------------------------

def _rid_from_request(args, kwargs, st) -> None:
    request = args[0] if args else None
    if getattr(request, "id", None) is not None:
        st.rid = request.id


def _rid_from_parsed(args, kwargs, result, st) -> None:
    if getattr(result, "id", None) is not None:
        st.rid = result.id


_TRIAL_SEQ = itertools.count()


def _rid_from_trial(args, kwargs, st) -> None:
    net = args[1] if len(args) > 1 else kwargs.get("net")
    st.rid = f"trial{next(_TRIAL_SEQ)}:{getattr(net, 'name', '?')}"


def _offer(args, kwargs, st) -> None:
    _OFFERED[id(args[1])] = time.perf_counter()


def _take(args, kwargs, result, st) -> None:
    if result is None:
        return
    offered = _OFFERED.pop(id(result), None)
    if offered is not None:
        count("service.admission.queue_wait_ms",
              (time.perf_counter() - offered) * 1000.0)
    request = getattr(result, "request", None)
    if getattr(request, "id", None) is not None:
        st.rid = request.id


def _cache_lookup(args, kwargs, result, st) -> None:
    count("runtime.journal.cache.lookups")
    if result is not None:
        count("runtime.journal.cache.hits")


def _memo_get(args, kwargs, result, st) -> None:
    count("delay.memo.lookups")
    if result is not None:
        count("delay.memo.hits")


def _candidates(args, kwargs, result, st) -> None:
    if st.active["core.greedy"] > 0:
        count("core.greedy.iterations")
        count("core.greedy.candidates", len(result))


def _transient_steps(args, kwargs, st) -> None:
    steps = args[2] if len(args) > 2 else kwargs.get("num_steps", 1000)
    count("circuit.transient.steps", int(steps))


def _factorized(args, kwargs, result, st) -> None:
    count("guard.factorizations")
    if getattr(args[0], "regularized", False):
        count("guard.regularized")


def _spice_name(args, kwargs) -> str:
    options = args[2] if len(args) > 2 else kwargs.get("options")
    engine = getattr(options, "engine", None) or "analytic"
    return f"delay.spice.{engine}"


#: (module, attribute path, span name, before hook, after hook).
TARGETS: tuple[tuple[str, str, Any, Any, Any], ...] = (
    ("repro.service.protocol", "parse_frame", "service.protocol.parse",
     None, _rid_from_parsed),
    ("repro.service.protocol", "encode_frame", "service.protocol.encode",
     None, None),
    ("repro.service.session", "request_fingerprint",
     "service.session.fingerprint", _rid_from_request, None),
    ("repro.service.session", "route_outcome", "service.session.route",
     _rid_from_request, None),
    ("repro.service.wal", "RequestWAL.admit", "service.wal.admit", None, None),
    ("repro.service.wal", "RequestWAL.done", "service.wal.done", None, None),
    ("repro.service.admission", "AdmissionQueue.offer",
     "service.admission.offer", _offer, None),
    ("repro.service.admission", "AdmissionQueue.take",
     "service.admission.take", None, _take),
    ("repro.runtime.journal", "ResultCache.lookup_cached",
     "runtime.journal.cache.lookup", None, _cache_lookup),
    ("repro.runtime.journal", "ResultCache.store",
     "runtime.journal.cache.store", None, None),
    ("repro.runtime.execute", "run_trial", "runtime.trial",
     _rid_from_trial, None),
    ("repro.core.ldrg", "greedy_edge_addition", "core.greedy", None, None),
    ("repro.graph.routing_graph", "RoutingGraph.candidate_edges",
     "graph.candidates", None, _candidates),
    ("repro.graph.mst", "prim_mst", "graph.mst", None, None),
    ("repro.graph.steiner", "iterated_one_steiner", "graph.steiner",
     None, None),
    # ert() (Table 6) and ert_ldrg() (Table 7) both build their tree here.
    ("repro.core.ert", "elmore_routing_tree", "core.ert", None, None),
    ("repro.delay.spice_delay", "spice_delays", _spice_name, None, None),
    ("repro.delay.incremental", "DelayMemo.get", "delay.memo.get",
     None, _memo_get),
    ("repro.delay.incremental", "NaiveCandidateEvaluator.score_additions",
     "delay.incremental.score", None, None),
    ("repro.delay.incremental", "IncrementalElmoreEvaluator.score_additions",
     "delay.incremental.score", None, None),
    ("repro.delay.incremental", "ParallelCandidateEvaluator.score_additions",
     "delay.incremental.score", None, None),
    ("repro.delay.multinet", "route_fleet", "delay.multinet.route_fleet",
     None, None),
    ("repro.circuit.transient", "transient", "circuit.transient",
     _transient_steps, None),
    ("repro.circuit.analytic", "AnalyticRC.__init__",
     "circuit.analytic.solve", None, None),
    ("repro.circuit.analytic", "AnalyticRC.crossing_times",
     "circuit.analytic.crossing", None, None),
    ("repro.guard.numerics", "GuardedFactorization.__init__",
     "guard.factorize", None, _factorized),
    ("repro.analysis.dataflow.callgraph", "build_project",
     "analysis.build_project", None, None),
    ("repro.analysis.source_rules", "lint_source_tree",
     "analysis.pass.source", None, None),
    ("repro.analysis.dataflow.engine", "analyze_dataflow",
     "analysis.pass.dataflow", None, None),
    ("repro.analysis.contracts.engine", "analyze_contracts",
     "analysis.pass.contracts", None, None),
    ("repro.analysis.interlock.engine", "analyze_interlock",
     "analysis.pass.interlock", None, None),
)


def install() -> list[str]:
    """Wrap every target; return the ones that no longer exist."""
    missing: list[str] = []
    for module_name, path, name, before, after in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}:{path}")
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}:{path}")
            continue
        wrapped = _traced(name, original, before, after)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
    return missing


# -- dump and aggregation -----------------------------------------------------

def dump(path: Path, extra: dict[str, Any]) -> None:
    """Write the spans and counts as JSON lines, plus a summary file."""
    spans_path = path.with_suffix(".spans.jsonl")
    with spans_path.open("w", encoding="utf-8") as handle:
        for span in _SPANS:
            handle.write(json.dumps(span) + "\n")
        for event in _EVENTS:
            handle.write(json.dumps(event) + "\n")
    payload = dict(extra, spans=len(_SPANS), spans_file=spans_path.name)
    path.write_text(json.dumps(payload), encoding="utf-8")


def aggregate(summary_path: Path,
              window: tuple[float, float] | None = None) -> dict[str, Any]:
    """Per-name span counts, busy time (outermost calls), self time and
    counts, from one dump; only records that start inside ``window``
    when given. ``window`` is in ``time.monotonic`` seconds of another
    process: on Linux that is the clock ``time.perf_counter`` reads."""
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    spans, events = [], []
    with (summary_path.parent / summary["spans_file"]).open() as handle:
        for line in handle:
            record = json.loads(line)
            (spans if len(record) == 7 else events).append(record)
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if lo <= s[2] <= hi]
        events = [e for e in events if lo <= e[0] <= hi]
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _rid, _nested in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    requests = set()
    for sid, name, start, end, _parent, rid, nested in spans:
        duration = end - start
        totals[f"{name}.calls"] += 1
        if not nested:
            totals[f"{name}.busy_ms"] += duration * 1000.0
        totals[f"{name}.self_ms"] += (duration - child_time[sid]) * 1000.0
        if rid is not None:
            requests.add(rid)
    samples: dict[str, list[float]] = defaultdict(list)
    for _when, name, amount in events:
        totals[name] += amount
        samples[name].append(amount)
    return {"totals": dict(totals), "samples": dict(samples),
            "spans": len(spans), "requests": len(requests),
            "import_ms": summary["import_ms"],
            "missing_targets": summary["missing_targets"]}
