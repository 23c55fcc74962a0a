"""Performance benchmark: the analyzer's wall-time budget, per phase.

``python -m repro.analysis --pass all`` gates CI on every push, so it
must stay cheap enough to run locally before each commit. Every pass
runs over one parse and one call graph, so the time is attributed to
the shared phases (parse + symbols, call graph) and to each pass's own
model (fixpoints) and rules. Each pass — the shared phases plus its own
— must finish in **< 10 seconds**, and the whole ``--pass all`` run is
reported end to end. Timings and model-size counters land in
``benchmarks/results/BENCH_analysis.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro
from repro.analysis.contracts import ContractsModel
from repro.analysis.dataflow import DataflowModel
from repro.analysis.dataflow.callgraph import CallGraph, build_project
from repro.analysis.diagnostics import LintConfig, registry
from repro.analysis.interlock import InterlockModel
from repro.analysis.passes import PASSES, run_passes
from repro.analysis.source_rules import lint_source_tree

#: Hard acceptance ceiling for one pass over src/repro (seconds).
MAX_PASS_SECONDS = 10.0
REPEATS = 3

SRC = Path(repro.__file__).resolve().parent

MODELS = {"dataflow": DataflowModel, "contracts": ContractsModel,
          "interlock": InterlockModel}


def _best_time(fn):
    """Best-of-N wall time — the standard noise-resistant estimate."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_analysis_full_repo(results_dir):
    """``--pass all`` over the real tree, phase-attributed."""
    parse_time, project = _best_time(lambda: build_project([SRC]))
    graph_time, _ = _best_time(lambda: CallGraph(project))
    graph = project.call_graph  # the one every pass model shares
    shared = parse_time + graph_time

    passes: dict[str, dict[str, float]] = {}
    rules_time, _ = _best_time(lambda: lint_source_tree(project))
    passes["source"] = {"rules": rules_time, "total": parse_time + rules_time}
    models = {}
    for name, model_type in MODELS.items():
        model_time, models[name] = _best_time(lambda: model_type(project))
        rules_time, _ = _best_time(
            lambda: registry.run(name, models[name], LintConfig()))
        passes[name] = {"model_and_fixpoints": model_time,
                        "rules": rules_time,
                        "total": shared + model_time + rules_time}
    total_time, diagnostics = _best_time(
        lambda: run_passes(PASSES, [SRC], LintConfig()))

    dataflow, contracts, interlock = (models[name] for name in MODELS)
    payload = {
        "workload": f"python -m repro.analysis --pass all src/repro, "
                    f"best of {REPEATS} per phase",
        "seconds": {
            "parse_and_symbols": parse_time,
            "call_graph": graph_time,
            "passes": passes,
            "pass_all_total": total_time,
        },
        "model": {
            "modules": len(project.modules),
            "functions": len(project.functions),
            "call_edges": sum(len(e) for e in graph.edges.values()),
            "external_calls": sum(len(e) for e in graph.external.values()),
            "pool_entries": len(graph.pool_entries),
            "effect_sites": len(dataflow.effects.sites),
            "entry_roots": len(dataflow.entry_roots),
            "entry_reachable": len(dataflow.entry_parents),
            "escape_types": sum(len(contracts.raises.of(qualname))
                                for qualname in project.functions),
            "declared_boundaries": len(contracts.boundaries),
            "locks": len(interlock.tables.locks),
            "thread_spawns": len(graph.thread_spawns),
            "signal_registrations": len(graph.signal_registrations),
            "rooted_functions": len(interlock.roots),
            "durable_reachers": len(interlock.durable_closure),
        },
        "diagnostics": len(diagnostics),
        "budget_seconds_per_pass": MAX_PASS_SECONDS,
    }
    out = results_dir / "BENCH_analysis.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n--pass all: {total_time:.3f}s (parse {parse_time:.3f}s, "
          f"call graph {graph_time:.3f}s, "
          + ", ".join(f"{name} {phases['total']:.3f}s"
                      for name, phases in passes.items())
          + f") [saved to {out}]")

    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)
    for name, phases in passes.items():
        assert phases["total"] < MAX_PASS_SECONDS, (
            f"{name} pass took {phases['total']:.2f}s, "
            f"budget is {MAX_PASS_SECONDS:.0f}s")
