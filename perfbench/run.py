"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 30 --trace 0

Workloads: ``serve_cold`` (``perfbench/serve.py``), ``sweep_paper`` and
``lint_all`` (``perfbench/batch.py``). Every answer
is checked against the references in ``perfbench/refs``. With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` the measured process runs
with the span recorder of ``perfbench/tracer.py`` and the last line holds
the per-layer metrics. Times are at the nominal host speed: each is
scaled by the speed factor that ``perfbench/meter.py``, run on the
measured process's CPU, gives for the interval it was taken in. The lines
before the last name every metric with its unit, the environment and the
run's details, raw times and speed factors among them. Run state lives under
``bench_work/`` in the checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import batch  # noqa: E402
import serve  # noqa: E402
import tracer  # noqa: E402
from common import (  # noqa: E402
    BenchError,
    WORK_ROOT,
    environment_record,
    fresh_dir,
    load_json,
    quantile,
    remove_dir,
    require_program,
)

WORKLOADS = ("serve_cold", "sweep_paper", "lint_all")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def settings_of(workload: str) -> dict[str, Any]:
    if workload == "serve_cold":
        return {"transport": "stdio", "outstanding": 1,
                "nets_per_s": serve.NETS_PER_S,
                "latency_limit_ms": serve.LIMIT_MS,
                "engines": "transient,analytic (default ladder)",
                "delay_rtol": serve.DELAY_RTOL}
    if workload == "sweep_paper":
        return {"tables": [" ".join(c) for c in
                           batch.sweep_commands(batch.SWEEP_SEED)],
                "latency_limit_s": batch.SWEEP_LIMIT_S}
    return {"corpus": "perfbench/corpus.tar.gz", "pass": "all",
            "latency_limit_s": batch.LINT_LIMIT_S}


def run_workload(workload: str, seed: int, seconds: float,
                 trace_out: Path | None) -> dict[str, Any]:
    if workload == "serve_cold":
        return serve.run(seed, seconds, trace_out)
    if workload == "sweep_paper":
        return batch.run_sweep(seed, seconds, trace_out)
    return batch.run_lint(seed, seconds, trace_out)


def per_layer(result: dict[str, Any], dumps: list[Path]) -> dict[str, float]:
    """The per-layer metrics of a traced run, from its span dumps and, for
    the daemon, its final ``stats`` frame."""
    window = result.get("window")
    aggregates = [tracer.aggregate(path, window) for path in dumps]
    totals: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for agg in aggregates:
        for key, value in agg["totals"].items():
            totals[key] = totals.get(key, 0.0) + value
        for key, values in agg["samples"].items():
            samples.setdefault(key, []).extend(values)

    def t(key: str) -> float:
        return float(totals.get(key, 0.0))

    def ratio(hits: str, lookups: str) -> float:
        return t(hits) / t(lookups) if t(lookups) else 0.0

    waits = samples.get("service.admission.queue_wait_ms", [])
    stats = result.get("stats", {})
    service = stats.get("service", {})
    admission = stats.get("admission", {})
    breakers = stats.get("breakers", {})
    metrics = {
        "startup.import_ms": aggregates[0]["import_ms"],
        "service.protocol.parse.calls": t("service.protocol.parse.calls"),
        "service.protocol.parse.busy_ms": t("service.protocol.parse.busy_ms"),
        "service.protocol.encode.busy_ms": t("service.protocol.encode.busy_ms"),
        "service.session.fingerprint.busy_ms":
            t("service.session.fingerprint.busy_ms"),
        "service.wal.admit.busy_ms": t("service.wal.admit.busy_ms"),
        "service.wal.done.busy_ms": t("service.wal.done.busy_ms"),
        "service.wal.appends":
            t("service.wal.admit.calls") + t("service.wal.done.calls"),
        "service.wal.errors": float(service.get("wal_errors", 0)),
        "service.admission.queue_wait_ms.p50":
            quantile(waits, 0.5) if waits else 0.0,
        "service.admission.queue_wait_ms.p90":
            quantile(waits, 0.9) if waits else 0.0,
        "service.admission.depth_high_water":
            float(admission.get("depth_high_water", 0)),
        "service.admission.shed": float(admission.get("shed", 0)),
        "runtime.journal.cache.lookup.busy_ms":
            t("runtime.journal.cache.lookup.busy_ms"),
        "runtime.journal.cache.lookup.hit_ratio":
            ratio("runtime.journal.cache.hits",
                  "runtime.journal.cache.lookups"),
        "runtime.journal.cache.store.busy_ms":
            t("runtime.journal.cache.store.busy_ms"),
        "service.session.route.calls": t("service.session.route.calls"),
        "service.session.route.busy_ms": t("service.session.route.busy_ms"),
        "service.session.degraded": float(service.get("degraded", 0)),
        "service.breaker.opened": float(sum(
            b.get("opened_total", 0) for b in breakers.values())),
        "core.greedy.calls": t("core.greedy.calls"),
        "core.greedy.iterations": t("core.greedy.iterations"),
        "core.greedy.candidates": t("core.greedy.candidates"),
        "core.greedy.self_ms": t("core.greedy.self_ms"),
        "graph.mst.busy_ms": t("graph.mst.busy_ms"),
        "graph.steiner.busy_ms": t("graph.steiner.busy_ms"),
        "core.ert.busy_ms": t("core.ert.busy_ms"),
        "delay.spice.transient.calls": t("delay.spice.transient.calls"),
        "delay.spice.transient.busy_ms": t("delay.spice.transient.busy_ms"),
        "delay.spice.analytic.calls": t("delay.spice.analytic.calls"),
        "delay.spice.analytic.busy_ms": t("delay.spice.analytic.busy_ms"),
        "delay.memo.hit_ratio": ratio("delay.memo.hits", "delay.memo.lookups"),
        "delay.incremental.score.calls": t("delay.incremental.score.calls"),
        "delay.incremental.score.busy_ms": t("delay.incremental.score.busy_ms"),
        "delay.multinet.route_fleet.busy_ms":
            t("delay.multinet.route_fleet.busy_ms"),
        "circuit.transient.calls": t("circuit.transient.calls"),
        "circuit.transient.busy_ms": t("circuit.transient.busy_ms"),
        "circuit.transient.steps": t("circuit.transient.steps"),
        "circuit.analytic.solve.calls": t("circuit.analytic.solve.calls"),
        "circuit.analytic.solve.busy_ms": t("circuit.analytic.solve.busy_ms"),
        "circuit.analytic.crossing.busy_ms":
            t("circuit.analytic.crossing.busy_ms"),
        "guard.factorizations": t("guard.factorizations"),
        "guard.regularized": t("guard.regularized"),
        "runtime.trial.calls": t("runtime.trial.calls"),
        "runtime.trial.busy_ms": t("runtime.trial.busy_ms"),
        "analysis.build_project.calls": t("analysis.build_project.calls"),
        "analysis.build_project.busy_ms": t("analysis.build_project.busy_ms"),
        "analysis.pass.source.busy_ms": t("analysis.pass.source.busy_ms"),
        "analysis.pass.dataflow.busy_ms": t("analysis.pass.dataflow.busy_ms"),
        "analysis.pass.contracts.busy_ms":
            t("analysis.pass.contracts.busy_ms"),
        "analysis.pass.interlock.busy_ms":
            t("analysis.pass.interlock.busy_ms"),
        "loadgen.threads": float(result.get("loadgen_threads", 1)),
        "trace.spans": float(sum(agg["spans"] for agg in aggregates)),
        "trace.requests": float(sum(agg["requests"] for agg in aggregates)),
    }
    missing = sorted({m for agg in aggregates for m in agg["missing_targets"]})
    if missing:
        print(f"trace: boundaries no longer present: {', '.join(missing)}")
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = load_json(BENCHMARK)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    trace_dir = fresh_dir("trace") if args.trace else None
    trace_out = trace_dir / "trace.json" if trace_dir else None
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              trace_out)
        if trace_out is not None:
            dumps = result.get("trace_files") or [trace_out]
            metrics = per_layer(result, dumps)
        else:
            metrics = result["metrics"]
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_dir is not None:
            remove_dir(trace_dir)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment_record(args.workload, args.seed,
                             settings_of(args.workload))
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    print("end_to_end " + json.dumps(result["metrics"], sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}  failed_share = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units.get(name, '')}")
    wanted = (spec["per_layer"] if args.trace else spec["end_to_end"])
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
