"""Steadiness and tracing-overhead report for the benchmark.

    python3 perfbench/steady.py --workloads serve_cold,lint_all --seeds 10
    python3 perfbench/steady.py --workloads sweep_paper --seeds 3 --overhead

Runs ``perfbench/run.py`` once per seed and workload (one after another,
never in parallel) and prints, for each end-to-end metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(Q3 - Q1) / median`` against the metric's bound in ``BENCHMARK.json``
and against a third of it. With ``--overhead`` it also makes one traced
run per seed and reports traced minus untraced medians per metric. The
full results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int, trace: int
            ) -> tuple[dict, dict]:
    """(last-line result, end-to-end values) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):"
                         f"\n{out.stderr[-3000:]}")
    e2e = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("end_to_end "))
    return json.loads(lines[-1]), e2e


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        runs, traced, walls = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            began = time.monotonic()
            result, _ = one_run(workload, seed, args.seconds, 0)
            walls.append(time.monotonic() - began)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                steady = False
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            if args.overhead:
                traced.append(one_run(workload, seed, args.seconds, 1)[1])
        rows = {}
        print(f"\n{workload}: {len(runs)} runs, wall per run "
              f"{statistics.median(walls):.1f} s (max {max(walls):.1f} s)")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            med, q1, q3, rel = spread(values)
            mark = ("ok" if rel <= bound / 3 else
                    "within bound" if rel <= bound else "UNSTEADY")
            if rel > bound and name != "setup_s":
                steady = False
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                          "bound": bound, "values": values}
            line = (f"  {name:16s} median {med:12.5g}  q1 {q1:12.5g}  "
                    f"q3 {q3:12.5g}  spread {rel:6.3f}  bound {bound:.2f} "
                    f" {mark}")
            if traced:
                traced_med = statistics.median(t[name] for t in traced)
                rows[name]["traced_median"] = traced_med
                line += f"  traced-untraced {traced_med - med:+.5g}"
            print(line)
        report[workload] = {"rows": rows, "wall_s": walls}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
