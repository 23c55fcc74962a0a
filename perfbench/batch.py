"""The batch workloads: ``sweep_paper`` and ``lint_all``.

Each run starts fresh launcher processes back to back (each one a
*unit*) until the run's time is spent, so no memo or cache outlives a
unit. A unit's wall time runs from spawn to exit, interpreter start
included.

* ``sweep_paper``: one unit runs Tables 2, 3 and 7 (LDRG from the MST,
  SLDRG from the Steiner tree, LDRG from the ERT) on the default analytic
  oracle, then Table 2 under ``--multinet``, in one process. Every unit
  of every run uses table seed ``SWEEP_SEED``, so the units are the same
  work whatever the run's seed. Each table's text must be byte-equal to
  the one recorded.
* ``lint_all``: one unit is ``python -m repro.analysis --pass all`` over
  the frozen corpus (``corpus.tar.gz``, the ``src/repro`` tree at the
  commit that defined the benchmark). Its diagnostics, restricted to the
  rule ids that existed then, must equal the recorded ones.

Every time is scaled by the speed factor of the run's meter over the
unit that took it (``common.Meter``); the raw times are in the detail.
"""

from __future__ import annotations

import json
import subprocess
import tarfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable

from common import (
    BENCH_DIR,
    BenchError,
    Meter,
    REFS,
    child_env,
    fresh_dir,
    launcher_argv,
    load_json,
    pin_measured,
    quantile,
    reap,
    remove_dir,
)

#: Table seed of every sweep unit; its tables are in refs/sweep.json.
SWEEP_SEED = 2000
SWEEP_SIZES = "5,10,20"
SWEEP_TRIALS = 2
MULTINET_SIZES = "5,10,20,30"
MULTINET_TRIALS = 200
#: Latency limits (slo_share) for one sweep unit and one lint run, at
#: the nominal host speed.
SWEEP_LIMIT_S = 25.0
LINT_LIMIT_S = 15.0
CORPUS = BENCH_DIR / "corpus.tar.gz"
#: At least this many spawn-to-ready samples per run for ``setup_s``.
SETUP_SAMPLES = 3


def sweep_args(commands: list[list[str]]) -> list[str]:
    """One launcher command line running ``commands`` in sequence."""
    args: list[str] = []
    for command in commands:
        args += ([] if not args else ["::"]) + command
    return args


def sweep_commands(table_seed: int) -> list[list[str]]:
    common = ["--trials", str(SWEEP_TRIALS), "--sizes", SWEEP_SIZES,
              "--seed", str(table_seed)]
    return [["table", "2", *common], ["table", "3", *common],
            ["table", "7", *common],
            ["table", "2", "--multinet", "--trials", str(MULTINET_TRIALS),
             "--sizes", MULTINET_SIZES, "--seed", str(table_seed)]]


def command_trials(command: list[str]) -> int:
    sizes = command[command.index("--sizes") + 1].split(",")
    return len(sizes) * int(command[command.index("--trials") + 1])


def extract_corpus(into: Path) -> Path:
    with tarfile.open(CORPUS, "r:gz") as archive:
        archive.extractall(into, filter="data")
    return into / "repro"


def lint_args(corpus: Path) -> list[str]:
    return ["--pass", "all", "--format", "json", str(corpus)]


def normalize_diagnostics(stdout: str, corpus: Path,
                          rules: set[str] | None = None) -> list[list[Any]]:
    """Sorted ``[rule, severity, file, line, message]`` rows, file paths
    relative to the corpus, optionally restricted to ``rules``."""
    rows = []
    for diag in json.loads(stdout)["diagnostics"]:
        if rules is not None and diag["rule"] not in rules:
            continue
        location = diag.get("location") or {}
        file = location.get("file") or ""
        prefix = str(corpus) + "/"
        if file.startswith(prefix):
            file = file[len(prefix):]
        rows.append([diag["rule"], diag.get("severity"), file,
                     location.get("line"), diag.get("message")])
    return sorted(rows, key=lambda row: json.dumps(row))


@dataclass
class Unit:
    seconds: float           # raw, spawn to exit
    setup_s: float           # raw, spawn to entry point imported
    factor: float            # the meter's speed factor over the unit
    rss_mb: float
    code: int
    report: dict[str, Any]

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.factor


def run_unit(entry: str, args: list[str], workdir: Path,
             meter: Meter | None = None,
             trace_out: Path | None = None) -> Unit:
    """One unit; without a meter its speed factor is 1."""
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    before = meter.sample() if meter is not None else None
    spawned = time.monotonic()
    proc = subprocess.Popen(launcher_argv(trace_out, entry, args,
                                          report_path),
                            env=child_env(), cwd=workdir,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    pin_measured(proc.pid)
    code, rss = reap(proc, 170.0)
    ended = time.monotonic()
    factor = (meter.factor(before, meter.sample())
              if meter is not None else 1.0)
    if not report_path.exists():
        raise BenchError(f"{entry} unit exited {code} without a report")
    report = load_json(report_path)
    return Unit(seconds=ended - spawned, setup_s=report["ready_at"] - spawned,
                factor=factor, rss_mb=rss, code=code, report=report)


def _units(seconds: float, traced: bool,
           one: Callable[[int], Unit]) -> list[Unit]:
    """Run units back to back until ``seconds`` are (about to be) spent
    (a traced run is one unit)."""
    units: list[Unit] = []
    start = time.monotonic()
    while True:
        units.append(one(len(units)))
        elapsed = time.monotonic() - start
        mean = elapsed / len(units)
        if traced or elapsed + 0.5 * mean > seconds:
            return units


def _setup_samples(units: list[Unit], extra: Callable[[], Unit]) -> list[Unit]:
    samples = list(units)
    while len(samples) < SETUP_SAMPLES:
        samples.append(extra())
    return samples


def _metrics(units: list[Unit], setups: list[Unit], operations: int,
             within: int, limit_s: float) -> dict[str, float]:
    """The end-to-end metrics of a batch run, at nominal host speed.

    An operation is a trial (sweep) or a lint run; ``within`` counts the
    correct units whose scaled time is within ``limit_s``.
    """
    unit_ms = [unit.scaled_s * 1000.0 for unit in units]
    rate = operations / sum(unit.scaled_s for unit in units)
    return {
        "setup_s": median(u.setup_s * u.factor for u in setups),
        "latency_p50_ms": quantile(unit_ms, 0.5),
        "latency_p90_ms": quantile(unit_ms, 0.9),
        "slo_share": within / len(units),
        "capacity_rps": rate,
        "trials_per_s": rate,
        "lint_s": 1.0 / rate,
        "peak_rss_mb": max(unit.rss_mb for unit in units),
    }


def _detail(units: list[Unit], setups: list[Unit]) -> dict[str, Any]:
    return {"units": len(units),
            "raw_unit_seconds": [u.seconds for u in units],
            "speed_factors": [u.factor for u in units],
            "raw_setup_seconds": [u.setup_s for u in setups]}


def run_sweep(seed: int, seconds: float, trace_out: Path | None
              ) -> dict[str, Any]:
    expected = load_json(REFS / "sweep.json")["tables"][str(SWEEP_SEED)]
    cmds = sweep_commands(SWEEP_SEED)
    workdir = fresh_dir("sweep_paper")
    attempted = failed = within = 0
    trace_files: list[Path] = []

    def one(index: int) -> Unit:
        nonlocal attempted, failed, within
        out = None
        if trace_out is not None:
            out = trace_out.with_name(f"{trace_out.stem}.{index}.json")
            trace_files.append(out)
        unit = run_unit("cli", sweep_args(cmds), workdir, meter, out)
        results = unit.report["commands"]
        unit_ok = True
        for k, command in enumerate(cmds):
            trials = command_trials(command)
            attempted += trials
            # A table missing from the report crashed its process.
            if (k >= len(results) or results[k]["rc"] != 0
                    or results[k]["stdout"] != expected[" ".join(command)]):
                failed += trials
                unit_ok = False
        if unit_ok and unit.scaled_s <= SWEEP_LIMIT_S:
            within += 1
        return unit

    meter = Meter()
    try:
        units = _units(seconds, trace_out is not None, one)
        setups = _setup_samples(
            units, lambda: run_unit("cli", ["params"], workdir, meter))
    finally:
        meter.close()
        remove_dir(workdir)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(units, setups, attempted, within, SWEEP_LIMIT_S),
        "detail": dict(_detail(units, setups), table_seed=SWEEP_SEED),
        "trace_files": trace_files,
    }


def run_lint(seed: int, seconds: float, trace_out: Path | None
             ) -> dict[str, Any]:
    ref = load_json(REFS / "lint.json")
    rules = set(ref["rules"])
    workdir = fresh_dir("lint_all")
    corpus = extract_corpus(workdir)
    attempted = failed = within = 0
    trace_files: list[Path] = []

    def one(index: int) -> Unit:
        nonlocal attempted, failed, within
        out = None
        if trace_out is not None:
            out = trace_out.with_name(f"{trace_out.stem}.{index}.json")
            trace_files.append(out)
        unit = run_unit("analysis", lint_args(corpus), workdir, meter, out)
        attempted += 1
        results = unit.report["commands"]
        ok = (len(results) == 1 and results[0]["rc"] == ref["exit_code"]
              and normalize_diagnostics(results[0]["stdout"], corpus, rules)
              == ref["diagnostics"])
        if not ok:
            failed += 1
        elif unit.scaled_s <= LINT_LIMIT_S:
            within += 1
        return unit

    meter = Meter()
    try:
        units = _units(seconds, trace_out is not None, one)
        setups = _setup_samples(
            units, lambda: run_unit("analysis", ["--list-rules"], workdir,
                                    meter))
    finally:
        meter.close()
        remove_dir(workdir)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(units, setups, attempted, within, LINT_LIMIT_S),
        "detail": dict(_detail(units, setups),
                       seed_note="the frozen corpus is the same for every seed"),
        "trace_files": trace_files,
    }
