"""Shared helpers of the benchmark: paths, child processes, quantiles.

The benchmark drives the program only from outside: it spawns
``perfbench/launch.py`` (which imports ``repro`` from ``src/``) and talks
to it over pipes or its command line. Nothing here imports
``repro`` itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
LAUNCHER = BENCH_DIR / "launch.py"
#: The CPUs this process may use when it starts (see pin_measured).
CPUS = tuple(sorted(os.sched_getaffinity(0)))
#: Scratch space for run state; inside the checkout and git-ignored. Not
#: a dot-directory: the source analyzers skip paths with hidden parts.
WORK_ROOT = ROOT / "bench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_TRIALS", None)
    env.pop("REPRO_SIZES", None)
    return env


def fresh_dir(tag: str) -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def pin_measured(pid: int) -> None:
    """Run the measured process on the last CPU and this one on the rest.

    Keeps the generator's and the program's threads from trading cores,
    so the speed meter (pinned with the program) measures the program's
    CPU alone. No-op with a single CPU.
    """
    if len(CPUS) < 2:
        return
    os.sched_setaffinity(pid, {CPUS[-1]})
    os.sched_setaffinity(0, set(CPUS[:-1]))


#: CPU milliseconds of one reference unit of the meter
#: (``perfbench/meter.py``) at the nominal host speed. On the two-core
#: machine the benchmark was defined on, beside a busy measured process,
#: the unit took 0.7 to 1.9 ms as the host's speed drifted.
NOMINAL_UNIT_MS = 1.0


class Meter:
    """The host speed meter of one run (see ``perfbench/meter.py``).

    Pinned to the CPU :func:`pin_measured` gives the measured process.
    :meth:`sample` reads its count of reference units and their CPU time;
    :meth:`factor` turns two samples into the speed factor of the
    interval between them: ``NOMINAL_UNIT_MS`` over the mean CPU time of
    the units run in it. A time measured in the interval, multiplied by
    the factor, is the time at the nominal host speed; a rate is divided
    by it.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "meter.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        os.sched_setaffinity(self.proc.pid, {CPUS[-1]})

    def sample(self) -> tuple[int, float]:
        self.proc.stdin.write(b"\n")
        line = self.proc.stdout.readline().split()
        if len(line) != 2:
            raise BenchError("the speed meter stopped")
        return int(line[0]), float(line[1])

    @staticmethod
    def factor(start: tuple[int, float], end: tuple[int, float]) -> float:
        units = end[0] - start[0]
        if units < 1:
            raise BenchError("the speed meter ran no reference unit")
        return NOMINAL_UNIT_MS / ((end[1] - start[1]) / units * 1000.0)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Meter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def launcher_argv(trace_out: Path | None, entry: str, args: Sequence[str],
                  report: Path | None = None) -> list[str]:
    """Command line of one measured process (``entry`` is cli or analysis)."""
    argv = [sys.executable, str(LAUNCHER), "--entry", entry]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    if report is not None:
        argv += ["--report", str(report)]
    return argv + ["--", *args]


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``; return its exit code and peak RSS in MB.

    Waits with ``wait4`` so the child's own resource usage is read, not
    the sum over every child this process has had.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            code = os.waitstatus_to_exitcode(status)
            proc.returncode = code
            return code, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"process {proc.args!r} did not exit within "
                             f"{timeout:g}s")
        time.sleep(0.005)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/repro``'s Python files (identifies the code
    measured when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (fsync cost varies)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, kind = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and (target == parts[1]
                                or target.startswith(parts[1].rstrip("/") + "/")):
            if len(parts[1]) > len(best):
                best, kind = parts[1], parts[2]
    return kind


def _version(distribution: str) -> str:
    try:
        return metadata.version(distribution)
    except metadata.PackageNotFoundError:
        return "unavailable"


def environment_record(workload: str, seed: int, settings: dict[str, Any]
                       ) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "tmp_fs": _fs_type(ROOT),  # run state lives in ROOT/bench_work
        "settings": settings,
    }
