"""Host speed meter: a fixed reference computation run on the measured
process's CPU.

    python3 perfbench/meter.py

The benchmark starts one meter per run (``common.Meter``) and pins it to
the CPU the measured process runs on, where it runs at the lowest
priority: it takes what the measured process leaves idle and, while the
measured process is busy, a small share of the CPU in short slices. It
repeats one fixed *reference unit* until its standard input closes:
parse and walk the syntax tree of a frozen source file from
``corpus.tar.gz``, then factor and solve a small dense system with NumPy,
the two kinds of work the measured program does. It adds up the CPU time
its units took (``time.thread_time``, so time spent preempted does not
count). Each line it reads on standard input is answered, after the unit
in progress, with ``<units completed> <their CPU seconds>``.

On a shared host the same code runs 20% to 100% faster or slower from one
minute to the next, and the two CPUs of a small machine slow down
independently. The CPU time of the reference unit measures that drift on
the measured CPU, in the interval measured; the benchmark scales the
times it measured by it (see ``common.Meter``).
"""

from __future__ import annotations

import ast
import os
import select
import sys
import tarfile
import time
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().parent / "corpus.tar.gz"
SOURCE_MEMBER = "repro/graph/paths.py"
SYSTEM_SIZE = 16
SOLVES = 15


def reference_source() -> str:
    with tarfile.open(CORPUS, "r:gz") as archive:
        member = archive.extractfile(SOURCE_MEMBER)
        if member is None:
            raise SystemExit(f"meter: {SOURCE_MEMBER} missing from corpus")
        return member.read().decode("utf-8")


def reference_system() -> np.ndarray:
    a = np.random.default_rng(0).random((SYSTEM_SIZE, SYSTEM_SIZE))
    return a @ a.T + SYSTEM_SIZE * np.eye(SYSTEM_SIZE)


def reference_unit(source: str, system: np.ndarray) -> int:
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    rhs = system[:, 0].copy()
    for _ in range(SOLVES):
        factor = np.linalg.cholesky(system)
        rhs = np.linalg.solve(factor, rhs) / (1.0 + float(rhs[0]) ** 2)
    return nodes


def main() -> int:
    os.nice(19)
    source = reference_source()
    system = reference_system()
    stdin = sys.stdin.fileno()
    done = 0
    cpu = 0.0
    while True:
        began = time.thread_time()
        reference_unit(source, system)
        cpu += time.thread_time() - began
        done += 1
        readable, _, _ = select.select([stdin], [], [], 0)
        if not readable:
            continue
        data = os.read(stdin, 4096)
        if not data:
            return 0
        for _ in range(data.count(b"\n")):
            os.write(sys.stdout.fileno(), f"{done} {cpu!r}\n".encode())


if __name__ == "__main__":
    raise SystemExit(main())
