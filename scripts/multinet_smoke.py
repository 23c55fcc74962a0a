#!/usr/bin/env python3
"""CI multinet smoke: the fleet backend must not change a single bit.

The fleet evaluator's contract is *batch-composition invariance*: numpy's
batched ``linalg`` gufuncs process each stacked matrix independently, so
a net's routing must be byte-identical whether it rode a fleet of one or
shared its batch with 49 strangers — and its chosen edges must match the
sequential incremental engine exactly. This script checks the claim
dynamically on the paths CI cares about:

1. routes a mixed-size fleet three ways — sequential LDRG (incremental
   engine), one whole ``route_fleet`` batch, and 50 fleets of one — and
   requires identical chosen edges everywhere plus *bitwise* identical
   delays between the batched and singleton fleet runs;
2. shuffles the fleet and requires every member's delays to stay
   bitwise identical to the unshuffled run (batch position must not
   exist electrically);
3. routes the fleet from Iterated 1-Steiner starts (``sldrg``) and
   requires the sequential SLDRG's chosen edges and delays (≤ 1e-9
   relative): Steiner starts carry the zero-length pseudo-short edges
   the MST and ERT starts never have;
4. renders ``table 7`` through the CLI with and without ``--multinet``
   and requires the ratio columns to agree (same trial nets, same
   chosen edges, only the throughput differs);
5. runs the whole-program dataflow analyzer, which now covers
   ``repro.delay.multinet`` as an eval module, and requires a clean
   exit — a dynamic violation should always arrive with the static
   view, and vice versa.

Exit status 0 = all invariants hold; 1 = a violation, with a message.

Usage:  python scripts/multinet_smoke.py [--fleet 50] [--pins 10]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.ldrg import ldrg  # noqa: E402
from repro.core.sldrg import sldrg  # noqa: E402
from repro.delay.multinet import route_fleet  # noqa: E402
from repro.delay.parameters import Technology  # noqa: E402
from repro.geometry.net import Net  # noqa: E402
from repro.graph.steiner import iterated_one_steiner  # noqa: E402

RELATIVE_TOLERANCE = 1e-9


def fail(message: str) -> None:
    print(f"multinet-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else str(SRC))
    return env


def _run(cmd: list[str]) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=REPO_ROOT, env=_env_with_src())
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def check_byte_identity(args: argparse.Namespace) -> None:
    tech = Technology.cmos08()
    nets = [Net.random(3 + (i % args.pins), seed=2000 + i, name=f"m{i}")
            for i in range(args.fleet)]
    sequential = [ldrg(net, tech, delay_model="elmore",
                       candidate_evaluator="incremental") for net in nets]
    batched = route_fleet(nets, tech)
    singles = [route_fleet([net], tech)[0] for net in nets]
    for net, seq, bat, single in zip(nets, sequential, batched, singles):
        if sorted(seq.graph.edges()) != sorted(bat.graph.edges()):
            fail(f"{net.name}: batched fleet chose different edges than "
                 f"the sequential engine")
        for sink, want in seq.delays.items():
            rel = abs(want - bat.delays[sink]) / max(abs(want), 1e-30)
            if rel > RELATIVE_TOLERANCE:
                fail(f"{net.name} sink {sink}: fleet delay off by "
                     f"{rel:.2e} relative")
        if bat.delays != single.delays:
            fail(f"{net.name}: batch-of-{args.fleet} delays are not "
                 f"bitwise equal to the fleet-of-one run")
        if bat.history != single.history:
            fail(f"{net.name}: greedy history depends on batch size")
    order = sorted(range(len(nets)), key=lambda i: (i * 7919) % len(nets))
    shuffled = route_fleet([nets[i] for i in order], tech)
    for position, index in enumerate(order):
        if shuffled[position].delays != batched[index].delays:
            fail(f"{nets[index].name}: delays changed under fleet "
                 f"shuffling (batch position leaked)")
    print(f"multinet-smoke: byte identity holds across batch-of-1, "
          f"batch-of-{args.fleet}, and shuffled fleets")


def check_steiner_start(args: argparse.Namespace) -> None:
    tech = Technology.cmos08()
    nets = [Net.random(3 + (i % args.pins), seed=3000 + i, name=f"s{i}")
            for i in range(args.fleet)]
    sequential = [sldrg(net, tech, "elmore") for net in nets]
    batched = route_fleet([iterated_one_steiner(net) for net in nets], tech,
                          algorithm="sldrg")
    for net, seq, bat in zip(nets, sequential, batched):
        if sorted(seq.graph.edges()) != sorted(bat.graph.edges()):
            fail(f"{net.name}: Steiner-start fleet chose different edges "
                 f"than sequential SLDRG")
        for sink, want in seq.delays.items():
            rel = abs(want - bat.delays[sink]) / max(abs(want), 1e-30)
            if rel > RELATIVE_TOLERANCE:
                fail(f"{net.name} sink {sink}: Steiner-start fleet delay "
                     f"off by {rel:.2e} relative")
    print(f"multinet-smoke: {len(nets)} Steiner-start nets match "
          f"sequential SLDRG")


def check_cli_table(args: argparse.Namespace) -> None:
    base = [sys.executable, "-m", "repro", "table", "7",
            "--trials", "2", "--sizes", "5"]
    sequential = _run(base)
    batched = _run(base + ["--multinet"])

    def ratio_rows(text: str) -> list[str]:
        return [line for line in text.splitlines()
                if line.strip() and line.lstrip()[0].isdigit()]

    if ratio_rows(sequential) != ratio_rows(batched):
        fail("table 7 ratio rows differ between sequential and "
             f"--multinet runs:\n{sequential}\n---\n{batched}")
    print("multinet-smoke: table 7 rows identical with and without "
          "--multinet")


def check_analyzer() -> None:
    _run([sys.executable, "-m", "repro.analysis", "--pass", "dataflow",
          str(SRC / "repro")])
    print("multinet-smoke: dataflow analyzer clean with "
          "repro.delay.multinet in eval coverage")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", type=int, default=50,
                        help="fleet size of the byte-identity check")
    parser.add_argument("--pins", type=int, default=10,
                        help="size spread of the mixed fleet")
    args = parser.parse_args()
    check_byte_identity(args)
    check_steiner_start(args)
    check_cli_table(args)
    check_analyzer()
    print("multinet-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
