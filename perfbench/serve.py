"""The serving workload ``serve_cold``: one serial ``repro serve`` over
stdio.

One benchmark process drives the daemon with two threads (the sender,
which is the main thread, and one reply reader) over its pipes. The
timed phase is a closed loop with one request outstanding: each request
is sent when the previous reply arrives, so the serial daemon is always
busy (never queueing, never idle) and a request's latency is the time
the daemon takes to answer it. The capacity is the correct replies per
second of the daemon's time (the sum of the latencies).

Nets come from a fixed pool whose answers were recorded at the commit
that defined the benchmark (``refs/serve.json``). A run sends a fixed,
balanced set of distinct pool nets, so every request misses the cache;
the seed sets their order. Each latency is scaled by the speed factor
of the run's meter over its block of ``BLOCK`` requests
(``common.Meter``); the raw figures are in the detail.
"""

from __future__ import annotations

import json
import queue
import random
import subprocess
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any

from common import (
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

NAME = "serve_cold"
#: Pool nets per pin count; answers for all of them are in refs/serve.json.
POOL_PER_PINS = 100
POOL_PINS = (3, 4, 5)
REGION_UM = 10_000.0
#: Relative tolerance on a reply's delay against the recorded one. It
#: admits a different (still converged) transient discretization; the
#: chosen edges and the cost must match exactly.
DELAY_RTOL = 0.02
#: Daemon spawns per run for ``setup_s`` (the last one is measured).
SETUP_SPAWNS = 3
#: Nets per second of run time: a run sends ``round(NETS_PER_S *
#: seconds)`` nets (rounded up to a multiple of the pin counts), about
#: what the daemon answers in that time at the nominal host speed. At 30
#: seconds that is 93 nets, so 10 latencies lie beyond p90.
NETS_PER_S = 3.1
#: Latency limit of slo_share, at the nominal host speed.
LIMIT_MS = 1500.0
#: Requests per speed-factor block: the meter is read between blocks, so
#: each latency is scaled by the factor of the few seconds around it.
BLOCK = 10


def pool_net(pins: int, index: int) -> dict[str, Any]:
    """Pool net ``index`` of ``pins`` pins, uniform in the paper's
    10 mm square (coordinates rounded to 0.1 um)."""
    rng = random.Random(f"perfbench-net-{pins}-{index}")
    points: list[list[float]] = []
    while len(points) < pins:
        point = [round(rng.uniform(0.0, REGION_UM), 1) for _ in range(2)]
        if point not in points:
            points.append(point)
    return {"name": f"p{pins}_{index}", "source": points[0],
            "sinks": points[1:]}


def route_frame(rid: str, key: str) -> str:
    pins, index = (int(tok) for tok in key.split("-"))
    return json.dumps({"op": "route", "id": rid, "algorithm": "ldrg",
                       "net": pool_net(pins, index)})


def answer_of(result: dict[str, Any]) -> dict[str, Any]:
    return {"num_added_edges": result["num_added_edges"],
            "cost": result["cost"], "delay": result["delay"]}


def answer_matches(reply: dict[str, Any], expected: dict[str, Any]) -> bool:
    if reply.get("status") != "ok" or not isinstance(reply.get("result"), dict):
        return False
    got = answer_of(reply["result"])
    return (got["num_added_edges"] == expected["num_added_edges"]
            and got["cost"] == expected["cost"]
            and abs(got["delay"] - expected["delay"])
            <= DELAY_RTOL * abs(expected["delay"]))


class Daemon:
    """One spawned ``repro serve`` and its pipes."""

    def __init__(self, trace_out: Path | None):
        self.dir = fresh_dir(NAME)
        args = ["serve", "--run-dir", str(self.dir / "run"),
                "--cache-dir", str(self.dir / "cache")]
        self._stderr = (self.dir / "stderr.txt").open("w")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            launcher_argv(trace_out, "cli", args), env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, bufsize=0)
        pin_measured(self.proc.pid)
        self.replies: "queue.Queue[tuple[float, dict[str, Any]]]" = queue.Queue()
        self._reader: threading.Thread | None = None

    def connect(self) -> float:
        """Start the reader, answer one ``ping``; returns seconds from
        spawn to that reply."""
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="perfbench-reader")
        self._reader.start()
        self.send(json.dumps({"op": "ping", "id": "ping"}))
        _, frame = self.next_reply(120.0)
        if frame.get("id") != "ping" or frame.get("status") != "ok":
            raise BenchError(f"unexpected first reply {frame!r}")
        return time.monotonic() - self.spawned

    def _read(self) -> None:
        for raw in iter(self.proc.stdout.readline, b""):
            now = time.monotonic()
            try:
                frame = json.loads(raw)
            except ValueError:
                frame = {"status": "unparseable"}
            self.replies.put((now, frame))

    def send(self, line: str) -> None:
        self.proc.stdin.write((line + "\n").encode("utf-8"))

    def next_reply(self, timeout: float) -> tuple[float, dict[str, Any]]:
        try:
            return self.replies.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"no reply within {timeout:g}s") from None

    def stats(self) -> dict[str, Any]:
        self.send(json.dumps({"op": "stats", "id": "stats"}))
        while True:
            _, frame = self.next_reply(60.0)
            if frame.get("id") == "stats":
                return frame

    def close(self) -> tuple[int, float]:
        """Shut the daemon down cleanly (end of its input); returns
        (exit code, peak RSS MB)."""
        try:
            self.proc.stdin.close()
            code, rss = reap(self.proc, 60.0)
        finally:
            if self._reader is not None:
                self._reader.join(timeout=10.0)
            self.proc.stdout.close()
            self._stderr.close()
        return code, rss

    def discard(self) -> None:
        """Kill the daemon (after a failure) and remove its directory."""
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            reap(self.proc, 30.0)
        except (BenchError, ChildProcessError):
            pass
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self._stderr.close()
        remove_dir(self.dir)


def run_keys(rng: random.Random, seconds: float) -> list[str]:
    """The pool keys of one run: equal numbers of 3-, 4- and 5-pin nets
    (pool indices from 0 up), in seeded order."""
    per_pins = -(-round(NETS_PER_S * seconds) // len(POOL_PINS))
    if per_pins > POOL_PER_PINS:
        raise BenchError("net pool exhausted; lower --seconds")
    keys = [f"{pins}-{index}" for pins in POOL_PINS
            for index in range(per_pins)]
    rng.shuffle(keys)
    return keys


def _spawn(trace_out: Path | None, meter: Meter
           ) -> tuple[Daemon, float, float]:
    """A connected daemon, its raw spawn-to-ping seconds and the speed
    factor over them."""
    before = meter.sample()
    daemon = Daemon(trace_out)
    try:
        setup = daemon.connect()
        return daemon, setup, meter.factor(before, meter.sample())
    except BaseException:
        daemon.discard()
        raise


def _serve(daemon: Daemon, keys: list[str], meter: Meter
           ) -> list[tuple[str, float, float, dict[str, Any]]]:
    """Send ``keys`` one at a time; (key, raw latency ms, speed factor of
    its block, reply) per request."""
    results = []
    for first in range(0, len(keys), BLOCK):
        before = meter.sample()
        block = []
        for k in range(first, min(first + BLOCK, len(keys))):
            rid = f"r{k}:{keys[k]}"
            sent = time.monotonic()
            daemon.send(route_frame(rid, keys[k]))
            when, reply = daemon.next_reply(120.0)
            if reply.get("id") != rid:
                raise BenchError(f"reply {reply.get('id')!r} to request "
                                 f"{rid!r}")
            block.append((keys[k], (when - sent) * 1000.0, reply))
        factor = meter.factor(before, meter.sample())
        results += [(key, ms, factor, reply) for key, ms, reply in block]
    return results


def run(seed: int, seconds: float, trace_out: Path | None) -> dict[str, Any]:
    refs = load_json(REFS / "serve.json")["answers"]
    keys = run_keys(random.Random(f"{NAME}-{seed}"), seconds)
    setups: list[tuple[float, float]] = []
    spawns = SETUP_SPAWNS if trace_out is None else 1
    with Meter() as meter:
        for index in range(spawns):
            daemon, setup, factor = _spawn(
                trace_out if index == spawns - 1 else None, meter)
            setups.append((setup, factor))
            if index < spawns - 1:
                daemon.close()
                remove_dir(daemon.dir)
        try:
            start = time.monotonic()
            results = _serve(daemon, keys, meter)
            window = (start, time.monotonic())
            stats = daemon.stats()
            code, rss = daemon.close()
        except BaseException:
            daemon.discard()
            raise
    remove_dir(daemon.dir)

    correct = [answer_matches(reply, refs[key])
               for key, _ms, _f, reply in results]
    raw_ms = [ms for _key, ms, _f, _reply in results]
    factors = [f for _key, _ms, f, _reply in results]
    latencies = [ms * f for ms, f in zip(raw_ms, factors)]
    within = sum(1 for ok, ms in zip(correct, latencies) if ok and ms <= LIMIT_MS)
    answered = sum(correct)
    # The daemon is serial and always busy, so its time is the sum of the
    # latencies (the generator's turnaround between requests excluded).
    capacity = answered / (sum(latencies) / 1000.0)
    raw_capacity = answered / (sum(raw_ms) / 1000.0)
    p90 = quantile(latencies, 0.9)
    return {
        "attempted": len(results),
        "failed": len(results) - answered + (code != 0),
        "metrics": {
            "setup_s": median(setup * f for setup, f in setups),
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_p90_ms": p90,
            "slo_share": within / len(results),
            "capacity_rps": capacity,
            "trials_per_s": capacity,
            "lint_s": 1.0 / capacity if capacity else float("inf"),
            "peak_rss_mb": rss,
        },
        "detail": {
            "sent": len(results),
            "beyond_p90": sum(1 for v in latencies if v > p90),
            "raw_latency_p50_ms": quantile(raw_ms, 0.5),
            "raw_latency_p90_ms": quantile(raw_ms, 0.9),
            "raw_capacity_rps": raw_capacity,
            "raw_setup_seconds": [setup for setup, _ in setups],
            "speed_factors": {"setup": [f for _, f in setups],
                              "blocks": factors[::BLOCK]},
            "exit_code": code,
            "failed_keys": [result[0] for ok, result in zip(correct, results)
                            if not ok][:20],
        },
        "stats": stats,
        "window": window,
        "loadgen_threads": 2,
    }
