"""The fault-matrix acceptance run (the ISSUE's bar for this service).

A 200-request load with a 0.2 composite fault rate — worker kills,
malformed frames, deadline storms, oracle chaos — plus coalescing
duplicates, driven through the real CLI daemon over a pipe. The
contract: *every* failure surfaces as a typed, structured error frame
(no tracebacks anywhere, no hangs), duplicates are served warm, and a
mid-stream SIGTERM drains cleanly with the cache journal flushed.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.geometry.random_nets import random_net
from repro.service import ServiceFaultPlan, build_fault_stream

TYPED_KINDS = {"protocol", "overload", "draining", "drained", "timeout",
               "crash", "exception"}

PLAN = ServiceFaultPlan(seed=1994, kill_rate=0.05, malformed_rate=0.05,
                        storm_rate=0.05, chaos_rate=0.05)


def spawn_daemon(*flags, stderr=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=stderr, text=True, env=env)


def request_stream(count, duplicate_every=5):
    nets = [random_net(3, seed=2000 + i) for i in range(count)]
    return build_fault_stream(PLAN, nets, algorithm="ldrg",
                              deadline=30.0,
                              duplicate_every=duplicate_every)


@pytest.mark.slow
class TestFaultMatrix:
    def test_200_requests_all_structured(self, tmp_path):
        lines = request_stream(200)
        proc = spawn_daemon("--fault-injection", "--queue-capacity", "512",
                            "--cache-dir", str(tmp_path / "cache"))
        out, err = proc.communicate("\n".join(lines) + "\n", timeout=600)
        assert proc.returncode == 0
        assert "Traceback" not in err, err

        responses = [json.loads(line) for line in out.splitlines()]
        # every frame answered, well-formed or not
        assert len(responses) == len(lines)
        kinds = {}
        coalesced = cached = 0
        for response in responses:
            assert response["status"] in ("ok", "error")
            if response["status"] == "error":
                kind = response["error"]["kind"]
                assert kind in TYPED_KINDS, response
                assert "message" in response["error"]
                kinds[kind] = kinds.get(kind, 0) + 1
            else:
                coalesced += bool(response.get("coalesced"))
                cached += bool(response.get("cached"))
        # at 0.05 each over 200 requests, every fault class must appear
        assert kinds.get("protocol", 0) > 0       # malformed frames
        assert kinds.get("crash", 0) > 0          # worker kills
        assert kinds.get("timeout", 0) > 0        # deadline storms
        # duplicates were served warm, not recomputed
        assert coalesced + cached > 0
        # the warm cache journal was flushed to disk
        assert list((tmp_path / "cache").glob("result_*.json"))

    def test_sigterm_mid_stream_drains_cleanly(self, tmp_path):
        lines = request_stream(120, duplicate_every=0)
        err_path = tmp_path / "stderr.txt"
        with err_path.open("w") as err_file:
            proc = spawn_daemon("--fault-injection", "--queue-capacity", "512",
                                "--drain-timeout", "5",
                                "--cache-dir", str(tmp_path / "cache"),
                                stderr=err_file)
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.write("\n".join(lines) + "\n")
        proc.stdin.flush()
        # Read replies on a thread so the signal can follow the first one:
        # a reply proves the daemon is up and serving, where a fixed sleep
        # raced its start-up.
        replies: queue.Queue = queue.Queue()

        def pump():
            for line in proc.stdout:
                replies.put((time.monotonic(), line))
            replies.put(None)

        threading.Thread(target=pump, daemon=True).start()
        first = replies.get(timeout=120)
        assert first is not None  # progress was made before the signal
        signalled = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        proc.stdin.close()
        assert proc.wait(timeout=120) == 0
        received = [first]
        while (reply := replies.get(timeout=10)) is not None:
            received.append(reply)
        err = err_path.read_text()
        assert "Traceback" not in err, err
        # The signal landed with a backlog, so the drain had work to do.
        assert any(at > signalled for at, _ in received)
        responses = [json.loads(line) for _, line in received]
        for response in responses:
            assert response["status"] in ("ok", "error")
            if response["status"] == "error":
                assert response["error"]["kind"] in TYPED_KINDS

    def test_pool_mode_survives_real_kills(self, tmp_path):
        lines = request_stream(30, duplicate_every=0)
        proc = spawn_daemon("--fault-injection", "--workers", "2",
                            "--queue-capacity", "512",
                            "--cache-dir", str(tmp_path / "cache"))
        out, err = proc.communicate("\n".join(lines) + "\n", timeout=600)
        assert proc.returncode == 0
        assert "Traceback" not in err, err
        responses = [json.loads(line) for line in out.splitlines()]
        assert len(responses) == len(lines)
        assert all(r["status"] in ("ok", "error") for r in responses)
        oks = [r for r in responses if r["status"] == "ok"]
        kinds = {}
        for r in responses:
            if r["status"] == "error":
                kind = r["error"]["kind"]
                kinds[kind] = kinds.get(kind, 0) + 1
        # killed workers were replaced and work continued
        assert oks, (kinds, err[-2000:])
