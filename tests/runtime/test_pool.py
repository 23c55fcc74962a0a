"""Fault containment in the trial pool: exceptions, crashes, hangs.

The worker functions live at module level so they pickle across the
process boundary; the hostile ones (``os._exit``, alarm-proof sleeps)
exist precisely to prove a sweep survives them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.runtime import PoolTask, TrialFailure, TrialResult, TrialTimeout
from repro.runtime.pool import _worker_main, run_tasks, trial_deadline
from repro.runtime.trial import FAILURE_CRASH, FAILURE_EXCEPTION, FAILURE_TIMEOUT

ROOT = Path(__file__).resolve().parents[2]


def payload(size, trial):
    """A distinguishable, picklable trial result for (size, trial)."""
    return TrialResult(algorithm="test", model="none",
                       delay=float(size) + trial / 100.0, cost=1.0,
                       base_delay=1.0, base_cost=1.0)


def ok_trial(size, trial):
    return payload(size, trial)


def boom_trial():
    raise ValueError("scripted trial bug")


def crash_trial():
    os._exit(13)  # simulates a segfault/OOM-kill: no exception, no goodbye


def hang_trial():
    time.sleep(60.0)  # interruptible by the in-worker SIGALRM


def stubborn_hang_trial():
    # Block SIGALRM so the in-worker deadline can't fire; only the
    # parent-side hard kill can end this one.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(60.0)


def unpicklable_payload_trial():
    # The trial itself succeeds; only its return value can't cross the
    # pipe (closures don't pickle).
    return lambda: 1


def ok_tasks(n, size=5):
    return [PoolTask(key=(size, t), fn=ok_trial, args=(size, t))
            for t in range(n)]


class TestTrialDeadline:
    def test_none_is_noop(self):
        with trial_deadline(None):
            pass

    def test_raises_after_budget(self):
        start = time.perf_counter()
        with pytest.raises(TrialTimeout):
            with trial_deadline(0.2):
                time.sleep(5.0)
        assert time.perf_counter() - start < 2.0

    def test_disarms_on_exit(self):
        with trial_deadline(0.2):
            pass
        time.sleep(0.3)  # an undisarmed alarm would fire here


class GoneParent:
    """The worker's end of a pipe whose parent died after sending a task."""

    def __init__(self):
        self.sends = 0
        self._messages = [("task", (5, 0), ok_trial, (5, 0), None)]

    def recv(self):
        if self._messages:
            return self._messages.pop()
        raise EOFError

    def send(self, obj):
        self.sends += 1
        raise BrokenPipeError(32, "Broken pipe")

    send_bytes = send


class TestWorkerLoop:
    def test_exits_quietly_when_parent_is_gone(self, capsys, monkeypatch):
        def no_hard_exit(code):
            raise AssertionError(f"worker called os._exit({code})")

        monkeypatch.setattr(os, "_exit", no_hard_exit)
        conn = GoneParent()
        previous = signal.getsignal(signal.SIGINT)
        try:
            _worker_main(conn)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert conn.sends == 1  # no fallback send into a dead pipe
        assert capsys.readouterr().err == ""


class TestSerial:
    def test_results_keyed_by_trial(self):
        outcomes = run_tasks(ok_tasks(3))
        assert set(outcomes) == {(5, 0), (5, 1), (5, 2)}
        assert outcomes[(5, 2)] == payload(5, 2)

    def test_exception_becomes_structured_failure(self):
        tasks = [PoolTask(key=(5, 0), fn=boom_trial),
                 PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
        outcomes = run_tasks(tasks)
        failure = outcomes[(5, 0)]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == FAILURE_EXCEPTION
        assert failure.error_type == "ValueError"
        assert "scripted trial bug" in failure.message
        assert "ValueError" in failure.traceback
        assert outcomes[(5, 1)] == payload(5, 1)  # sweep continued

    def test_strict_reraises_first_error(self):
        tasks = [PoolTask(key=(5, 0), fn=boom_trial)]
        with pytest.raises(ValueError, match="scripted trial bug"):
            run_tasks(tasks, strict=True)

    def test_timeout_contained(self):
        tasks = [PoolTask(key=(5, 0), fn=hang_trial),
                 PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
        outcomes = run_tasks(tasks, timeout=0.3)
        failure = outcomes[(5, 0)]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == FAILURE_TIMEOUT
        assert outcomes[(5, 1)] == payload(5, 1)

    def test_on_outcome_fires_in_order(self):
        seen = []
        run_tasks(ok_tasks(3), on_outcome=lambda k, o: seen.append(k))
        assert seen == [(5, 0), (5, 1), (5, 2)]

    def test_duplicate_keys_rejected(self):
        tasks = [PoolTask(key=(5, 0), fn=ok_trial, args=(5, 0))] * 2
        with pytest.raises(ValueError, match="unique"):
            run_tasks(tasks)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            run_tasks([], workers=-1)
        with pytest.raises(ValueError, match="serial-only"):
            run_tasks([], workers=2, strict=True)


class TestParallel:
    def test_matches_serial_for_any_worker_count(self):
        tasks = ok_tasks(6)
        serial = run_tasks(tasks)
        for workers in (1, 3):
            assert run_tasks(tasks, workers=workers) == serial

    def test_worker_exception_contained(self):
        tasks = [PoolTask(key=(5, 0), fn=boom_trial),
                 PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
        outcomes = run_tasks(tasks, workers=1)
        assert isinstance(outcomes[(5, 0)], TrialFailure)
        assert outcomes[(5, 0)].error_type == "ValueError"
        assert outcomes[(5, 1)] == payload(5, 1)

    def test_worker_crash_recorded_and_pool_recovers(self):
        tasks = [PoolTask(key=(5, 0), fn=ok_trial, args=(5, 0)),
                 PoolTask(key=(5, 1), fn=crash_trial),
                 PoolTask(key=(5, 2), fn=ok_trial, args=(5, 2))]
        outcomes = run_tasks(tasks, workers=1)
        crash = outcomes[(5, 1)]
        assert isinstance(crash, TrialFailure)
        assert crash.kind == FAILURE_CRASH
        assert "exit code 13" in crash.message
        # The replacement worker finished the rest of the sweep.
        assert outcomes[(5, 0)] == payload(5, 0)
        assert outcomes[(5, 2)] == payload(5, 2)

    def test_hung_worker_times_out_via_alarm(self):
        tasks = [PoolTask(key=(5, 0), fn=hang_trial),
                 PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
        outcomes = run_tasks(tasks, workers=2, timeout=0.3)
        failure = outcomes[(5, 0)]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == FAILURE_TIMEOUT
        assert outcomes[(5, 1)] == payload(5, 1)

    def test_alarm_proof_hang_is_hard_killed(self):
        # Even a worker that blocks SIGALRM cannot stall the sweep: the
        # parent kills it after the grace period and replaces it.
        tasks = [PoolTask(key=(5, 0), fn=stubborn_hang_trial),
                 PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
        outcomes = run_tasks(tasks, workers=1, timeout=0.2)
        failure = outcomes[(5, 0)]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == FAILURE_TIMEOUT
        assert "hard-killed" in failure.message
        assert outcomes[(5, 1)] == payload(5, 1)

    def test_unpicklable_task_becomes_failure(self):
        tasks = [PoolTask(key=(5, 0), fn=lambda: None),  # lambdas don't pickle
                 PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
        outcomes = run_tasks(tasks, workers=1)
        assert isinstance(outcomes[(5, 0)], TrialFailure)
        assert outcomes[(5, 1)] == payload(5, 1)

    def test_unpicklable_payload_reports_original_error(self):
        # The worker-side send ladder: the structured failure must carry
        # the original pickling error, and the worker must also surface
        # it on stderr before falling back. Workers write to the stderr
        # their fork server started with, not to this test's captured
        # descriptor, so the pool runs in a child interpreter whose
        # stderr is read here.
        script = textwrap.dedent("""
            import json
            from repro.runtime import PoolTask, TrialFailure
            from repro.runtime.pool import run_tasks
            from tests.runtime.test_pool import (
                ok_trial, payload, unpicklable_payload_trial)

            tasks = [PoolTask(key=(5, 0), fn=unpicklable_payload_trial),
                     PoolTask(key=(5, 1), fn=ok_trial, args=(5, 1))]
            outcomes = run_tasks(tasks, workers=1)
            failure = outcomes[(5, 0)]
            print(json.dumps({
                "is_failure": isinstance(failure, TrialFailure),
                "kind": failure.kind, "error_type": failure.error_type,
                "message": failure.message,
                "survived": outcomes[(5, 1)] == payload(5, 1)}))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0, proc.stderr
        failure = json.loads(proc.stdout)
        assert failure["is_failure"]
        assert failure["kind"] == FAILURE_EXCEPTION
        assert failure["error_type"] == "PicklingError"
        assert "could not be pickled" in failure["message"]
        assert "Can't pickle" in failure["message"]  # the original detail
        assert "could not send outcome" in proc.stderr
        # The worker survived and finished the rest of the sweep.
        assert failure["survived"]

    def test_more_workers_than_tasks(self):
        outcomes = run_tasks(ok_tasks(2), workers=8)
        assert len(outcomes) == 2
