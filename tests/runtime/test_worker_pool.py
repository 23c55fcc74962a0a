"""The persistent WorkerPool: submit/poll lifecycle and casualties.

Worker functions are shared with ``test_pool`` (module-level, hence
picklable); this file exercises the long-lived API the routing service
uses — the run-to-completion wrapper is covered there.
"""

from __future__ import annotations

import time

import pytest

from repro.runtime import PoolTask, TrialFailure, WorkerPool
from repro.runtime.trial import FAILURE_CRASH, FAILURE_TIMEOUT
from tests.runtime.test_pool import (
    crash_trial,
    ok_trial,
    payload,
    stubborn_hang_trial,
)


def collect(pool, n, timeout=30.0):
    """Poll until n outcomes land (or the wall-clock budget runs out)."""
    outcomes = {}
    deadline = time.monotonic() + timeout
    while len(outcomes) < n and time.monotonic() < deadline:
        for key, outcome in pool.poll(0.2):
            outcomes[key] = outcome
    assert len(outcomes) == n, f"only {len(outcomes)}/{n} landed"
    return outcomes


class TestSubmitPoll:
    def test_results_match_payloads(self):
        with WorkerPool(2) as pool:
            submitted = 0
            outcomes = {}
            while submitted < 5 or len(outcomes) < 5:
                while submitted < 5 and pool.can_accept():
                    task = PoolTask(key=(7, submitted), fn=ok_trial,
                                    args=(7, submitted))
                    assert pool.submit(task) is None
                    submitted += 1
                for key, outcome in pool.poll(0.2):
                    outcomes[key] = outcome
            assert outcomes == {(7, t): payload(7, t) for t in range(5)}

    def test_lazy_spawn_up_to_target(self):
        pool = WorkerPool(4)
        try:
            assert pool.in_flight() == 0
            assert pool.can_accept()
            pool.submit(PoolTask(key=(1, 0), fn=ok_trial, args=(1, 0)))
            assert pool.in_flight() == 1
            assert (1, 0) in pool.in_flight_keys()
        finally:
            pool.shutdown()

    def test_workers_below_one_are_clamped(self):
        pool = WorkerPool(0)
        assert pool.target == 1
        pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(PoolTask(key=(1, 0), fn=ok_trial, args=(1, 0)))

    def test_unpicklable_task_fails_immediately(self):
        with WorkerPool(1) as pool:
            immediate = pool.submit(
                PoolTask(key=(1, 0), fn=lambda: None))
            assert isinstance(immediate, TrialFailure)
            # the worker survives for the next submission
            assert pool.can_accept()


class TestCasualties:
    def test_crash_reported_and_capacity_recovers(self):
        with WorkerPool(1) as pool:
            pool.submit(PoolTask(key=(9, 0), fn=crash_trial))
            outcomes = collect(pool, 1)
            assert outcomes[(9, 0)].kind == FAILURE_CRASH
            # casualty freed its slot: the pool accepts and serves again
            assert pool.can_accept()
            pool.submit(PoolTask(key=(9, 1), fn=ok_trial, args=(9, 1)))
            outcomes = collect(pool, 1)
            assert outcomes[(9, 1)] == payload(9, 1)

    def test_sequential_crashes_never_shrink_capacity(self):
        # regression: each casualty must be replaced, so N crashes in a
        # row still leave the pool with its full complement of slots
        with WorkerPool(2) as pool:
            for round_ in range(3):
                pool.submit(PoolTask(key=(10, round_), fn=crash_trial))
                outcomes = collect(pool, 1)
                assert outcomes[(10, round_)].kind == FAILURE_CRASH
            # full capacity: two concurrent submissions both accepted
            assert pool.can_accept()
            pool.submit(PoolTask(key=(11, 0), fn=ok_trial, args=(11, 0)))
            assert pool.can_accept()
            pool.submit(PoolTask(key=(11, 1), fn=ok_trial, args=(11, 1)))
            outcomes = collect(pool, 2)
            assert outcomes == {(11, t): payload(11, t) for t in range(2)}
            assert len(pool._live) <= 2

    def test_worker_dying_while_idle_is_culled_on_next_submit(self):
        with WorkerPool(1) as pool:
            pool.submit(PoolTask(key=(12, 0), fn=ok_trial, args=(12, 0)))
            collect(pool, 1)
            # the worker sits idle; kill it behind the pool's back
            (casualty,) = pool._idle
            casualty.process.kill()
            casualty.process.join(timeout=10.0)
            # the next submit must notice, replace, and still deliver
            assert pool.submit(PoolTask(key=(12, 1), fn=ok_trial,
                                        args=(12, 1))) is None
            outcomes = collect(pool, 1)
            assert outcomes[(12, 1)] == payload(12, 1)

    def test_overdue_worker_hard_killed(self):
        with WorkerPool(1) as pool:
            pool.submit(PoolTask(key=(9, 2), fn=stubborn_hang_trial),
                        timeout=0.2)
            outcomes = collect(pool, 1, timeout=30.0)
            assert outcomes[(9, 2)].kind == FAILURE_TIMEOUT
