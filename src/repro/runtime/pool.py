"""Isolated trial execution: serial fault containment and a process pool.

One crashed, hung, or exception-raising trial must never take down a
sweep. Two executors share one submit/poll/shutdown shape and one per-task
body (:func:`run_task`, which enforces the per-trial ``SIGALRM``
deadline and converts an exception into a
:class:`~repro.runtime.trial.TrialFailure`):

* :class:`InlineExecutor` (``workers=0``) — trials run in-process, one
  at a time, on the calling thread.
* :class:`WorkerPool` (``workers >= 1``) — each worker is its own OS
  process with a dedicated pipe; the parent hands out one task at a
  time, so it always knows exactly which trial a worker holds. A worker
  that dies (segfault, ``os._exit``, OOM-kill) yields a ``"crash"``
  failure for its in-flight trial and is replaced; one that overruns its
  deadline past a grace period is killed and replaced (``"timeout"``).
  Workers come from a fork server, never from forking the (possibly
  threaded) caller.

Results are keyed by trial, never by completion order, so aggregation
is bit-identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Iterator, Sequence

from repro.runtime.errors import TrialTimeout
from repro.runtime.trial import (
    FAILURE_CRASH,
    FAILURE_TIMEOUT,
    TrialFailure,
    TrialKey,
    TrialOutcome,
)

#: Extra seconds past the in-worker alarm before the parent hard-kills.
PARENT_KILL_GRACE = 2.0

#: Parent poll tick while waiting on worker pipes (seconds).
_WAIT_TICK = 0.25

#: Callback fired as each outcome lands (journaling hook).
OutcomeHook = Callable[[TrialKey, TrialOutcome], None]


@dataclass(frozen=True)
class PoolTask:
    """One unit of work: ``fn(*args)`` must return a journalable payload.

    For parallel execution ``fn`` and every element of ``args`` must be
    picklable (module-level functions and ``functools.partial`` of them
    qualify; closures and lambdas do not).
    """

    key: TrialKey
    fn: Callable[..., TrialOutcome]
    args: tuple[Any, ...] = ()


@contextmanager
def trial_deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`TrialTimeout` in the current frame after ``seconds``.

    Uses ``SIGALRM``, so it only arms on the main thread of a Unix
    process (worker processes qualify); elsewhere it is a no-op and the
    parent-side kill remains the only enforcement.
    """
    if (seconds is None or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise TrialTimeout(f"trial exceeded its {seconds:g}s budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_task(fn: Callable[..., TrialOutcome], args: tuple[Any, ...],
             timeout: float | None, strict: bool = False) -> TrialOutcome:
    """Run one task under its deadline: the body every executor shares.

    An exception (the deadline's :class:`TrialTimeout` included) becomes
    a structured :class:`TrialFailure`, unless ``strict`` asks for it to
    propagate (the historical abort-on-error semantics).
    """
    start = time.perf_counter()
    try:
        with trial_deadline(timeout):
            return fn(*args)
    except Exception as exc:
        if strict:
            raise
        return TrialFailure.from_exception(
            exc, elapsed=time.perf_counter() - start)


def run_tasks(tasks: Sequence[PoolTask], *,
              workers: int = 0,
              timeout: float | None = None,
              strict: bool = False,
              on_outcome: OutcomeHook | None = None
              ) -> dict[TrialKey, TrialOutcome]:
    """Execute every task, converting failures into structured records.

    Args:
        tasks: the work list (keys must be unique).
        workers: 0 = in-process serial; N >= 1 = N isolated processes.
        timeout: per-trial wall-clock budget (seconds), or ``None``.
        strict: serial only — re-raise the first trial exception instead
            of recording it (the historical abort-on-error semantics).
        on_outcome: called with each ``(key, outcome)`` as it completes,
            before the next trial starts — the journaling hook.
    """
    if len({task.key for task in tasks}) != len(tasks):
        raise ValueError("pool task keys must be unique")
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if strict and workers > 0:
        raise ValueError("strict mode is serial-only (workers=0)")
    executor: InlineExecutor | WorkerPool = (
        InlineExecutor(strict=strict) if workers == 0
        else WorkerPool(min(workers, len(tasks)) or 1))
    pending = list(reversed(tasks))  # pop() serves tasks in given order
    outcomes: dict[TrialKey, TrialOutcome] = {}
    try:
        while len(outcomes) < len(tasks):
            landed: list[tuple[TrialKey, TrialOutcome]] = []
            while pending and executor.can_accept():
                task = pending.pop()
                immediate = executor.submit(task, timeout)
                if immediate is not None:
                    landed.append((task.key, immediate))
            for key, outcome in landed + executor.poll(_WAIT_TICK):
                outcomes[key] = outcome
                if on_outcome is not None:
                    on_outcome(key, outcome)
    finally:
        executor.shutdown()
    return outcomes


class InlineExecutor:
    """:class:`WorkerPool`'s submit/poll shape, run in-process.

    :meth:`submit` holds one task; the next :meth:`poll` runs it on the
    calling thread through :func:`run_task`, without waiting (on the
    CLI's main thread, so ``trial_deadline`` arms ``SIGALRM``). Crashes
    and alarm-proof hangs are not contained: that takes a WorkerPool.
    ``strict`` re-raises a task's exception from :meth:`poll`.
    """

    def __init__(self, strict: bool = False):
        self._strict = strict
        self._held: tuple[PoolTask, float | None] | None = None
        self._closed = False

    def can_accept(self) -> bool:
        return not self._closed and self._held is None

    def submit(self, task: PoolTask,
               timeout: float | None = None) -> TrialFailure | None:
        """Hold one task for the next :meth:`poll`; never fails early."""
        if not self.can_accept():
            raise RuntimeError("executor is shut down or holds a task")
        self._held = (task, timeout)
        return None

    def poll(self, timeout: float = _WAIT_TICK
             ) -> list[tuple[TrialKey, TrialOutcome]]:
        """Run the held task, if any (``timeout`` is never waited)."""
        if self._held is None:
            return []
        (task, budget), self._held = self._held, None
        return [(task.key, run_task(task.fn, task.args, budget,
                                    self._strict))]

    def shutdown(self) -> None:
        self._closed = True
        self._held = None


# ---------------------------------------------------------------------------
# Parallel pool
# ---------------------------------------------------------------------------

_STOP = ("stop",)

#: Process name of every pool worker (see :func:`in_pool_worker`).
_WORKER_NAME = "repro-pool-worker"

#: Imported once by the fork server, so fresh workers start warm.
_WORKER_PRELOAD = ["repro.service.session", "repro.runtime.execute"]


def in_pool_worker() -> bool:
    """Whether the caller runs inside a :class:`WorkerPool` worker."""
    return multiprocessing.current_process().name == _WORKER_NAME


def _worker_main(conn: Connection) -> None:
    """Worker loop: receive one task, run it, send one outcome, repeat."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _tag, key, fn, args, timeout = message
            start = time.perf_counter()
            outcome = run_task(fn, args, timeout)
            try:
                reply = ForkingPickler.dumps((key, outcome))
            except Exception as exc:
                # Unpicklable payload: report a structured failure
                # instead — with the original error preserved, on stderr
                # (the parent cannot see it otherwise) and in the
                # failure message itself.
                detail = f"{type(exc).__name__}: {exc}"
                print(f"repro.runtime.pool worker: could not send outcome "
                      f"for {key!r}: {detail}", file=sys.stderr)
                reply = ForkingPickler.dumps((key, TrialFailure(
                    kind="exception", error_type="PicklingError",
                    message=f"trial payload could not be pickled "
                            f"({detail})",
                    elapsed=time.perf_counter() - start)))
            conn.send_bytes(reply)
    except (EOFError, OSError):  # repro: allow=contracts-broad-catch-swallow — the parent closed the pipe or is gone: normal shutdown, nothing to report and no one to report it to
        return


class _Worker:
    """Parent-side handle: process, pipe, and the in-flight assignment."""

    def __init__(self, context: BaseContext):
        parent_conn, child_conn = multiprocessing.Pipe()
        process = context.Process(target=_worker_main, args=(child_conn,),
                                  name=_WORKER_NAME, daemon=True)
        process.start()
        child_conn.close()  # parent copy — close so worker death gives EOF
        self.process: BaseProcess = process
        self.conn: Connection = parent_conn
        self.task: PoolTask | None = None
        self.timeout: float | None = None
        self.started_at = 0.0

    def assign(self, task: PoolTask, timeout: float | None) -> None:
        self.conn.send(("task", task.key, task.fn, task.args, timeout))
        self.task = task
        self.timeout = timeout
        self.started_at = time.monotonic()

    def overdue(self, timeout: float | None) -> bool:
        if self.task is None or timeout is None:
            return False
        return time.monotonic() - self.started_at > timeout + PARENT_KILL_GRACE

    def elapsed(self) -> float:
        return time.monotonic() - self.started_at

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):  # repro: allow=contracts-broad-catch-swallow — the process already exited; kill is best-effort by design
            pass
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # repro: allow=contracts-broad-catch-swallow — double-close of an already-broken pipe during teardown is harmless
            pass

    def stop(self) -> None:
        try:
            self.conn.send(_STOP)
            self.conn.close()
        except (OSError, ValueError, BrokenPipeError):  # repro: allow=contracts-broad-catch-swallow — worker already gone at shutdown; stop is best-effort and kill() follows
            pass


class WorkerPool:
    """A persistent pool of isolated worker processes.

    :func:`run_tasks` owns a fixed task list and returns when it is
    done; a ``WorkerPool`` is long-lived — callers (the routing
    service's request loop) submit tasks as they arrive, :meth:`poll`
    for completions, and :meth:`shutdown` when done. The caller owns
    any graceful drain: it decides how long in-flight work may still
    land before shutdown kills it.

    Workers are spawned lazily up to ``workers``; a worker that crashes
    or overruns its per-task deadline is killed and simply not counted
    against capacity anymore, so the next :meth:`submit` replaces it.

    Args:
        workers: maximum concurrent worker processes (values below 1
            are treated as 1 — callers validate their own flags).
        context: multiprocessing context (defaults to a preloaded fork
            server where available, else spawn).
    """

    def __init__(self, workers: int, context: BaseContext | None = None):
        self.target = max(1, workers)
        self._context = context if context is not None else _pool_context()
        self._live: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._closed = False

    # -- capacity -----------------------------------------------------

    def in_flight(self) -> int:
        """Tasks currently assigned to a live worker."""
        return sum(1 for w in self._live if w.task is not None)

    def in_flight_keys(self) -> list[TrialKey]:
        return [w.task.key for w in self._live if w.task is not None]

    def can_accept(self) -> bool:
        """Whether :meth:`submit` would dispatch immediately."""
        return not self._closed and (bool(self._idle)
                                     or len(self._live) < self.target)

    # -- dispatch -----------------------------------------------------

    def submit(self, task: PoolTask,
               timeout: float | None = None) -> TrialFailure | None:
        """Dispatch one task to an idle (or freshly spawned) worker.

        Returns ``None`` on successful dispatch, or an immediate
        :class:`TrialFailure` when the task could not cross the process
        boundary (unpicklable function or arguments) — the worker stays
        usable either way.

        Args:
            task: the unit of work.
            timeout: per-task wall-clock budget in seconds; overruns are
                hard-killed after :data:`PARENT_KILL_GRACE` and surface
                from :meth:`poll` as structured timeout failures.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        while True:
            worker = self._checkout()
            try:
                worker.assign(task, timeout)
            except OSError:
                # The worker died while idle (crash between tasks): the
                # pipe is broken, not the task. Replace the casualty and
                # dispatch the same task to a fresh worker — capacity
                # must never shrink below target because of dead slots.
                self._discard(worker)
                continue
            except Exception as exc:  # unpicklable task
                self._idle.append(worker)
                return TrialFailure.from_exception(exc)
            return None

    def _checkout(self) -> _Worker:
        """An idle live worker, or a fresh one (dead idles are culled)."""
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            self._discard(worker)
        if len(self._live) >= self.target:
            raise RuntimeError("no idle worker (check can_accept first)")
        worker = _Worker(self._context)
        self._live.append(worker)
        return worker

    def poll(self, timeout: float = _WAIT_TICK
             ) -> list[tuple[TrialKey, TrialOutcome]]:
        """Completed (or failed) assignments since the last poll.

        Blocks up to ``timeout`` seconds waiting for worker pipes.
        Crashed workers yield a ``"crash"`` failure, deadline overruns a
        ``"timeout"`` failure; both kinds of casualty are killed and
        reaped here, freeing their capacity slot.
        """
        settled: list[tuple[TrialKey, TrialOutcome]] = []
        busy = [w for w in self._live if w.task is not None]
        if busy:
            ready = connection_wait([w.conn for w in busy], timeout=timeout)
            for worker in [w for w in busy if w.conn in ready]:
                task = worker.task
                assert task is not None
                try:
                    key, outcome = worker.conn.recv()
                except (EOFError, OSError):
                    settled.append((task.key, _crash_failure(worker)))
                    self._discard(worker)
                    continue
                worker.task = None
                settled.append((key, outcome))
                self._idle.append(worker)
        for worker in list(self._live):
            if worker.task is not None and worker.overdue(worker.timeout):
                budget = worker.timeout
                assert budget is not None
                settled.append((worker.task.key, TrialFailure(
                    kind=FAILURE_TIMEOUT, error_type="TrialTimeout",
                    message=f"worker exceeded the {budget:g}s trial budget "
                            f"(hard-killed after grace period)",
                    elapsed=worker.elapsed())))
                self._discard(worker)
        return settled

    # -- lifecycle ----------------------------------------------------

    def shutdown(self) -> None:
        """Immediate teardown: stop idle workers, kill busy ones."""
        self._closed = True
        for worker in list(self._live):
            if worker.task is None:
                worker.stop()
            else:
                worker.kill()
        for worker in self._live:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.kill()
        self._live.clear()
        self._idle.clear()

    def _discard(self, worker: _Worker) -> None:
        """Kill and forget one worker (its capacity slot frees up)."""
        if worker in self._live:
            self._live.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)
        worker.kill()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def _crash_failure(worker: _Worker) -> TrialFailure:
    worker.process.join(timeout=5.0)  # reap, so the exit code is readable
    exitcode = worker.process.exitcode
    return TrialFailure(
        kind=FAILURE_CRASH, error_type="WorkerCrash",
        message=f"worker process died mid-trial (exit code {exitcode})",
        elapsed=worker.elapsed())


def _pool_context() -> BaseContext:
    """A fork server with the worker modules preloaded, else spawn.

    Never plain ``fork``: a daemon's workers start after its reader and
    heartbeat threads, and a forked child inherits every lock another
    thread held at that instant.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(_WORKER_PRELOAD)
    return context
