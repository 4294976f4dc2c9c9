"""The one way to run work in another process.

:class:`WorkerPool` is the mechanism under the engine's chunk
look-ahead (:mod:`repro.linkage.engine`) and the supervised shard loop
(:mod:`repro.supervision.supervisor`); nothing else under ``repro``
creates a process. It holds no policy, only four answers:

- **launch** — lazily, by fork (spawn where there is none), at most
  ``n_workers``, one pipe each; further jobs wait in the parent.
- **liveness** — a closed pipe is a dead worker: the job it ran, and
  only that job, raises :class:`WorkerDied` naming the exit code.
- **kill** — one worker, by the job it runs; the slot refills on demand.
- **parent death** — an idle worker checks ``os.getppid()`` every
  :data:`PARENT_POLL` seconds and a busy one before it answers, so
  none outlives its parent by more than that plus its current job.

A worker's exception is a result: :meth:`WorkerPool.result` raises it
as itself. What will not pickle, either way, is a
:class:`pickle.PicklingError` / :class:`pickle.UnpicklingError` of that
job alone. ``n_workers=0`` is the same interface with no second
process: each call runs in the caller at :meth:`~WorkerPool.submit`,
an escaping :class:`~repro.resilience.policy.InjectedWorkerDeath`
standing for the exit a real worker would have made.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque

from repro.resilience.policy import InjectedWorkerDeath, ResilienceError
from repro.resilience.testing import KILL_EXIT_CODE

__all__ = ["PARENT_POLL", "WorkerDied", "WorkerPool"]

#: Seconds between an idle worker's checks that its parent is alive.
PARENT_POLL = 1.0


class WorkerDied(ResilienceError):
    """The worker running a job exited before answering it."""


def _worker_main(conn, parent: int, initializer, initargs) -> None:
    """A worker's whole life: answer jobs until the parent goes away."""
    if initializer is not None:
        initializer(*initargs)
    while os.getppid() == parent:
        if not conn.poll(PARENT_POLL):
            continue
        try:
            fn, args = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):  # the parent closed the pipe
            break
        try:
            answer = (True, fn(*args))
        except InjectedWorkerDeath:
            os._exit(KILL_EXIT_CODE)
        except Exception as error:  # noqa: BLE001 — it is the job's answer
            answer = (False, error)
        try:
            payload = pickle.dumps(answer)
        except Exception as error:  # noqa: BLE001 — whatever pickle raised
            what = "result" if answer[0] else repr(answer[1])
            payload = pickle.dumps(
                (False, pickle.PicklingError(f"cannot send {what}: {error!r}"))
            )
        if os.getppid() != parent:
            break
        try:
            conn.send_bytes(payload)
        except OSError:  # the parent closed the pipe, or died
            break
    # Not a return: a forked worker holds a copy of whatever its parent
    # had buffered on stdout, and a normal exit would write it again.
    os._exit(0)


class WorkerPool:
    """Run ``fn(*args)`` calls on up to ``n_workers`` worker processes.

    ``initializer(*initargs)`` runs once in each worker as it starts.
    A job is the handle :meth:`submit` returns; it is spent once
    :meth:`result` or :meth:`kill` has been called with it.
    """

    def __init__(self, n_workers: int, initializer=None, initargs=()) -> None:
        self._n_workers = n_workers
        self._init = (initializer, tuple(initargs))
        self._jobs = 0
        self._queue: deque[tuple[int, bytes]] = deque()
        self._idle: list[tuple] = []  # (process, connection)
        self._busy: dict[int, tuple] = {}  # job -> (process, connection)
        self._answers: dict[int, tuple[bool, object]] = {}

    def submit(self, fn, *args) -> int:
        """Queue one call; an unpicklable ``fn``/``args`` raises here."""
        job = self._jobs = self._jobs + 1
        if self._n_workers == 0:
            try:
                self._answers[job] = (True, fn(*args))
            except InjectedWorkerDeath as death:
                died = WorkerDied(str(death))
                died.__cause__ = death
                self._answers[job] = (False, died)
            except Exception as error:  # noqa: BLE001 — the job's answer
                self._answers[job] = (False, error)
            return job
        self._queue.append((job, pickle.dumps((fn, args))))
        self._dispatch()
        return job

    def _dispatch(self) -> None:
        """Hand queued jobs to idle workers, starting workers as needed."""
        while self._queue and (
            self._idle or len(self._busy) < self._n_workers
        ):
            process, conn = self._idle.pop() if self._idle else self._start()
            job, payload = self._queue.popleft()
            try:
                conn.send_bytes(payload)
            except OSError:  # an idle worker died; the pipe says so now
                self._answers[job] = (False, self._reap(process, conn))
            else:
                self._busy[job] = (process, conn)

    def _start(self) -> tuple:
        """Fork one worker (spawn it where there is no fork)."""
        # Imported here: a run that never leaves its process — every
        # default path — should not pay ~1.5 MB for multiprocessing.
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context("spawn")
        conn, theirs = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(theirs, os.getpid(), *self._init),
            daemon=True,
        )
        process.start()
        theirs.close()
        return process, conn

    def poll(self, timeout: float | None = 0.0) -> list[int]:
        """Wait up to ``timeout`` seconds (``None``: for ever) for an
        answer; return every job whose answer is waiting, oldest first."""
        by_conn = {conn: job for job, (__, conn) in self._busy.items()}
        ready = ()
        if by_conn:
            from multiprocessing.connection import wait

            ready = wait(list(by_conn), timeout)
        for conn in ready:
            job = by_conn[conn]
            process, __ = self._busy.pop(job)
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                self._answers[job] = (False, self._reap(process, conn))
                continue
            self._idle.append((process, conn))
            try:
                self._answers[job] = pickle.loads(payload)
            except Exception as error:  # noqa: BLE001 — e.g. a bad __init__
                self._answers[job] = (
                    False,
                    pickle.UnpicklingError(f"cannot read answer: {error!r}"),
                )
        self._dispatch()
        return sorted(self._answers)

    def result(self, job: int, timeout: float | None = None):
        """The job's value, or its exception raised as itself.

        A job still unanswered after ``timeout`` seconds is killed —
        its worker with it, no other — and raises :class:`TimeoutError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while job not in self._answers and self._busy:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.kill(job)
                    raise TimeoutError(f"job unanswered after {timeout}s")
            self.poll(remaining)
        ok, value = self._answers.pop(job)  # KeyError: a spent job
        if ok:
            return value
        raise value

    def kill(self, job: int) -> None:
        """Forget ``job``, killing the worker that runs it (if any)."""
        self._answers.pop(job, None)
        self._queue = deque(
            entry for entry in self._queue if entry[0] != job
        )
        if job in self._busy:
            self._reap(*self._busy.pop(job), kill=True)
            self._dispatch()

    @staticmethod
    def _reap(process, conn, kill: bool = False) -> WorkerDied:
        """Collect a dead (or to be killed) worker; say how it went."""
        if kill:
            process.kill()
        process.join()
        died = WorkerDied(f"exit code {process.exitcode}")
        process.close()
        conn.close()
        return died

    def close(self) -> None:
        """Kill every worker and drop every job: a hung worker must not
        outlive the run, and an idle one has nothing to lose."""
        workers = [*self._idle, *self._busy.values()]
        self._idle, self._busy = [], {}
        self._queue.clear()
        self._answers.clear()
        for process, conn in workers:
            self._reap(process, conn, kill=True)
