"""The worker pool (repro.resilience.workers): the one mechanism under
the engine's process backend and the supervised shard loop.

Each test holds one of the pool's invariants: a worker's exception is
a result, a closed pipe is a death, only the dead worker's job is lost,
a timeout costs one worker, and nothing is left behind after ``close``.
That no worker outlives its *parent* is held where parents really die:
``tests/test_recovery.py::TestKillResume``.
"""

import gc
import importlib
import inspect
import os
import pickle
import pkgutil
import threading
import time

import pytest

import repro
from repro.resilience import (
    ChunkExecutionError,
    InjectedWorkerDeath,
    WorkerDied,
    WorkerPool,
)
from tests.procs import assert_gone, live_processes, needs_proc


def _square(n):
    return n * n


def _exit_with(code):
    os._exit(code)


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _raise_chunk_error():
    raise ChunkExecutionError("3.1", "crash", 2, (("a", "b"),), KeyError("k"))


def _a_lock():
    return threading.Lock()


def _flap():
    raise InjectedWorkerDeath(1, 2)


@pytest.mark.slow
class TestWorkerProcesses:
    def test_answers_arrive_for_more_jobs_than_workers(self):
        pool = WorkerPool(2)
        try:
            jobs = [pool.submit(_square, n) for n in range(7)]
            assert jobs == sorted(jobs)
            assert [pool.result(job) for job in jobs] == [
                n * n for n in range(7)
            ]
        finally:
            pool.close()

    def test_a_dead_worker_costs_its_own_job_only(self):
        pool = WorkerPool(2)
        try:
            doomed = pool.submit(_exit_with, 3)
            neighbour = pool.submit(_pid_after, 0.2)
            with pytest.raises(WorkerDied, match="exit code 3"):
                pool.result(doomed)
            assert pool.result(neighbour) != os.getpid()
            # The slot refills on demand.
            assert pool.result(pool.submit(_square, 5)) == 25
        finally:
            pool.close()

    @needs_proc
    def test_a_timeout_kills_exactly_one_worker(self):
        pool = WorkerPool(2)
        try:
            quick = pool.submit(_pid_after, 0.2)
            hung = pool.submit(_pid_after, 60.0)
            before = set(live_processes(parent=os.getpid()))
            assert len(before) == 2
            with pytest.raises(TimeoutError):
                pool.result(hung, timeout=0.4)
            survivors = set(live_processes(parent=os.getpid()))
            assert len(before - survivors) == 1
            assert {pool.result(quick)} == survivors
        finally:
            pool.close()

    def test_a_workers_named_error_arrives_as_itself(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(ChunkExecutionError) as caught:
                pool.result(pool.submit(_raise_chunk_error))
        finally:
            pool.close()
        error = caught.value
        assert (error.chunk_id, error.kind, error.attempts) == (
            "3.1", "crash", 2,
        )
        assert error.items == (("a", "b"),)
        assert isinstance(error.cause, KeyError)
        assert "chunk 3.1 failed (crash) after 2 attempt(s)" in str(error)

    def test_an_unpicklable_value_fails_its_job_by_name(self):
        pool = WorkerPool(1)
        try:
            job = pool.submit(_a_lock)
            with pytest.raises(pickle.PicklingError, match="cannot send"):
                pool.result(job, timeout=20.0)
            assert pool.result(pool.submit(_square, 3)) == 9
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pool.submit(lambda: None)
        finally:
            pool.close()

    @needs_proc
    def test_close_leaves_no_child_and_no_warning(self, recwarn):
        pool = WorkerPool(2)
        pool.submit(_pid_after, 60.0)
        assert pool.result(pool.submit(_square, 2)) == 4
        assert len(live_processes(parent=os.getpid())) == 2
        pool.close()
        del pool
        gc.collect()
        assert_gone(0.0, parent=os.getpid())
        assert not [w for w in recwarn if w.category is ResourceWarning]


def test_inline_pool_is_the_same_interface():
    pool = WorkerPool(0)
    assert pool.result(pool.submit(_square, 4)) == 16
    ran_here = pool.submit(_pid_after, 0.0)
    assert pool.poll() == [ran_here]
    assert pool.result(ran_here) == os.getpid()
    with pytest.raises(ChunkExecutionError):
        pool.result(pool.submit(_raise_chunk_error))
    with pytest.raises(WorkerDied) as died:
        pool.result(pool.submit(_flap))
    assert isinstance(died.value.__cause__, InjectedWorkerDeath)
    assert died.value.__cause__.incarnation == 2
    pool.close()


# --- every named error survives the pipe --------------------------------


def _error_classes():
    """Every exception class defined anywhere under ``repro``."""
    found = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        for __, value in inspect.getmembers(
            importlib.import_module(module.name), inspect.isclass
        ):
            if issubclass(value, BaseException) and (
                value.__module__.startswith("repro.")
            ):
                found.add(value)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


_SAMPLES = {
    "str": "sample",
    "int": 3,
    "float": 1.5,
    "tuple": (("a", "b"),),
    "BaseException": ValueError("why"),
}


def _build(cls):
    """An instance with every constructor parameter filled, defaults
    included, by annotation (an unannotated one gets an id pair)."""
    parameters = [
        parameter
        for parameter in inspect.signature(cls.__init__).parameters.values()
        if parameter.kind is parameter.POSITIONAL_OR_KEYWORD
        and parameter.name != "self"
    ]
    if not parameters:
        return cls("something went wrong")
    return cls(
        *(
            _SAMPLES.get(str(p.annotation).split(" |")[0], ("a", "b"))
            for p in parameters
        )
    )


def test_discovery_finds_the_named_errors():
    names = {cls.__name__ for cls in _error_classes()}
    assert len(names) >= 20
    assert {
        "ChunkExecutionError", "PoisonPairError", "DeadlineExceededError",
        "InjectedWorkerDeath", "SupervisionExhaustedError",
        "CheckpointMismatchError", "ConvergenceError", "WorkerDied",
    } <= names


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_under_repro_round_trips_through_pickle(cls):
    error = _build(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    assert {name: repr(value) for name, value in vars(copy).items()} == {
        name: repr(value) for name, value in vars(error).items()
    }
