"""Executor backends: ordering, submit semantics, selection by worker
count."""

import operator
import os
import pickle
import time

import pytest

from repro.runtime.executor import (
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)


def square(x):
    return x * x


def boom(_x):
    raise ValueError("boom")


def slow_first(x):
    time.sleep(0.05 if x == 0 else 0.0)
    return x


def worker_pid(_x):
    return os.getpid()


class TestOrdering:
    @pytest.mark.parametrize(
        "make", [SerialExecutor, lambda: ProcessExecutor(2)], ids=["serial", "process"]
    )
    def test_results_follow_submission_order(self, make):
        with make() as executor:
            futures = [executor.submit(square, i) for i in range(20)]
            assert [f.result() for f in futures] == [i * i for i in range(20)]

    def test_process_order_independent_of_completion(self):
        with ProcessExecutor(4) as executor:
            futures = [executor.submit(slow_first, i) for i in range(8)]
            assert [f.result() for f in futures] == list(range(8))


class TestSubmit:
    def test_serial_submit_future(self):
        future = SerialExecutor().submit(square, 7)
        assert future.result() == 49

    def test_serial_submit_exception(self):
        future = SerialExecutor().submit(boom, 1)
        with pytest.raises(ValueError):
            future.result()

    def test_process_submit(self):
        with ProcessExecutor(2) as executor:
            assert executor.submit(operator.add, 2, 3).result() == 5
            assert executor.submit_unchecked(square, 4).result() == 16

    def test_process_submit_exception(self):
        with ProcessExecutor(2) as executor:
            with pytest.raises(ValueError, match="boom"):
                executor.submit(boom, 1).result()


    def test_serial_runs_in_the_caller_in_order(self):
        seen = []
        executor = SerialExecutor()
        for i in range(3):
            executor.submit(seen.append, i)
        assert seen == [0, 1, 2]  # each call ran before submit returned
        assert executor.submit(worker_pid, 0).result() == os.getpid()


class TestProcessPool:
    def test_picklable_work_uses_processes(self):
        with ProcessExecutor(2) as executor:
            pids = {executor.submit(worker_pid, i).result() for i in range(4)}
        assert os.getpid() not in pids

    def test_closure_is_refused_not_downgraded(self):
        captured = 10
        with ProcessExecutor(2) as executor:
            future = executor.submit(lambda x: x + captured, 1)
            # Local objects fail pickling with AttributeError.
            with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
                future.result()

    def test_pool_starts_on_first_submit(self):
        executor = ProcessExecutor(2)
        assert executor._pool is None
        with executor:
            executor.submit(square, 3).result()
            assert executor._pool is not None
        assert executor._pool is None

    def test_shutdown_is_idempotent_and_restartable(self):
        executor = ProcessExecutor(2)
        executor.shutdown()  # never started
        assert executor.submit(square, 2).result() == 4
        executor.shutdown()
        executor.shutdown()
        assert executor.submit(square, 5).result() == 25  # a fresh pool
        executor.shutdown()


class TestCreateExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert create_executor().kind == "serial"

    def test_one_job_is_serial(self):
        assert create_executor(jobs=1).kind == "serial"

    def test_jobs_selects_processes(self):
        with create_executor(jobs=2) as executor:
            assert executor.kind == "process"
            assert executor.describe() == "process[2]"

    def test_env_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        with create_executor() as executor:
            assert executor.kind == "process"
            assert executor.workers == 3

    def test_explicit_jobs_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert create_executor(jobs=1).kind == "serial"

    def test_env_one_job_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert create_executor().kind == "serial"

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            create_executor(jobs=0)

    def test_worker_count_is_the_only_knob(self):
        with pytest.raises(TypeError):
            create_executor(jobs=2, kind="serial")
