"""Ambient runtime sessions: which executor the engine sees, and who
shuts it down."""

from repro.runtime import ProcessExecutor, SerialExecutor, runtime_session
from repro.runtime.context import get_runtime


def square(x):
    return x * x


class TestRuntimeSession:
    def test_default_session_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with runtime_session() as context:
            assert context.executor.kind == "serial"
            assert get_runtime() is context

    def test_jobs_build_a_pool_the_session_shuts_down(self):
        with runtime_session(jobs=2) as context:
            pool = context.executor
            assert pool.describe() == "process[2]"
            assert pool.submit(square, 3).result() == 9
            assert pool._pool is not None
        assert pool._pool is None

    def test_ready_executor_is_left_to_its_owner(self):
        with ProcessExecutor(2) as pool:
            with runtime_session(executor=pool) as context:
                assert context.executor is pool
                assert pool.submit(square, 4).result() == 16
            assert pool._pool is not None  # still the caller's to close
            assert pool.submit(square, 5).result() == 25

    def test_sessions_nest_and_restore(self):
        outer_executor = SerialExecutor()
        with runtime_session(executor=outer_executor) as outer:
            with runtime_session(cache=False) as inner:
                assert get_runtime() is inner
                assert inner.cache is None
            assert get_runtime() is outer
            assert get_runtime().executor is outer_executor
        assert get_runtime() is not outer
