"""Execution backends for the Eq. 7 grid: serial or a process pool.

Two executors behind one future-returning ``submit``: in-process serial
execution, and a process pool for true CPU parallelism across grid
cells.  The worker count alone picks between them
(:func:`create_executor`).  Callers reassemble results by key, and LLM
calls stay serial inside a cell, so fixed seeds give bit-identical
outcomes at any worker count.

The process pool requires picklable work; :func:`repro.runtime.batch.
evaluate_many` checks a grid's payload once and raises a ``TypeError``
instead of running it anywhere else.
"""

from __future__ import annotations

import concurrent.futures as cf

from repro.runtime.config import RuntimeConfig


class Executor:
    """Common interface: future-returning ``submit``."""

    kind = "base"

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))

    def submit(self, fn, *args) -> "cf.Future":
        """Schedule one call; returns a :class:`concurrent.futures.Future`."""
        raise NotImplementedError

    def submit_unchecked(self, fn, *args) -> "cf.Future":
        """Same as ``submit``.

        Kept by name because the benchmark's tracer
        (``perfbench/spans.py::watch_executor``) wraps both ``submit``
        and ``submit_unchecked`` on every executor it watches.
        """
        return self.submit(fn, *args)

    def shutdown(self) -> None:
        """Release worker resources (idempotent)."""

    def describe(self) -> str:
        return f"{self.kind}[{self.workers}]"

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(Executor):
    """In-process, in-order execution (the zero-dependency baseline)."""

    kind = "serial"

    def __init__(self):
        super().__init__(workers=1)

    def submit(self, fn, *args) -> "cf.Future":
        future: cf.Future = cf.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # surfaced via future.result()
            future.set_exception(exc)
        return future


class ProcessExecutor(Executor):
    """Process-pool backend: true CPU parallelism for picklable work.

    The pool starts on the first ``submit``.
    """

    kind = "process"

    def __init__(self, workers: int = 2):
        super().__init__(workers)
        self._pool: cf.ProcessPoolExecutor | None = None

    def submit(self, fn, *args) -> "cf.Future":
        if self._pool is None:
            self._pool = cf.ProcessPoolExecutor(max_workers=self.workers)
        return self._pool.submit(fn, *args)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def create_executor(jobs: int | None = None) -> Executor:
    """Serial for one job, a process pool of ``jobs`` workers beyond.

    ``jobs=None`` reads ``REPRO_JOBS`` (default 1).
    """
    jobs = RuntimeConfig.from_env(jobs=jobs).jobs
    if jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
