"""Execution backends for the Eq. 7 grid: serial or worker processes.

Two executors behind one future-returning ``submit``, picked by the
worker count alone (:func:`create_executor`): in-process serial
execution, and worker processes for CPU parallelism across grid cells.
Callers reassemble results by key, and LLM calls stay serial inside a
cell, so fixed seeds give bit-identical outcomes at any worker count.

:class:`WorkerProcess` is the one child that runs work out of process:
N of them behind the local pool, one behind each ``repro serve`` worker.
Its pipe carries a call out and brings back the events it emits (if
asked) and its outcome, with the child's ``STAGE_CLOCK`` and
``GATEWAY_STATS`` deltas.  A child that dies mid-call fails the call
with a :class:`WorkerError` and is respawned.  Children ignore SIGINT
(the parent drains them) and exit on pipe EOF (a killed parent leaves
no orphans).  The local pool forks before its dispatcher threads start,
so children inherit its imports and memos; the server, threaded
whenever it starts a child, spawns, as does every respawn.  Work must
pickle: :func:`repro.runtime.batch.evaluate_many` checks a grid's
payload once and raises ``TypeError`` instead of running it.
"""

from __future__ import annotations

import concurrent.futures as cf
import queue
import signal
import threading

from repro.runtime.config import RuntimeConfig


class WorkerError(Exception):
    """A call failed with its worker process; the message says how."""


def _child_main(conn) -> None:
    """A worker process: run calls from ``conn`` until EOF."""
    # The parent started us with SIGINT blocked: ignore it before
    # unblocking, so a Ctrl-C reaches only the parent, which drains us.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    from repro.core.pipeline import STAGE_CLOCK
    from repro.llm.gateway.client import GATEWAY_STATS

    def relay(event) -> None:
        conn.send(("event", event.to_json()))

    try:
        while True:
            fn, args, stream = conn.recv()
            STAGE_CLOCK.reset()
            GATEWAY_STATS.reset()
            try:
                reply = ("done", fn(*args, sink=relay) if stream else fn(*args))
            except Exception as exc:  # noqa: BLE001 -- raised in the parent
                reply = ("error", exc)
            conn.send((*reply, STAGE_CLOCK.snapshot(), GATEWAY_STATS.snapshot()))
    except (EOFError, OSError):
        pass  # the parent is gone: exit with it


class WorkerProcess:
    """One child process that runs the calls sent over its pipe,
    started by ``start_method`` ("fork" or "spawn")."""

    def __init__(self, start_method: str, name: str):
        import multiprocessing  # not imported by serial runs

        self.name = name
        self.process = None  # the current child (replaced on respawn)
        self._context = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._halted = False
        self._spawn()

    def _spawn(self) -> None:
        from multiprocessing import util

        with self._lock:
            if self._halted:
                return
            conn, child_end = self._context.Pipe()
            # Every child forked from now on (this one included) closes
            # its copy of this end, or this child would never see EOF.
            util.register_after_fork(conn, type(conn).close)
            process = self._context.Process(
                target=_child_main, args=(child_end,), name=self.name, daemon=True
            )
            # The child inherits the blocked mask, so a Ctrl-C during
            # its imports stays pending until _child_main ignores it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()
            self.process, self._conn = process, conn

    def call(self, fn, args: tuple = (), on_event=None):
        """``fn(*args)`` in the child, its result or exception here.

        With ``on_event`` the call also gets a ``sink`` keyword, and
        each event it emits there reaches ``on_event`` as it happens.
        """
        from repro.core.events import Event
        from repro.core.pipeline import STAGE_CLOCK
        from repro.llm.gateway.client import GATEWAY_STATS

        try:
            self._conn.send((fn, args, on_event is not None))
            while True:
                kind, payload, *clocks = self._conn.recv()
                if kind != "event":
                    break
                on_event(Event.from_json(payload))
        except (EOFError, OSError):
            raise WorkerError(self._died()) from None
        STAGE_CLOCK.merge(clocks[0])
        GATEWAY_STATS.add(**clocks[1])
        if kind == "error":
            raise payload
        return payload

    def _died(self) -> str:
        """Reap the dead child, respawn it (unless halted), and name it."""
        process = self.process
        process.join(10.0)
        self._conn.close()
        # The parent runs threads by now: a respawn never forks.
        self._context = self._context.get_context("spawn")
        self._spawn()
        return f"worker process died mid-job (exit code {process.exitcode})"

    def halt(self) -> None:
        """Kill the child for good (once idle, this loses nothing)."""
        with self._lock:
            self._halted = True
            process = self.process
        if process is not None:
            process.kill()

    def close(self) -> None:
        """Halt and reap the child.  Only the thread that drives it may
        close it: two threads joining one process race for its exit code."""
        self.halt()
        self.process.join()
        self._conn.close()


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
    """N forked worker processes, each fed from one shared queue by its
    own dispatcher thread.  The pool starts on the first ``submit``."""

    kind = "process"

    def __init__(self, workers: int = 2):
        super().__init__(workers)
        self._pool: list[WorkerProcess] | None = None
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []

    def submit(self, fn, *args) -> "cf.Future":
        if self._pool is None:
            # Every child forks before any dispatcher thread runs.
            self._pool = [
                WorkerProcess("fork", f"repro-worker-{index}")
                for index in range(self.workers)
            ]
            self._threads = [
                threading.Thread(target=self._dispatch, args=(child,), daemon=True)
                for child in self._pool
            ]
            for thread in self._threads:
                thread.start()
        future: cf.Future = cf.Future()
        self._jobs.put((future, fn, args))
        return future

    def _dispatch(self, child: WorkerProcess) -> None:
        while (job := self._jobs.get()) is not None:
            future, fn, args = job
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(child.call(fn, args))
            except Exception as exc:  # noqa: BLE001 -- surfaced via result()
                future.set_exception(exc)
        child.close()

    def shutdown(self) -> None:
        """Cancel the calls still queued, finish the running ones, and
        stop the children."""
        if self._pool is None:
            return
        try:
            while True:
                self._jobs.get_nowait()[0].cancel()
        except queue.Empty:
            pass
        for _ in self._threads:
            self._jobs.put(None)
        for thread in self._threads:
            thread.join()
        self._pool = None


def create_executor(jobs: int | None = None) -> Executor:
    """Serial for one job, ``jobs`` worker processes beyond.

    ``jobs=None`` reads ``REPRO_JOBS`` (default 1).
    """
    jobs = RuntimeConfig.from_env(jobs=jobs).jobs
    if jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
