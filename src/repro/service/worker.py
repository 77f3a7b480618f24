"""Long-lived solve workers: a broker consumer thread driving one process.

A :class:`Worker` is a daemon thread bound to a
:class:`~repro.service.broker.Broker`, so priority, in-flight dedup and
the graceful drain live where they always did.  Each worker owns one
child process (``multiprocessing`` *spawn* context) that runs the
CPU-bound part, :func:`solve_service_request` -- exactly the computation
an :func:`~repro.runtime.batch.evaluate_many` cell runs, a fresh system
instance under a pinned-serial runtime session scored against the hidden
golden testbench -- so ``serve --workers N`` solves on N processes
rather than N threads sharing one GIL.  Bit-for-bit parity with the
local executor is structural: both paths share
:func:`repro.runtime.workers.solve_streaming`.

One ``Pipe`` per worker carries the job ``(system, problem, seed)`` to
the child and, back to the parent, one ``("event", Event.to_json())``
message per run event followed by one terminal ``done`` or ``error``.
The parent relays each event to ``job.publish`` as it arrives; sharing
one pipe is what orders the live stream before the outcome.

The parent owns the caches.  It looks the cell up in the
solve-cell cache before dispatching (a dedup-raced store may have
landed since the server's own probe) and stores
``SolveCellRecord(source, system, relayed events, passed, score)``
afterwards, so a repeated submit replays its event stream and serves
the stored golden verdict without simulating.  The child's own
simulation cache is built on the server's directory.
``STAGE_CLOCK``, ``GATEWAY_STATS`` and the child's simulation-cache
counters are per-process, so each terminal message carries the job's
deltas and the parent merges them (the simulation delta into the
server's cache row, which ``stats`` reports).
``executed`` counts only jobs whose pipeline actually ran -- the counter
the dedup and cache contracts are verified against.

A child that dies mid-job fails that job with an error naming its exit
code (counted in ``errors``) and is respawned.  Children ignore SIGINT,
so Ctrl-C drains through the server, and exit on pipe EOF, so a killed
server leaves no orphans.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover -- annotation-only import
    from repro.llm.gateway.settings import GatewaySettings

from repro.runtime.cache import (
    CacheStats,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    cached_run_testbench,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime.context import RuntimeContext, runtime_session
from repro.runtime.executor import SerialExecutor
from repro.runtime.workers import solve_streaming

_SPAWN = multiprocessing.get_context("spawn")


class WorkerError(Exception):
    """A job failed in (or with) a worker process; the message is the
    error frame's text."""


@dataclass(frozen=True)
class ServiceResult:
    """One solved cell: what the terminal ``done`` frame carries."""

    source: str
    passed: bool
    score: float
    seconds: float
    system: str
    solve_cached: bool = False


class ServiceStats:
    """Thread-safe service counters (worker executions, cache serves,
    and errors)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.executed = 0  # pipelines actually run (not cache-served)
        self.cache_served = 0  # results served from the solve-cell cache
        self.errors = 0

    def count(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "executed": self.executed,
                "cache_served": self.cache_served,
                "errors": self.errors,
            }


# Registered-system display names and config fingerprints, resolved
# once per process: both are pure functions of the registry key (plus,
# for fingerprints, the active gateway configuration), and recomputing
# them (an instance construction, a _stable_repr walk over the whole
# config) per request would be wasted work on hot paths.
_NAME_CACHE: dict[str, str] = {}
_FINGERPRINT_CACHE: dict[tuple, str | None] = {}
_NAME_LOCK = threading.Lock()


def registered_system_name(key: str) -> str:
    """The ``.name`` a fresh instance of a registered system reports."""
    from repro.baselines.registry import SYSTEMS, system_names

    with _NAME_LOCK:
        name = _NAME_CACHE.get(key)
        if name is None:
            spec = SYSTEMS.get(key)
            if spec is None:
                raise KeyError(
                    f"unknown system {key!r}; "
                    f"known: {', '.join(system_names())}"
                )
            name = spec.factory().name
            _NAME_CACHE[key] = name
        return name


def registered_fingerprint(key: str) -> str | None:
    """Memoized :func:`system_fingerprint` of a registered system.

    None means the factory has no stable configuration identity (and
    solve-cell caching is skipped for it), memoized all the same.  The
    memo key folds in the active gateway fingerprint because
    ``system_fingerprint`` resolves it ambiently: the same system key
    under a different backend chain or stage routing is a different
    solve-cell identity and must not reuse a stale memo entry.
    """
    from repro.baselines.registry import SYSTEMS
    from repro.llm.gateway.settings import active_gateway_fingerprint

    memo_key = (key, active_gateway_fingerprint())
    with _NAME_LOCK:
        if memo_key not in _FINGERPRINT_CACHE:
            spec = SYSTEMS.get(key)
            _FINGERPRINT_CACHE[memo_key] = (
                system_fingerprint(spec.factory) if spec is not None else None
            )
        return _FINGERPRINT_CACHE[memo_key]


def service_cell_key(
    system: str,
    problem_id: str,
    seed: int,
    gateway: "GatewaySettings | None" = None,
) -> str | None:
    """The solve-cell cache key of one request, or None when the cell
    has no stable identity (unknown system or problem, or a factory
    without a fingerprint).

    Resolved under the server's pinned gateway so the fingerprint
    matches what a solve under that gateway would store.
    """
    from repro.evalsets import get_problem

    inner = RuntimeContext(
        executor=SerialExecutor(), cache=None, gateway=gateway
    )
    with runtime_session(context=inner):
        fingerprint = registered_fingerprint(system)
    if fingerprint is None:
        return None
    try:
        return solve_cell_key(fingerprint, get_problem(problem_id), seed)
    except Exception:  # noqa: BLE001 -- unknown or unhashable: not cached
        return None


def serve_cached_record(
    system: str,
    problem_id: str,
    record,
    sink=None,
    sim_cache: SimulationCache | None = None,
) -> ServiceResult:
    """Serve one cell from an already-fetched solve-cell record.

    Replays the recorded event stream into ``sink`` and answers with the
    record's stored golden verdict -- the server's inline warm path,
    which never touches the worker pool or a simulation.  A record
    without a verdict is scored against the golden testbench first.
    """
    from repro.core.events import as_sink

    started = time.perf_counter()
    if sink is not None:
        live = as_sink(sink)
        for event in record.events:
            live.emit(event)
    passed, score = record.passed, record.score
    if passed is None:
        from repro.evalsets import get_problem, golden_testbench

        problem = get_problem(problem_id)
        inner = RuntimeContext(executor=SerialExecutor(), cache=sim_cache)
        with runtime_session(context=inner):
            report = cached_run_testbench(
                record.source,
                golden_testbench(problem),
                problem.top,
                cache=sim_cache,
            )
        passed, score = report.passed, report.score
    return ServiceResult(
        source=record.source,
        passed=passed,
        score=score,
        seconds=time.perf_counter() - started,
        system=registered_system_name(system),
        solve_cached=True,
    )


def solve_service_request(
    system: str,
    problem_id: str,
    seed: int,
    sink=None,
    sim_cache: SimulationCache | None = None,
    gateway: "GatewaySettings | None" = None,
) -> ServiceResult:
    """Run one (system, problem, seed) cell exactly as a grid cell would.

    The solve-cell cache is the caller's business (the worker looks the
    cell up before dispatching and stores what comes back).  Raises
    ``KeyError`` for an unknown system or problem id; the caller turns
    that into an error frame.
    """
    from repro.baselines.registry import SYSTEMS, system_names
    from repro.evalsets import get_problem, golden_testbench

    spec = SYSTEMS.get(system)
    if spec is None:
        raise KeyError(
            f"unknown system {system!r}; known: {', '.join(system_names())}"
        )
    problem = get_problem(problem_id)
    # Same isolation as a batch cell: the whole request runs under a
    # serial inner runtime (pinning the server's gateway settings), so
    # workers never nest parallelism and LLM-call ordering matches a
    # plain local solve.  The golden probe simulation goes through the
    # server's cache like every other.
    inner = RuntimeContext(
        executor=SerialExecutor(), cache=sim_cache, gateway=gateway
    )
    with runtime_session(context=inner):
        golden = golden_testbench(problem)
        started = time.perf_counter()
        record, _ = solve_streaming(
            spec.factory,
            problem,
            seed,
            sink=sink,
            score=lambda source: cached_run_testbench(
                source, golden, problem.top, cache=sim_cache
            ),
        )
    return ServiceResult(
        source=record.source,
        passed=record.passed,
        score=record.score,
        seconds=time.perf_counter() - started,
        system=registered_system_name(system),
    )


def _child_main(conn, sim_cache, gateway) -> None:
    """A worker process: solve jobs from ``conn`` until EOF.

    ``sim_cache`` is False (layer disabled) or the directory of the
    server's simulation cache (None for a memory-only cache).  The
    clocks are reset before each job, so the snapshots sent with its
    terminal message are its deltas; so is the simulation-cache row.
    """
    # The parent spawned us with SIGINT blocked: ignore it before
    # unblocking, so a Ctrl-C at the terminal reaches only the server,
    # which drains us itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    from repro.core.pipeline import STAGE_CLOCK
    from repro.llm.gateway.client import GATEWAY_STATS

    cache = None if sim_cache is False else SimulationCache(sim_cache)

    def relay(event) -> None:
        conn.send(("event", event.to_json()))

    try:
        while True:
            job = conn.recv()
            STAGE_CLOCK.reset()
            GATEWAY_STATS.reset()
            before = cache.stats.snapshot() if cache is not None else CacheStats()
            try:
                result = solve_service_request(
                    *job, sink=relay, sim_cache=cache, gateway=gateway
                )
                reply = ("done", result)
            except Exception as exc:  # noqa: BLE001 -- becomes an error frame
                reply = ("error", f"{type(exc).__name__}: {exc}")
            simulations = (
                cache.stats.delta(before) if cache is not None else CacheStats()
            )
            clocks = (STAGE_CLOCK.snapshot(), GATEWAY_STATS.snapshot(), simulations)
            conn.send((*reply, *clocks))
    except (EOFError, OSError):
        pass  # the server is gone: exit with it


class Worker(threading.Thread):
    """One broker consumer thread and the child process it drives."""

    def __init__(
        self,
        broker,
        stats: ServiceStats,
        sim_cache: SimulationCache | None = None,
        solve_cache: SolveCellCache | None = None,
        name: str | None = None,
        gateway: "GatewaySettings | None" = None,
    ):
        super().__init__(name=name or "repro-service-worker", daemon=True)
        self.broker = broker
        self.stats = stats
        self.sim_cache = sim_cache
        self.solve_cache = solve_cache
        self.gateway = gateway
        self.process = None  # the current child (replaced on respawn)
        self._conn = None
        self._lock = threading.Lock()
        self._halted = False

    def start(self) -> None:
        """Spawn the child, then start consuming.  Neither waits for
        the child's imports: the first job queues in the pipe."""
        self._spawn()
        super().start()

    def _spawn(self) -> None:
        with self._lock:
            if self._halted:
                return
            cache = self.sim_cache
            spec = False if cache is None else cache.directory
            conn, child_end = _SPAWN.Pipe()
            process = _SPAWN.Process(
                target=_child_main,
                args=(child_end, spec, self.gateway),
                name=f"{self.name}-process",
                daemon=True,
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

    def halt(self) -> None:
        """Kill the child and never respawn it: after the drain, when
        the child is idle and killing it loses nothing (nor waits for a
        child still importing), or on the server's kill."""
        with self._lock:
            self._halted = True
            process = self.process
        if process is not None:
            process.kill()

    def run(self) -> None:
        try:
            while (job := self.broker.next_job()) is not None:
                self._run(job)
        finally:
            # This thread is the child's only reaper: two threads
            # joining one process race for its exit code.
            self.halt()
            if self.process is not None:
                self.process.join()
                self._conn.close()

    def _run(self, job) -> None:
        key = None
        if self.solve_cache is not None:
            key = service_cell_key(
                job.system, job.problem, job.seed, self.gateway
            )
        record = self.solve_cache.get(key) if key is not None else None
        try:
            if record is not None:
                result = serve_cached_record(
                    job.system,
                    job.problem,
                    record,
                    sink=job.publish,
                    sim_cache=self.sim_cache,
                )
            else:
                result = self._solve(job, key)
        except Exception as exc:  # noqa: BLE001 -- becomes an error frame
            self.stats.count("errors")
            message = str(exc)
            if not isinstance(exc, WorkerError):
                message = f"{type(exc).__name__}: {message}"
            self.broker.fail(job, message)
            return
        self.stats.count("cache_served" if result.solve_cached else "executed")
        self.broker.finish(job, result)

    def _solve(self, job, key: str | None) -> ServiceResult:
        """Run one cold job in the child, relaying its events live."""
        from repro.core.events import Event
        from repro.core.pipeline import STAGE_CLOCK
        from repro.llm.gateway.client import GATEWAY_STATS

        events = []
        try:
            self._conn.send((job.system, job.problem, job.seed))
            while True:
                kind, payload, *clocks = self._conn.recv()
                if kind != "event":
                    break
                event = Event.from_json(payload)
                events.append(event)
                job.publish(event)
        except (EOFError, OSError):
            raise WorkerError(self._child_died()) from None
        stages, gateway, simulations = clocks
        STAGE_CLOCK.merge(stages)
        GATEWAY_STATS.add(**gateway)
        if self.sim_cache is not None:
            self.sim_cache.absorb(simulations)
        if kind == "error":
            raise WorkerError(payload)
        if key is not None:
            self.solve_cache.put(
                key,
                SolveCellRecord(
                    source=payload.source,
                    system=payload.system,
                    events=tuple(events),
                    passed=payload.passed,
                    score=payload.score,
                ),
            )
        return payload

    def _child_died(self) -> str:
        """Reap the dead child, respawn it (unless halted), and name it."""
        process = self.process
        process.join(10.0)
        self._conn.close()
        self._spawn()
        return f"worker process died mid-job (exit code {process.exitcode})"
