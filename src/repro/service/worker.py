"""Long-lived solve workers: a broker consumer thread driving one process.

A :class:`Worker` is a daemon thread that pops jobs from the server's
FIFO :class:`~repro.service.broker.Broker` until the drain ends and
publishes each job's events and outcome into the job.  Each worker
drives one spawned :class:`~repro.runtime.executor.WorkerProcess` (the
child a local ``--jobs N`` pool forks N of) and runs each cold job there
as one grid cell, :func:`~repro.runtime.workers.run_cell`, relaying its
events live: ``serve --workers N`` solves on N processes, and parity
with a local grid is structural.

The parent owns the solve-cell cache.  It looks the cell up before
dispatching (a twin request solved while this one queued has stored
its record since the server's own probe) and stores the solved record,
verdict and relayed events included, so a repeated submit replays
without simulating.  The child's simulation cache lives on the server's
directory, and each cell's delta of its counters joins the server's
row.  ``executed`` counts only jobs whose pipeline actually ran -- the
counter the cache contract is verified against.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover -- annotation-only import
    from repro.llm.gateway.settings import GatewaySettings

from repro.runtime.cache import (
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    cached_run_testbench,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime.context import RuntimeContext, runtime_session
from repro.runtime.executor import SerialExecutor, WorkerError, WorkerProcess
from repro.runtime.workers import EvalCell, run_cell


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
    """Thread-safe service counters: ``executed`` (pipelines actually
    run), ``cache_served`` (results served from the solve-cell cache)
    and ``errors``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(("executed", "cache_served", "errors"), 0)

    def count(self, field: str) -> None:
        with self._lock:
            self._counts[field] += 1

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._counts)


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
    from repro.baselines.registry import create_system

    with _NAME_LOCK:
        name = _NAME_CACHE.get(key)
        if name is None:
            name = _NAME_CACHE[key] = create_system(key).name
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


class Worker(threading.Thread):
    """One broker consumer thread and the worker process it drives."""

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
        self._child: WorkerProcess | None = None

    @property
    def process(self):
        """The current child process (replaced on respawn)."""
        return self._child.process if self._child is not None else None

    def start(self) -> None:
        """Spawn the child, then start consuming.  Neither waits for
        the child's imports: the first job queues in the pipe."""
        self._child = WorkerProcess("spawn", f"{self.name}-process")
        super().start()

    def halt(self) -> None:
        """Kill the child for good: after the drain, or on a kill."""
        if self._child is not None:
            self._child.halt()

    def run(self) -> None:
        try:
            while (job := self.broker.next_job()) is not None:
                self._run(job)
        finally:
            self._child.close()

    def _run(self, job) -> None:
        # Look the cell up again before solving: a twin of this request
        # that queued earlier may have been solved and stored since the
        # server's own lookup, and is then replayed, not solved twice.
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
        """Run one cold job in the child as a grid cell, relaying its
        events live, and store what it solved."""
        from repro.baselines.registry import SYSTEMS
        from repro.evalsets import get_problem

        system = registered_system_name(job.system)  # unknown: KeyError
        sim_cache = self.sim_cache
        cell = EvalCell(
            problem_index=0,
            run_index=0,
            factory=SYSTEMS[job.system].factory,
            problem=get_problem(job.problem),
            golden_tb=None,  # derived in the child, off the server's GIL
            seed=job.seed,
            cache_enabled=sim_cache is not None,
            cache_dir=sim_cache.directory if sim_cache is not None else None,
            gateway=self.gateway,
        )
        events = []

        def relay(event) -> None:
            events.append(event)
            job.publish(event)

        row = self._child.call(run_cell, (cell,), on_event=relay)
        if sim_cache is not None:
            sim_cache.absorb(row.cache)
        if key is not None:
            self.solve_cache.put(
                key,
                SolveCellRecord(
                    source=row.source,
                    system=system,
                    events=tuple(events),
                    passed=row.passed,
                    score=row.score,
                ),
            )
        return ServiceResult(row.source, row.passed, row.score, row.seconds, system)
