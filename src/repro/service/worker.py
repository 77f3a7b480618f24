"""Long-lived solve workers: pull cells, run the pipeline, stream events.

A :class:`Worker` is a daemon thread bound to a
:class:`~repro.service.broker.Broker`.  For each job it resolves the
registered system and benchmark problem, then runs exactly the
computation an :func:`~repro.runtime.batch.evaluate_many` cell would
run -- a fresh system instance under a pinned-serial runtime session,
scored against the hidden golden testbench -- while streaming the typed
event stream to every subscriber via ``job.publish``.  Bit-for-bit
parity with the local executor is therefore structural, not aspirational:
both paths share :func:`repro.runtime.workers.solve_streaming`.

Workers populate (and are fronted by) both cache layers: the solve-cell
cache memoizes whole runs, the simulation cache the golden scoring, so
a repeated submit replays its event stream and re-scores entirely from
cache.  ``executed`` counts only jobs whose pipeline actually ran --
the counter the dedup and cache contracts are verified against.
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
    cached_run_testbench,
    system_fingerprint,
)
from repro.runtime.context import RuntimeContext, runtime_session
from repro.runtime.executor import SerialExecutor
from repro.runtime.workers import solve_streaming


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
    and the peer-sharing traffic answered for other machines)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.executed = 0  # pipelines actually run (not cache-served)
        self.cache_served = 0  # results served from the solve-cell cache
        self.errors = 0
        self.peer_gets = 0  # CacheGet frames answered
        self.peer_hits = 0  # ... of which found a local entry
        self.peer_puts = 0  # CachePut frames stored

    def count(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "executed": self.executed,
                "cache_served": self.cache_served,
                "errors": self.errors,
                "peer_gets": self.peer_gets,
                "peer_hits": self.peer_hits,
                "peer_puts": self.peer_puts,
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


def serve_cached_record(
    system: str,
    problem_id: str,
    record,
    sink=None,
    sim_cache: SimulationCache | None = None,
) -> ServiceResult:
    """Serve one cell from an already-fetched solve-cell record.

    Replays the recorded event stream into ``sink`` and re-scores the
    cached source against the golden testbench (itself a simulation-
    cache hit on a warm server) -- the server's inline warm path, which
    never touches the worker pool.
    """
    from repro.core.events import as_sink
    from repro.evalsets import get_problem, golden_testbench

    problem = get_problem(problem_id)
    golden = golden_testbench(problem)
    started = time.perf_counter()
    if sink is not None:
        live = as_sink(sink)
        for event in record.events:
            live.emit(event)
    inner = RuntimeContext(executor=SerialExecutor(), cache=sim_cache)
    with runtime_session(context=inner):
        report = cached_run_testbench(
            record.source, golden, problem.top, cache=sim_cache
        )
    return ServiceResult(
        source=record.source,
        passed=report.passed,
        score=report.score,
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
    solve_cache: SolveCellCache | None = None,
    gateway: "GatewaySettings | None" = None,
) -> ServiceResult:
    """Run one (system, problem, seed) cell exactly as a grid cell would.

    Raises ``KeyError`` for an unknown system or problem id; the caller
    turns that into an error frame.
    """
    from repro.baselines.registry import SYSTEMS, system_names
    from repro.evalsets import get_problem, golden_testbench

    spec = SYSTEMS.get(system)
    if spec is None:
        raise KeyError(
            f"unknown system {system!r}; known: {', '.join(system_names())}"
        )
    problem = get_problem(problem_id)
    golden = golden_testbench(problem)
    started = time.perf_counter()
    # Same isolation as a batch cell: the whole request runs under a
    # serial inner runtime (pinning the server's gateway settings), so
    # worker threads never nest parallelism and LLM-call ordering
    # matches a plain local solve.  The fingerprint is resolved inside
    # the session so it sees the same gateway the solve will.
    inner = RuntimeContext(
        executor=SerialExecutor(), cache=sim_cache, gateway=gateway
    )
    with runtime_session(context=inner):
        fingerprint = (
            registered_fingerprint(system) if solve_cache is not None else None
        )
        source, cached = solve_streaming(
            spec.factory,
            problem,
            seed,
            sink=sink,
            solve_cache=solve_cache,
            fingerprint=fingerprint,
        )
        report = cached_run_testbench(source, golden, problem.top, cache=sim_cache)
    return ServiceResult(
        source=source,
        passed=report.passed,
        score=report.score,
        seconds=time.perf_counter() - started,
        system=registered_system_name(system),
        solve_cached=cached,
    )


class Worker(threading.Thread):
    """One long-lived worker thread draining the broker."""

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

    def run(self) -> None:
        while True:
            job = self.broker.next_job()
            if job is None:
                return  # broker closed and drained
            try:
                result = solve_service_request(
                    job.system,
                    job.problem,
                    job.seed,
                    sink=job.publish,
                    sim_cache=self.sim_cache,
                    solve_cache=self.solve_cache,
                    gateway=self.gateway,
                )
            except Exception as exc:  # noqa: BLE001 -- becomes an error frame
                self.stats.count("errors")
                self.broker.fail(job, f"{type(exc).__name__}: {exc}")
                continue
            self.stats.count(
                "cache_served" if result.solve_cached else "executed"
            )
            self.broker.finish(job, result)
