"""Picklable work units for the batch evaluation grid.

One :class:`EvalCell` is one (problem, run) point of the Eq. 7 grid:
build a fresh system instance, solve the task, score the result against
the hidden golden testbench.  Cells are self-contained frozen dataclasses
so a :class:`~repro.runtime.executor.WorkerProcess` can run them, for
the local pool and the service alike; the serial executor passes the
live caches alongside.

Each cell runs under a thread-local **serial** runtime so the grid is
parallelised exactly once: a cell's internal LLM-call ordering stays
identical to a plain serial run -- which is what makes ``--jobs N``
bit-identical to ``--jobs 1`` for fixed seeds.

When the cell carries a solve-cell fingerprint, the whole run is first
looked up in the :class:`~repro.runtime.cache.SolveCellCache` --
``hash(config, problem, seed)`` -> source + typed events + golden
verdict -- and a hit skips the system *and* the golden scoring: the
record's verdict is served as stored, so a replayed cell neither
derives the golden testbench nor looks up a simulation.  A miss solves,
scores, and then writes the record once, verdict included.  Cached
results are bit-identical to recomputation because solves are
deterministic in exactly the hashed inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover -- annotation-only import
    from repro.llm.gateway.settings import GatewaySettings

from repro.core.task import DesignTask
from repro.evalsets.problem import Problem, golden_testbench
from repro.runtime.cache import (
    CacheStats,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    cached_run_testbench,
    simulation_count,
    solve_cell_key,
)
from repro.runtime.context import RuntimeContext, runtime_session
from repro.runtime.executor import SerialExecutor
from repro.tb.runner import TestReport
from repro.tb.stimulus import Testbench


@dataclass(frozen=True)
class EvalCell:
    """One (problem, run) evaluation: everything a worker needs.

    ``gateway`` carries the LLM gateway settings: the cell's inner
    runtime context pins them, so a system built inside a pool process
    resolves the identical gateway (mode, chain, cassette target) the
    parent configured.
    """

    problem_index: int
    run_index: int
    factory: Callable[[], object]
    problem: Problem
    # None when every run of the problem had a scored solve-cell record
    # at dispatch; a cell that must score after all derives it itself.
    golden_tb: Testbench | None
    seed: int
    cache_enabled: bool = True
    cache_dir: str | None = None
    solve_enabled: bool = False
    solve_dir: str | None = None
    fingerprint: str | None = None
    gateway: "GatewaySettings | None" = None


@dataclass(frozen=True)
class CellResult:
    """What comes back: the tally entry plus timing and cache accounting.

    ``cache`` and ``solve_cache`` are this cell's deltas of the two
    caches' counters, every field: exact per cell, because a process
    runs one cell at a time.  ``source`` is the solved design, which a
    service worker stores in its solve-cell record.
    """

    problem_index: int
    run_index: int
    problem_id: str
    passed: bool
    score: float
    seconds: float
    cache: CacheStats = field(default_factory=CacheStats)
    simulations: int = 0
    solve_cache: CacheStats = field(default_factory=CacheStats)
    # Whether THIS cell's solve was served from the solve-cell cache.
    solve_cached: bool = False
    source: str = ""


# Per-process caches for cells shipped without live ones: cells landing
# in the same worker process share one cache per (kind, disk directory).
_WORKER_CACHES: dict[tuple[type, str | None], object] = {}


def _worker_cache(kind: type, directory: str | None):
    cache = _WORKER_CACHES.get((kind, directory))
    if cache is None:
        cache = _WORKER_CACHES[(kind, directory)] = kind(directory)
    return cache


def solve_streaming(
    factory: Callable[[], object],
    problem: Problem,
    seed: int,
    sink=None,
    solve_cache: SolveCellCache | None = None,
    fingerprint: str | None = None,
    score: Callable[[str], TestReport] | None = None,
) -> tuple[SolveCellRecord, bool]:
    """Solve one cell with live event streaming and solve-cell caching.

    Returns ``(record, served_from_cache)``.  A cache hit *replays* the
    recorded event stream into ``sink``, so subscribers see exactly the
    frames a live solve would have produced -- the property the CLI's
    warm ``run`` relies on.  A miss solves live (events flow to ``sink``
    as they happen), scores the source with ``score`` (the golden
    testbench run), and stores the record, verdict included, for the
    next caller.  A hit whose record carries no verdict is scored the
    same way.  Without ``score`` the returned verdict is None.
    """
    from repro.core.events import Broadcast, ListSink, as_sink

    def judged(record: SolveCellRecord) -> SolveCellRecord:
        if score is None or record.passed is not None:
            return record
        report = score(record.source)
        return replace(record, passed=report.passed, score=report.score)

    key = None
    if solve_cache is not None and fingerprint is not None:
        try:
            key = solve_cell_key(fingerprint, problem, seed)
        except Exception:
            # A problem payload without a stable repr cannot be cached
            # safely; fall through to a plain solve.
            key = None
    if key is not None:
        record = solve_cache.get(key)
        if record is not None:
            if sink is not None:
                live = as_sink(sink)
                for event in record.events:
                    live.emit(event)
            return judged(record), True
    system = factory()
    task = DesignTask.from_problem(problem)
    collector = ListSink() if key is not None else None
    source = system.solve(
        task, seed=seed, sink=Broadcast(collector, as_sink(sink))
    )
    record = judged(
        SolveCellRecord(
            source=source,
            system=getattr(system, "name", type(system).__name__),
            events=tuple(collector.events) if collector else (),
        )
    )
    if key is not None:
        solve_cache.put(key, record)
    return record, False


def run_cell(
    cell: EvalCell,
    cache: SimulationCache | None = None,
    solve_cache: SolveCellCache | None = None,
    sink=None,
) -> CellResult:
    """Execute one cell (module-level, hence picklable for a worker
    process); ``sink`` receives its run events live."""
    if cache is None and cell.cache_enabled:
        cache = _worker_cache(SimulationCache, cell.cache_dir)
    if cell.fingerprint is None:
        solve_cache = None
    elif solve_cache is None and cell.solve_enabled:
        solve_cache = _worker_cache(SolveCellCache, cell.solve_dir)
    before = cache.stats.snapshot() if cache is not None else CacheStats()
    solve_before = (
        solve_cache.stats.snapshot() if solve_cache is not None else CacheStats()
    )
    sims_before = simulation_count()
    started = time.perf_counter()

    def score(source: str) -> TestReport:
        golden = cell.golden_tb
        if golden is None:
            # The record seen at dispatch is gone (or never had a
            # verdict): derive the golden testbench here, under the
            # cell's own simulation cache.
            golden = golden_testbench(cell.problem)
        return cached_run_testbench(source, golden, cell.problem.top, cache=cache)

    inner = RuntimeContext(
        executor=SerialExecutor(), cache=cache, gateway=cell.gateway
    )
    with runtime_session(context=inner):
        record, solve_cached = solve_streaming(
            cell.factory,
            cell.problem,
            cell.seed,
            sink=sink,
            solve_cache=solve_cache,
            fingerprint=cell.fingerprint,
            score=score,
        )
    elapsed = time.perf_counter() - started
    delta = (
        cache.stats.delta(before) if cache is not None else CacheStats()
    )
    solve_delta = (
        solve_cache.stats.delta(solve_before)
        if solve_cache is not None
        else CacheStats()
    )
    return CellResult(
        problem_index=cell.problem_index,
        run_index=cell.run_index,
        problem_id=cell.problem.id,
        passed=record.passed,
        score=record.score,
        seconds=elapsed,
        cache=delta,
        simulations=simulation_count() - sims_before,
        solve_cache=solve_delta,
        solve_cached=solve_cached,
        source=record.source,
    )
