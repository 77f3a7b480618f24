"""Batch evaluation: fan the Eq. 7 ``problems x runs`` grid out.

This is the runtime's top-level API: :func:`evaluate_many` takes the
same inputs as the classic serial harness, cuts the grid into
:class:`~repro.runtime.workers.EvalCell` units, runs them on the ambient
(or given) executor -- in this process, or shipped to worker processes
on a process pool -- and reassembles a deterministic
:class:`~repro.evaluation.harness.EvalResult` -- cells are keyed by
(problem, run) index, and per-run seeds are fixed as ``seed0 + run``
before dispatch, so worker count and completion order cannot change the
outcome.

Alongside the result it returns a :class:`BatchReport` with wall-clock,
per-cell timings, simulation throughput, and cache hit accounting --
the numbers ``repro eval --verbose`` prints.

Two streaming channels observe a batch while it runs:

- ``progress`` receives one line per *problem*, in suite order
  (buffered until every earlier problem completes, so output is
  deterministic);
- ``events`` receives a typed
  :class:`~repro.core.events.CellFinished` per cell in **completion
  order** (live, not buffered; cells already finished when streaming
  starts -- every cell, on a serial pool -- in submission order) plus
  a terminal :class:`~repro.core.events.BatchFinished` -- the CLI's
  ``--progress`` stream and the hook a service mode would subscribe to.

With ``solve_cache`` enabled, whole cells are memoized by
``hash(config, problem, seed)`` so repeated sweeps re-run near-free: a
replayed cell serves its record's stored golden verdict, and a problem
whose every run replays derives no golden testbench at all.  A grid
whose every cell replays runs in this process even when handed a
process pool: the record probes already hold every record in memory,
and worker processes would only re-read them from disk.
"""

from __future__ import annotations

import concurrent.futures as cf
import itertools
import os
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.events import BatchFinished, CellFinished, Event, EventSink, as_sink
from repro.evalsets.problem import Problem, golden_testbench
from repro.evalsets.suites import get_suite
from repro.runtime.cache import (
    CacheStats,
    SimulationCache,
    SolveCellCache,
    simulation_count,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime.context import get_runtime, runtime_session
from repro.runtime.executor import Executor, SerialExecutor
from repro.runtime.workers import CellResult, EvalCell, run_cell


@dataclass
class BatchReport:
    """Execution statistics for one batch evaluation."""

    executor: str
    wall_seconds: float = 0.0
    cells: int = 0
    simulations: int = 0
    cell_seconds: list[float] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)
    solve_cache: CacheStats = field(default_factory=CacheStats)
    # Resolved executor fan-out (0 = not recorded).
    jobs: int = 0

    @property
    def sims_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulations / self.wall_seconds

    @property
    def cells_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.cells / self.wall_seconds

    def render(self) -> str:
        lines = [
            f"executor        {self.executor}",
        ]
        if self.jobs:
            lines.append(f"jobs            {self.jobs:8d}")
        lines += [
            f"wall clock      {self.wall_seconds:8.2f} s",
            f"grid cells      {self.cells:8d}  "
            f"({self.cells_per_second:.2f} cells/s)",
            f"simulations     {self.simulations:8d}  "
            f"({self.sims_per_second:.1f} sims/s)",
            f"cache lookups   {self.cache.lookups:8d}  "
            f"(hits {self.cache.hits}, misses {self.cache.misses}, "
            f"hit-rate {100.0 * self.cache.hit_rate:.1f}%)",
        ]
        if self.solve_cache.lookups:
            lines.append(
                f"solve cells     {self.solve_cache.lookups:8d}  "
                f"(hits {self.solve_cache.hits}, "
                f"misses {self.solve_cache.misses}, "
                f"hit-rate {100.0 * self.solve_cache.hit_rate:.1f}%)"
            )
        return "\n".join(lines)


def _assemble_result(
    suite: str,
    resolved_name: str,
    chosen: list[Problem],
    by_problem: dict[int, list[CellResult]],
    report: BatchReport,
):
    """Fold per-(problem, run) rows into the deterministic result."""
    from repro.evaluation.harness import EvalResult, ProblemOutcome

    result = EvalResult(system=resolved_name, suite=suite)
    for problem_index, problem in enumerate(chosen):
        outcome = ProblemOutcome(problem.id, problem.difficulty)
        rows = sorted(by_problem.get(problem_index, []), key=lambda r: r.run_index)
        for row in rows:
            outcome.runs += 1
            outcome.passes += int(row.passed)
            outcome.scores.append(row.score)
            report.cell_seconds.append(row.seconds)
        result.outcomes.append(outcome)
    return result


def _fill_report_counters(
    report: BatchReport,
    crossing: bool,
    rows: list[CellResult],
    live_cache: SimulationCache | None,
    cache_before: CacheStats,
    live_solve: SolveCellCache | None,
    solve_before: CacheStats,
    sims_before: int,
) -> None:
    """Batch cache/simulation totals for one evaluation.

    The live caches and the simulation counter cover everything this
    process did, golden-testbench probes included.  When the cells
    crossed process boundaries the child-process counters never reach
    this process, so the exact per-row deltas the workers reported are
    added on top.
    """
    report.cache = (
        live_cache.stats.delta(cache_before)
        if live_cache is not None
        else CacheStats()
    )
    report.simulations = simulation_count() - sims_before
    report.solve_cache = (
        live_solve.stats.delta(solve_before)
        if live_solve is not None
        else CacheStats()
    )
    if crossing:
        for row in rows:
            report.cache.add(row.cache)
            report.solve_cache.add(row.solve_cache)
            report.simulations += row.simulations


def _progress_flusher(
    chosen: list[Problem],
    runs: int,
    resolved_name: str,
    progress: Callable[[str], None] | None,
    by_problem: dict[int, list],
):
    """Per-problem progress lines in suite order, buffered until every
    earlier problem completes, so output is deterministic."""
    state = {"next": 0}

    def flush() -> None:
        flushed = state["next"]
        while flushed < len(chosen) and len(by_problem.get(flushed, [])) == runs:
            if progress is not None:
                done = by_problem[flushed]
                passes = sum(1 for r in done if r.passed)
                progress(
                    f"{resolved_name} {chosen[flushed].id}: "
                    f"{passes}/{runs} passed"
                )
            flushed += 1
        state["next"] = flushed

    return flush


def _all_scored(
    solve_cache: SolveCellCache | None,
    fingerprint: str | None,
    problem: Problem,
    seed0: int,
    runs: int,
) -> bool:
    """Whether every run of ``problem`` has a solve-cell record that
    carries its golden verdict, so no cell needs the golden testbench.

    The probes are uncounted ``peek``s; on in-process pools they also
    promote disk records into memory, so each cell's counted lookup
    does no second disk read.
    """
    if solve_cache is None or fingerprint is None:
        return False
    for run in range(runs):
        try:
            key = solve_cell_key(fingerprint, problem, seed0 + run)
        except Exception:  # noqa: BLE001 -- no stable key: never cached
            return False
        record = solve_cache.peek(key)
        if record is None or record.passed is None:
            return False
    return True


def _check_picklable(system_factory: Callable[[], object]) -> None:
    """Refuse, before any cell runs, a factory a process pool cannot ship."""
    try:
        pickle.dumps(system_factory)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise TypeError(
            f"system factory {system_factory!r} cannot be pickled for worker "
            f"processes ({exc}); use a module-level factory or --jobs 1"
        ) from exc


def _resolve_cache(
    cache: SimulationCache | bool | None,
) -> SimulationCache | None:
    if isinstance(cache, SimulationCache):
        return cache
    if cache is False:
        return None
    ambient = get_runtime().cache
    if cache is True and ambient is None:
        # Forced on over a runtime with the layer off: the disk tier
        # still lives where the environment points.
        return SimulationCache(os.environ.get("REPRO_SIM_CACHE_DIR") or None)
    return ambient


def _resolve_solve_cache(
    solve_cache: SolveCellCache | bool | None,
) -> SolveCellCache | None:
    if isinstance(solve_cache, SolveCellCache):
        return solve_cache
    if solve_cache is False:
        return None
    ambient = get_runtime().solve_cache
    if solve_cache is True and ambient is None:
        return SolveCellCache(os.environ.get("REPRO_SOLVE_CACHE_DIR") or None)
    return ambient


def evaluate_many(
    system_factory: Callable[[], object],
    suite: str,
    runs: int = 1,
    seed0: int = 0,
    problems: list[Problem] | None = None,
    name: str | None = None,
    executor: Executor | None = None,
    cache: SimulationCache | bool | None = None,
    solve_cache: SolveCellCache | bool | None = None,
    progress: Callable[[str], None] | None = None,
    events: EventSink | Callable[[Event], None] | None = None,
):
    """Evaluate one system over a suite, fanned across workers.

    Returns ``(EvalResult, BatchReport)``.  Semantics match the serial
    harness exactly: a fresh ``system_factory()`` instance per run, run
    seeds ``seed0 + run``, and per-problem progress lines emitted in
    suite order (buffered until every earlier problem completes, so
    output is deterministic too).

    ``name`` labels the result without constructing a throwaway system
    instance; when omitted, one instance is built just to read ``.name``.
    ``solve_cache`` memoizes whole cells by ``hash(config, problem,
    seed)`` (an instance, ``True``/``False``, or ``None`` to inherit
    the ambient runtime's); factories without a stable configuration
    fingerprint silently skip it.  ``events`` streams typed per-cell
    completions live (completion order, unlike ``progress``).

    On a process pool the factory must pickle: one that does not raises
    ``TypeError`` before any cell runs.
    """
    from repro.llm.gateway.settings import resolve_gateway_settings

    # The clock covers the whole grid: golden-testbench derivation and
    # record probes included.
    started = time.perf_counter()
    pool = executor if executor is not None else get_runtime().executor
    if pool.kind == "process":
        _check_picklable(system_factory)
    chosen = problems if problems is not None else get_suite(suite)
    resolved_name = name if name is not None else system_factory().name
    live_cache = _resolve_cache(cache)
    live_solve = _resolve_solve_cache(solve_cache)
    # Resolve the gateway once, here, and pin it on every cell: worker
    # processes must see the exact settings this process resolved, not
    # whatever their own environment happens to say.
    gateway = resolve_gateway_settings()
    if not gateway.enabled:
        gateway = None
    fingerprint = (
        system_fingerprint(system_factory) if live_solve is not None else None
    )
    if fingerprint is None:
        live_solve = None
    sink = as_sink(events)

    # The report's counters start before the golden probes, so it counts
    # them like any other simulation.
    cache_before = (
        live_cache.stats.snapshot() if live_cache is not None else CacheStats()
    )
    solve_before = (
        live_solve.stats.snapshot() if live_solve is not None else CacheStats()
    )
    sims_before = simulation_count()
    # Golden testbenches derive from a probe simulation: run it through
    # this grid's simulation cache, not the ambient runtime's, so a warm
    # cache directory serves the probe too.  A problem whose every run
    # already has a scored solve-cell record needs none.
    with runtime_session(context=replace(get_runtime(), cache=live_cache)):
        golden_tbs = [
            None
            if _all_scored(live_solve, fingerprint, problem, seed0, runs)
            else golden_testbench(problem)
            for problem in chosen
        ]
    cells: list[EvalCell] = []
    for problem_index, (problem, golden_tb) in enumerate(zip(chosen, golden_tbs)):
        for run in range(runs):
            cells.append(
                EvalCell(
                    problem_index=problem_index,
                    run_index=run,
                    factory=system_factory,
                    problem=problem,
                    golden_tb=golden_tb,
                    seed=seed0 + run,
                    cache_enabled=live_cache is not None,
                    cache_dir=(
                        live_cache.directory if live_cache is not None else None
                    ),
                    solve_enabled=live_solve is not None,
                    solve_dir=(
                        live_solve.directory if live_solve is not None else None
                    ),
                    fingerprint=fingerprint,
                    gateway=gateway,
                )
            )

    if all(golden_tb is None for golden_tb in golden_tbs):
        # Every cell replays a record the probes already hold in memory.
        pool = SerialExecutor()
    crosses_processes = pool.kind == "process"
    if crosses_processes:
        # Self-contained cells; workers build per-process caches
        # (shared on disk when a directory is set).
        submit = lambda cell: pool.submit(run_cell, cell)  # noqa: E731
    else:
        submit = lambda cell: pool.submit(  # noqa: E731
            run_cell, cell, live_cache, live_solve
        )

    futures = [submit(cell) for cell in cells]
    by_problem: dict[int, list[CellResult]] = {}
    flush_progress = _progress_flusher(
        chosen, runs, resolved_name, progress, by_problem
    )

    # Futures already done (every one, on a serial pool) stream in
    # submission order; ``as_completed`` would yield them in set order.
    done, pending = [], []
    for future in futures:
        (done if future.done() else pending).append(future)
    for future in itertools.chain(done, cf.as_completed(pending)):
        cell_result = future.result()
        by_problem.setdefault(cell_result.problem_index, []).append(cell_result)
        sink.emit(
            CellFinished(
                problem_id=cell_result.problem_id,
                run_index=cell_result.run_index,
                passed=cell_result.passed,
                score=cell_result.score,
                seconds=cell_result.seconds,
                solve_cached=cell_result.solve_cached,
            )
        )
        flush_progress()

    wall = time.perf_counter() - started
    sink.emit(BatchFinished(cells=len(cells), seconds=wall))

    report = BatchReport(
        executor=pool.describe(), wall_seconds=wall, jobs=pool.workers
    )
    result = _assemble_result(suite, resolved_name, chosen, by_problem, report)
    report.cells = len(cells)
    collected = [r for rows in by_problem.values() for r in rows]
    _fill_report_counters(
        report,
        crosses_processes,
        collected,
        live_cache,
        cache_before,
        live_solve,
        solve_before,
        sims_before,
    )
    return result, report

