"""``evaluate_many`` contracts on every grid path: serial, thread pool
and process pool.

The grid has exactly these engines; each must order results, stream
per-cell events, report progress, propagate failures, serve warm cells
from both cache layers, and keep rows bit-identical to serial.
"""

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import BatchFinished, CellFinished, ListSink
from repro.evalsets import get_problem
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SimulationCache,
    SolveCellCache,
    ThreadExecutor,
    evaluate_many,
)

# Deliberately not in suite order; ``ar_addsub8`` reaches Step-5 debug
# rounds, so every path also covers the debug loop.
IDS = ["fs_vending", "cb_mux2", "ar_addsub8", "cb_kmap_mux"]
RUNS = 2
SEED0 = 1
PATHS = ["serial", "thread", "process"]


def _executor(kind):
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(2)
    return ProcessExecutor(2)


def _problems(ids=IDS):
    return [get_problem(problem_id) for problem_id in ids]


class _SinkIgnoringSystem:
    """A system that takes the event sink but never emits into it."""

    name = "sink-ignoring"

    def solve(self, task, seed=0, sink=None):
        return (
            f"module {task.top}(input a, output y);\n"
            "  assign y = a;\nendmodule\n"
        )


class _BoomSystem:
    name = "boom"

    def solve(self, task, seed=0, sink=None):
        raise RuntimeError("kaboom")


def _grid(kind, factory=None, executor=None, **kwargs):
    kwargs.setdefault("problems", _problems())
    kwargs.setdefault("cache", SimulationCache())
    own = executor is None
    pool = _executor(kind) if own else executor
    try:
        outcome = evaluate_many(
            factory if factory is not None else SYSTEMS["mage"].factory,
            "verilogeval-v2",
            runs=RUNS,
            seed0=SEED0,
            executor=pool,
            **kwargs,
        )
        # Process rows must really cross processes, not fall back.
        assert getattr(pool, "fallbacks", 0) == 0
        return outcome
    finally:
        if own:
            pool.shutdown()


@pytest.fixture(scope="module")
def serial_grid():
    """Rows and progress lines of the plain serial grid."""
    lines = []
    result, report = _grid("serial", progress=lines.append)
    return result, report, lines


@pytest.mark.parametrize("kind", PATHS)
class TestGridPaths:
    def test_rows_match_the_serial_grid(self, kind, serial_grid):
        result, _ = _grid(kind)
        reference, _, _ = serial_grid
        assert result.outcomes == reference.outcomes
        assert result.system == reference.system

    def test_outcomes_follow_the_requested_problem_order(self, kind):
        result, report = _grid(kind)
        assert [o.problem_id for o in result.outcomes] == IDS
        assert all(o.runs == RUNS for o in result.outcomes)
        assert report.cells == len(IDS) * RUNS

    def test_streams_one_cell_finished_per_cell(self, kind):
        sink = ListSink()
        _, report = _grid(kind, events=sink)
        cells = [e for e in sink.events if isinstance(e, CellFinished)]
        assert sorted((c.problem_id, c.run_index) for c in cells) == sorted(
            (problem_id, run) for problem_id in IDS for run in range(RUNS)
        )
        assert isinstance(sink.events[-1], BatchFinished)
        assert sink.events[-1].cells == report.cells == len(cells)

    def test_progress_lines_match_the_serial_grid(self, kind, serial_grid):
        lines = []
        _grid(kind, progress=lines.append)
        _, _, reference = serial_grid
        assert lines == reference
        assert len(lines) == len(IDS)

    def test_a_failing_cell_raises(self, kind):
        with pytest.raises(RuntimeError, match="kaboom"):
            _grid(kind, factory=_BoomSystem, name="boom")

    def test_sink_ignoring_system_still_produces_a_row(self, kind):
        result, report = _grid(
            kind, factory=_SinkIgnoringSystem, problems=_problems(["cb_mux2"])
        )
        assert result.system == "sink-ignoring"
        assert report.cells == RUNS
        assert result.outcomes[0].runs == RUNS

    def test_solve_cache_serves_the_warm_pass(self, kind, tmp_path):
        solve_cache = SolveCellCache(str(tmp_path / "solve"))
        with _executor(kind) as pool:
            cold, cold_report = _grid(kind, executor=pool, solve_cache=solve_cache)
            sink = ListSink()
            warm, warm_report = _grid(
                kind, executor=pool, solve_cache=solve_cache, events=sink
            )
        cells = [e for e in sink.events if isinstance(e, CellFinished)]
        assert len(cells) == len(IDS) * RUNS
        assert all(cell.solve_cached for cell in cells)
        assert warm.outcomes == cold.outcomes
        assert cold_report.solve_cache.misses == len(IDS) * RUNS
        assert warm_report.solve_cache.hits == len(IDS) * RUNS
        assert warm_report.solve_cache.misses == 0

    def test_simulation_cache_serves_the_warm_pass(self, kind, tmp_path):
        cache = SimulationCache(str(tmp_path / "sim"))
        with _executor(kind) as pool:
            cold, cold_report = _grid(kind, executor=pool, cache=cache)
            warm, warm_report = _grid(kind, executor=pool, cache=cache)
        assert warm.outcomes == cold.outcomes
        assert cold_report.cache.misses > 0
        assert warm_report.cache.hits > 0
        assert warm_report.cache.misses == 0


@pytest.mark.parametrize("kind", ["thread", "process"])
@pytest.mark.parametrize("workers", [1, 3])
def test_pool_width_does_not_change_rows(kind, workers, serial_grid):
    executor = ThreadExecutor(workers) if kind == "thread" else ProcessExecutor(workers)
    with executor:
        result, report = _grid(kind, executor=executor)
    reference, _, _ = serial_grid
    assert result.outcomes == reference.outcomes
    assert report.jobs == workers
