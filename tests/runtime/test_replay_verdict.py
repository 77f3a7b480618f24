"""A replayed cell scores nothing: the solve-cell record keeps its verdict.

The golden verdict is a pure function of the solve-cell key (which
hashes the problem's full content, golden design included), so a warm
grid serves it from the record: no simulation lookup, no golden
testbench derivation, on every execution path.
"""

import dataclasses
import os
import pickle

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.events import CellFinished, ListSink
from repro.evalsets import get_problem
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    evaluate_many,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime import batch, cache as cache_module, workers
from repro.runtime.cache import simulation_count
from repro.service.worker import serve_cached_record

PROBLEMS = [get_problem(p) for p in ("cb_mux2", "fs_vending")]
RUNS = 2
FACTORY = SYSTEMS["mage"].factory


def _grid(solve_cache, executor, cache=False, events=None):
    with executor:
        result, report = evaluate_many(
            FACTORY,
            "verilogeval-v2",
            runs=RUNS,
            problems=PROBLEMS,
            executor=executor,
            cache=cache,
            solve_cache=solve_cache,
            events=events,
        )
    rows = [(o.problem_id, o.passes, o.scores) for o in result.outcomes]
    return rows, report


@pytest.fixture()
def warm_dir(tmp_path):
    """A solve-cell directory holding every cell of the grid, scored."""
    directory = str(tmp_path / "solve")
    rows, report = _grid(SolveCellCache(directory), SerialExecutor())
    assert report.solve_cache.stores == len(PROBLEMS) * RUNS
    return directory, rows


def _count_derivations(monkeypatch):
    calls = []
    for module in (batch, workers):
        original = module.golden_testbench

        def counted(problem, *args, original=original, **kwargs):
            calls.append(problem.id)
            return original(problem, *args, **kwargs)

        monkeypatch.setattr(module, "golden_testbench", counted)
    return calls


class TestWarmReplaySimulatesNothing:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor, lambda: ProcessExecutor(2)],
        ids=["serial", "process"],
    )
    @pytest.mark.parametrize("sim_cache", ["fresh", "off"])
    def test_replay(self, warm_dir, executor, sim_cache, monkeypatch):
        directory, cold_rows = warm_dir
        derived = _count_derivations(monkeypatch)
        cache = SimulationCache() if sim_cache == "fresh" else False
        sims_before = simulation_count()
        rows, report = _grid(SolveCellCache(directory), executor(), cache)
        assert rows == cold_rows
        assert report.solve_cache.hits == report.cells == len(PROBLEMS) * RUNS
        assert report.simulations == 0
        assert report.cache.lookups == 0
        assert simulation_count() == sims_before
        assert derived == []

    def test_peek_keeps_the_disk_read_single_and_counted(self, warm_dir):
        """The parent's probe promotes each record into memory, so the
        cell's counted lookup is a memory hit still counted as a disk
        hit."""
        directory, _ = warm_dir
        reader = SolveCellCache(directory)
        _, report = _grid(reader, SerialExecutor())
        assert report.solve_cache.disk_hits == len(PROBLEMS) * RUNS
        assert len(reader) == len(PROBLEMS) * RUNS


def _count_disk_reads(monkeypatch):
    reads = []
    for name in ("get", "peek"):
        original = getattr(cache_module.DiskTier, name)

        def counted(self, key, original=original):
            reads.append(key)
            return original(self, key)

        monkeypatch.setattr(cache_module.DiskTier, name, counted)
    return reads


class TestReplayedGridStaysInProcess:
    def test_full_replay_on_a_process_pool_runs_serially(
        self, warm_dir, monkeypatch
    ):
        """Every record is already in memory after the parent's probes,
        so the grid runs here: no pool starts and each record is read
        from disk once."""
        directory, cold_rows = warm_dir
        reads = _count_disk_reads(monkeypatch)
        pool = ProcessExecutor(2)
        rows, report = _grid(SolveCellCache(directory), pool)
        assert rows == cold_rows
        assert report.executor == "serial[1]"
        assert pool._pool is None
        assert len(reads) == len(set(reads)) == len(PROBLEMS) * RUNS
        assert report.solve_cache.disk_hits == len(PROBLEMS) * RUNS

    def test_partly_warm_grid_still_uses_the_pool(self, warm_dir):
        directory, cold_rows = warm_dir
        key = solve_cell_key(system_fingerprint(FACTORY), PROBLEMS[0], 0)
        os.remove(os.path.join(directory, f"{key}.pkl"))
        rows, report = _grid(SolveCellCache(directory), ProcessExecutor(2))
        assert rows == cold_rows
        assert report.executor == "process[2]"
        assert report.solve_cache.misses == 1
        assert report.solve_cache.hits == len(PROBLEMS) * RUNS - 1


def _strip_verdicts(directory: str) -> int:
    """Rewrite every record as a pickle without ``passed``/``score``:
    what a record stored before the verdict existed looks like."""
    stripped = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            record = pickle.load(handle)
        object.__delattr__(record, "passed")
        object.__delattr__(record, "score")
        with open(path, "wb") as handle:
            pickle.dump(record, handle)
        stripped += 1
    return stripped


class TestRecordsWithoutVerdict:
    def test_old_record_unpickles_without_a_verdict(self, tmp_path):
        record = SolveCellRecord(source="module m;", system="s")
        object.__delattr__(record, "passed")
        object.__delattr__(record, "score")
        assert "passed" not in pickle.loads(pickle.dumps(record)).__dict__
        loaded = pickle.loads(pickle.dumps(record))
        assert (loaded.passed, loaded.score) == (None, None)

    def test_old_records_are_scored(self, warm_dir, monkeypatch):
        directory, cold_rows = warm_dir
        assert _strip_verdicts(directory) == len(PROBLEMS) * RUNS
        derived = _count_derivations(monkeypatch)
        rows, report = _grid(
            SolveCellCache(directory), SerialExecutor(), SimulationCache()
        )
        assert rows == cold_rows
        assert report.solve_cache.hits == len(PROBLEMS) * RUNS
        assert report.simulations > 0
        # Derived once per problem, up front, as on a cold grid.
        assert derived == [p.id for p in PROBLEMS]


class _Vanishing(SolveCellCache):
    """Every counted lookup finds its record gone: deleted after the
    grid's check, before the cell's own lookup."""

    def get(self, key):
        self.clear()
        try:
            os.remove(os.path.join(self.directory, f"{key}.pkl"))
        except FileNotFoundError:
            pass
        return super().get(key)


class TestRecordVanishesAfterTheCheck:
    def test_cell_derives_its_own_golden(self, warm_dir, monkeypatch):
        directory, cold_rows = warm_dir
        derived = _count_derivations(monkeypatch)
        rows, report = _grid(_Vanishing(directory), SerialExecutor())
        assert rows == cold_rows
        assert report.solve_cache.misses == len(PROBLEMS) * RUNS
        # Nothing derived up front; each cell derived its own.
        assert sorted(derived) == sorted(
            p.id for p in PROBLEMS for _ in range(RUNS)
        )


class TestServeCachedRecord:
    def test_replay_looks_up_no_simulation(self):
        record = SolveCellRecord(
            source="module m; endmodule",  # never simulated
            system="mage",
            passed=True,
            score=1.0,
        )
        sim_cache = SimulationCache()
        sink = ListSink()
        sims_before = simulation_count()
        result = serve_cached_record(
            "mage", "cb_mux2", record, sink=sink, sim_cache=sim_cache
        )
        assert (result.passed, result.score, result.solve_cached) == (
            True,
            1.0,
            True,
        )
        assert sim_cache.stats.lookups == 0
        assert simulation_count() == sims_before

    def test_record_without_verdict_is_scored(self, warm_dir):
        directory, _ = warm_dir
        key = solve_cell_key(system_fingerprint(FACTORY), PROBLEMS[1], 0)
        record = SolveCellCache(directory).get(key)
        sim_cache = SimulationCache()
        result = serve_cached_record(
            "mage",
            PROBLEMS[1].id,
            dataclasses.replace(record, passed=None, score=None),
            sim_cache=sim_cache,
        )
        assert (result.passed, result.score) == (record.passed, record.score)
        assert sim_cache.stats.lookups > 0


class TestCellEventOrder:
    def test_serial_grids_stream_identical_cell_sequences(self):
        def stream():
            sink = ListSink()
            _grid(False, SerialExecutor(), events=sink)
            return [
                (e.problem_id, e.run_index, e.passed, e.score)
                for e in sink.events
                if isinstance(e, CellFinished)
            ]

        first = stream()
        assert stream() == first
        # Submission order: problems in suite order, runs in order.
        assert [cell[:2] for cell in first] == [
            (p.id, run) for p in PROBLEMS for run in range(RUNS)
        ]


class TestProblemKeyText:
    def test_problem_text_is_built_once(self, monkeypatch):
        problem = dataclasses.replace(PROBLEMS[0])  # no memo yet
        fingerprint = system_fingerprint(FACTORY)
        first = solve_cell_key(fingerprint, problem, 0)

        def fail(obj):
            raise AssertionError("problem text rebuilt")

        monkeypatch.setattr(cache_module, "_stable_repr", fail)
        assert solve_cell_key(fingerprint, problem, 1) != first
        assert solve_cell_key(fingerprint, problem, 0) == first
