"""Batch evaluation: serial-vs-parallel parity, stats, progress."""

import time
from functools import partial

import pytest

from repro.baselines.registry import SYSTEMS, evaluate_registered
from repro.baselines.vanilla import VanillaLLM
from repro.core.config import MAGEConfig
from repro.core.events import BatchFinished, ListSink
from repro.evalsets import get_problem
from repro.evaluation.harness import evaluate_mage, evaluate_system
from repro.llm.interface import SamplingParams
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SimulationCache,
    evaluate_many,
    runtime_session,
)
from repro.runtime import batch

LOW = SamplingParams(temperature=0.0, top_p=0.01, n=1)
MIXED = [get_problem(p) for p in ["cb_mux2", "cb_kmap_mux", "fs_seq_det_110"]]

vanilla_factory = partial(VanillaLLM, "itertl-ft", LOW)


class TestParity:
    """Fixed seeds give bit-identical EvalResults at any worker count."""

    def test_jobs_1_2_4_identical(self):
        results = []
        for workers in (1, 2, 4):
            executor = (
                SerialExecutor() if workers == 1 else ProcessExecutor(workers)
            )
            with executor:
                results.append(
                    evaluate_system(
                        vanilla_factory,
                        "verilogeval-v2",
                        runs=3,
                        seed0=7,
                        problems=MIXED,
                        executor=executor,
                    )
                )
        assert results[0].outcomes == results[1].outcomes
        assert results[0].outcomes == results[2].outcomes
        assert results[0].system == results[1].system

    def test_process_executor_parity(self):
        with SerialExecutor() as serial:
            baseline = evaluate_system(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=serial,
            )
        with ProcessExecutor(2) as procs:
            parallel = evaluate_system(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=procs,
            )
        assert baseline.outcomes == parallel.outcomes

    def test_mage_process_parity(self):
        config = MAGEConfig.high_temperature()
        with SerialExecutor() as serial:
            baseline = evaluate_mage(
                config, "verilogeval-v2", runs=2, problems=MIXED, executor=serial
            )
        with ProcessExecutor(2) as procs:
            parallel = evaluate_mage(
                config, "verilogeval-v2", runs=2, problems=MIXED, executor=procs
            )
        assert baseline.outcomes == parallel.outcomes

    def test_seed0_changes_sampled_outcomes(self):
        a = evaluate_mage(
            MAGEConfig.high_temperature(),
            "verilogeval-v2",
            runs=1,
            seed0=0,
            problems=MIXED,
        )
        b = evaluate_mage(
            MAGEConfig.high_temperature(),
            "verilogeval-v2",
            runs=1,
            seed0=1,
            problems=MIXED,
        )
        # Different base seeds resample candidates; scores may differ.
        # (Equality of Pass@1 is possible; the tally shape must hold.)
        assert [o.runs for o in a.outcomes] == [o.runs for o in b.outcomes]


class TestBatchReport:
    def test_cache_hits_on_repeat_pass(self):
        cache = SimulationCache()
        with SerialExecutor() as executor:
            _, cold = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                cache=cache,
            )
            result, warm = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                cache=cache,
            )
        assert cold.cache.misses > 0
        assert warm.cache.hits > 0
        assert warm.cache.misses == 0
        assert warm.simulations == 0
        assert warm.cache.hit_rate == 1.0
        assert result.outcomes  # tally still assembled from cached reports

    def test_report_counts_grid(self):
        with SerialExecutor() as executor:
            result, report = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                cache=SimulationCache(),
            )
        assert report.cells == len(MIXED) * 2
        assert len(report.cell_seconds) == report.cells
        assert report.wall_seconds > 0
        assert report.executor == "serial[1]"
        assert "cache lookups" in report.render()

    def test_cache_disabled(self):
        with SerialExecutor() as executor:
            _, report = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                executor=executor,
                cache=False,
            )
        assert report.cache.lookups == 0
        assert report.simulations > 0  # still counted without a cache

    def test_process_simulation_count_matches_serial(self):
        """No-cache process runs must report real simulations, not cells."""
        mage_factory = SYSTEMS["mage"].factory
        with SerialExecutor() as serial:
            # Warm-up: populate SimLLM's one-time per-(model, problem)
            # memos (misconception validation simulates once); forked
            # pool workers inherit them, so both measured runs must
            # start from the same steady state.
            evaluate_many(
                mage_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                executor=serial,
                cache=False,
            )
            _, baseline = evaluate_many(
                mage_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=serial,
                cache=False,
            )
        with ProcessExecutor(2) as procs:
            _, parallel = evaluate_many(
                mage_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=procs,
                cache=False,
            )
        assert parallel.simulations == baseline.simulations
        # MAGE scores candidates internally: far more sims than cells.
        assert parallel.simulations > parallel.cells

    def test_report_counts_the_golden_probes(self, tmp_path):
        """The golden-testbench probes are simulations of this grid too:
        the report matches the process-wide counter, not just the cells."""
        from repro.runtime import SolveCellCache, simulation_count

        before = simulation_count()
        with SerialExecutor() as executor:
            _, report = evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=1,
                problems=[get_problem("cb_mux2")],
                executor=executor,
                cache=SimulationCache(str(tmp_path / "sim")),
                solve_cache=SolveCellCache(str(tmp_path / "solve")),
            )
        assert report.simulations == simulation_count() - before
        assert report.cache.stores == len(list((tmp_path / "sim").glob("*.rec")))

    def test_process_cache_lookups_match_serial(self):
        """Across processes the parent's probe lookups are added to the
        rows' own, so the lookup total matches the serial grid's, and
        every counter (stores included) comes back from the workers.

        Hits and misses are not compared field by field: each child
        keeps its own memory tier, so a pool hits less than one
        process does.  Only their sum is pinned."""
        mage_factory = SYSTEMS["mage"].factory
        grid = dict(runs=2, problems=MIXED)
        with SerialExecutor() as serial:
            # Warm-up of SimLLM's one-time memos, as above.
            evaluate_many(
                mage_factory, "verilogeval-v2", runs=1, problems=MIXED,
                executor=serial, cache=False,
            )
            _, baseline = evaluate_many(
                mage_factory, "verilogeval-v2", executor=serial,
                cache=SimulationCache(), **grid,
            )
        with ProcessExecutor(2) as procs:
            _, parallel = evaluate_many(
                mage_factory, "verilogeval-v2", executor=procs,
                cache=SimulationCache(), **grid,
            )
        assert parallel.cache.lookups == baseline.cache.lookups
        for side in (baseline.cache, parallel.cache):
            assert side.hits + side.misses == baseline.cache.lookups
        assert (
            parallel.cache.corrupt,
            parallel.cache.errors,
            parallel.cache.evictions,
        ) == (
            baseline.cache.corrupt,
            baseline.cache.errors,
            baseline.cache.evictions,
        )
        # Every miss simulates and stores, in the workers as in the parent.
        assert baseline.cache.stores == baseline.cache.misses
        assert parallel.cache.stores == parallel.cache.misses

    def test_process_pool_refuses_a_closure_factory(self, monkeypatch):
        """A factory that cannot cross the process boundary is a caller
        error, raised before any golden testbench derives or cell runs."""
        derived = []
        monkeypatch.setattr(
            batch, "golden_testbench", lambda problem: derived.append(problem)
        )
        factory = lambda: VanillaLLM("itertl-ft", LOW)  # noqa: E731
        with ProcessExecutor(2) as procs:
            with pytest.raises(TypeError, match="--jobs 1") as raised:
                evaluate_many(
                    factory,
                    "verilogeval-v2",
                    runs=1,
                    problems=MIXED,
                    name="closure",
                    executor=procs,
                )
            assert procs._pool is None  # nothing was submitted
        assert "<lambda>" in str(raised.value)
        assert derived == []

    def test_serial_grid_takes_a_closure_factory(self):
        """Only a process pool needs a picklable factory."""
        factory = lambda: VanillaLLM("itertl-ft", LOW)  # noqa: E731
        with SerialExecutor() as executor:
            closure, report = evaluate_many(
                factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                name="closure",
                executor=executor,
            )
            reference, _ = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                name="closure",
                executor=executor,
            )
        assert report.executor == "serial[1]"
        assert closure.outcomes == reference.outcomes

    def test_wall_clock_covers_golden_derivation(self, monkeypatch):
        """The report's clock starts before the golden testbenches
        derive, so their time is part of the grid's wall clock."""
        original = batch.golden_testbench

        def slow(problem, *args, **kwargs):
            time.sleep(0.05)
            return original(problem, *args, **kwargs)

        monkeypatch.setattr(batch, "golden_testbench", slow)
        sink = ListSink()
        with SerialExecutor() as executor:
            _, report = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED[:1],
                executor=executor,
                events=sink,
            )
        assert report.wall_seconds >= 0.05
        finished = sink.events[-1]
        assert isinstance(finished, BatchFinished)
        assert finished.seconds == report.wall_seconds


class TestForcedCacheDirectory:
    """``cache=True``/``solve_cache=True`` over a runtime with the layer
    off still keep their disk tier where the environment points."""

    def test_forced_sim_cache_persists_to_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path / "sim"))
        with runtime_session(cache=False), SerialExecutor() as executor:
            _, report = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                executor=executor,
                cache=True,
            )
        assert report.cache.stores > 0
        assert len(list((tmp_path / "sim").glob("*.rec"))) == (
            report.cache.stores
        )

    def test_forced_solve_cache_persists_to_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path / "solve"))
        with runtime_session(solve_cache=False), SerialExecutor() as executor:
            evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                executor=executor,
                solve_cache=True,
            )
        assert len(list((tmp_path / "solve").glob("*.rec"))) == len(MIXED)


class TestProgressAndName:
    def test_progress_lines_in_suite_order(self):
        lines = []
        with ProcessExecutor(2) as executor:
            evaluate_system(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                progress=lines.append,
            )
        assert len(lines) == len(MIXED)
        for line, problem in zip(lines, MIXED):
            assert problem.id in line

    def test_name_avoids_factory_construction(self):
        calls = []

        def factory():
            calls.append(1)
            return VanillaLLM("itertl-ft", LOW)

        result = evaluate_system(
            factory,
            "verilogeval-v2",
            runs=1,
            problems=MIXED[:1],
            name="labelled",
        )
        assert result.system == "labelled"
        assert len(calls) == 1  # one per run cell; none for the label

    def test_registry_route(self):
        result, report = evaluate_registered(
            "vanilla-claude", "verilogeval-v2", runs=1
        )
        assert result.system.startswith("vanilla[")
        assert report.cells == len(result.outcomes)

    def test_registry_unknown_key(self):
        with pytest.raises(KeyError):
            evaluate_registered("martian")
