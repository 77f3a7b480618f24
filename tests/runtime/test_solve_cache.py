"""Solve-cell cache: key sensitivity, fingerprints, warm-sweep reuse."""

from functools import partial

from repro.baselines.registry import MAGESystem, SYSTEMS
from repro.baselines.vanilla import VanillaLLM
from repro.core.config import MAGEConfig
from repro.evalsets import get_problem
from repro.llm.interface import SamplingParams
from repro.runtime import (
    SerialExecutor,
    SolveCellCache,
    SolveCellRecord,
    evaluate_many,
    solve_cell_key,
    system_fingerprint,
)

LOW = SamplingParams(temperature=0.0, top_p=0.01, n=1)
MIXED = [get_problem(p) for p in ["cb_mux2", "cb_kmap_mux", "fs_seq_det_110"]]

vanilla_factory = partial(VanillaLLM, "itertl-ft", LOW)


class TestKeySensitivity:
    """hash(config, problem, seed): every component must matter."""

    def test_deterministic(self):
        fp = system_fingerprint(SYSTEMS["mage"].factory)
        problem = MIXED[0]
        assert solve_cell_key(fp, problem, 3) == solve_cell_key(fp, problem, 3)

    def test_seed_changes_key(self):
        fp = system_fingerprint(SYSTEMS["mage"].factory)
        problem = MIXED[0]
        assert solve_cell_key(fp, problem, 0) != solve_cell_key(fp, problem, 1)

    def test_problem_changes_key(self):
        fp = system_fingerprint(SYSTEMS["mage"].factory)
        assert solve_cell_key(fp, MIXED[0], 0) != solve_cell_key(fp, MIXED[1], 0)

    def test_config_changes_key(self):
        high = system_fingerprint(
            partial(MAGESystem, MAGEConfig.high_temperature())
        )
        low = system_fingerprint(
            partial(MAGESystem, MAGEConfig.low_temperature())
        )
        assert high != low
        assert solve_cell_key(high, MIXED[0], 0) != solve_cell_key(
            low, MIXED[0], 0
        )

    def test_model_changes_fingerprint(self):
        a = system_fingerprint(partial(VanillaLLM, "gpt-4o", LOW))
        b = system_fingerprint(partial(VanillaLLM, "itertl-ft", LOW))
        assert a != b


class TestFingerprints:
    def test_all_registry_factories_fingerprint(self):
        """Every Table II row must be solve-cacheable."""
        for key, spec in SYSTEMS.items():
            assert system_fingerprint(spec.factory) is not None, key

    def test_closures_are_refused(self):
        captured = {}
        assert system_fingerprint(lambda: VanillaLLM("gpt-4o", LOW)) is None
        assert system_fingerprint(lambda: captured) is None

    def test_explicit_cache_fingerprint_wins(self):
        def factory():
            return VanillaLLM("gpt-4o", LOW)

        factory.cache_fingerprint = "my-system-v1"
        assert system_fingerprint(factory) == "my-system-v1"

    def test_fingerprints_are_address_free(self):
        """Two equal partials (fresh objects) share one fingerprint."""
        a = system_fingerprint(partial(VanillaLLM, "gpt-4o", SamplingParams()))
        b = system_fingerprint(partial(VanillaLLM, "gpt-4o", SamplingParams()))
        assert a == b


class TestWarmSweeps:
    def test_warm_pass_hits_every_cell_and_matches(self):
        cache = SolveCellCache()
        with SerialExecutor() as executor:
            cold_result, cold = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                solve_cache=cache,
            )
            warm_result, warm = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                solve_cache=cache,
            )
        assert cold.solve_cache.misses == len(MIXED) * 2
        assert warm.solve_cache.hits == len(MIXED) * 2
        assert warm.solve_cache.misses == 0
        assert warm_result.outcomes == cold_result.outcomes

    def test_warm_mage_pass_runs_no_simulations(self):
        """A fully warm solve-cell + simulation cache re-runs the sweep
        without a single engine step or simulation."""
        from repro.runtime import SimulationCache

        sim = SimulationCache()
        solve = SolveCellCache()
        with SerialExecutor() as executor:
            evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                executor=executor,
                cache=sim,
                solve_cache=solve,
            )
            _, warm = evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED,
                executor=executor,
                cache=sim,
                solve_cache=solve,
            )
        assert warm.simulations == 0
        assert warm.solve_cache.hit_rate == 1.0

    def test_unfingerprintable_factory_still_evaluates(self):
        factory = lambda: VanillaLLM("itertl-ft", LOW)  # noqa: E731
        cache = SolveCellCache()
        with SerialExecutor() as executor:
            result, report = evaluate_many(
                factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED[:1],
                executor=executor,
                solve_cache=cache,
            )
        assert result.outcomes  # evaluated normally
        assert report.solve_cache.lookups == 0  # caching silently skipped

    def test_records_capture_events(self):
        cache = SolveCellCache()
        with SerialExecutor() as executor:
            evaluate_many(
                SYSTEMS["mage"].factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED[:1],
                executor=executor,
                solve_cache=cache,
            )
        fp = system_fingerprint(SYSTEMS["mage"].factory)
        record = cache.get(solve_cell_key(fp, MIXED[0], 0))
        assert isinstance(record, SolveCellRecord)
        assert "module" in record.source
        assert record.events  # the typed stream rode along
        assert any(e.kind == "run-finished" for e in record.events)

    def test_disk_roundtrip_across_instances(self, tmp_path):
        directory = str(tmp_path / "solvecache")
        writer = SolveCellCache(directory)
        with SerialExecutor() as executor:
            evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED[:2],
                executor=executor,
                solve_cache=writer,
            )
            reader = SolveCellCache(directory)
            _, warm = evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=1,
                problems=MIXED[:2],
                executor=executor,
                solve_cache=reader,
            )
        assert warm.solve_cache.hits == 2
        assert reader.stats.disk_hits == 2

    def test_streaming_cell_events(self):
        events = []
        with SerialExecutor() as executor:
            evaluate_many(
                vanilla_factory,
                "verilogeval-v2",
                runs=2,
                problems=MIXED,
                executor=executor,
                events=events.append,
            )
        cell_events = [e for e in events if e.kind == "cell-finished"]
        assert len(cell_events) == len(MIXED) * 2
        assert events[-1].kind == "batch-finished"
        assert {e.problem_id for e in cell_events} == {p.id for p in MIXED}


class TestDiskInfo:
    def test_disk_cache_info(self, tmp_path):
        from repro.runtime import disk_cache_info

        directory = str(tmp_path / "cachedir")
        cache = SolveCellCache(directory)
        cache.put("k1", SolveCellRecord(source="module m; endmodule", system="s"))
        info = disk_cache_info(directory)
        assert info.entries == 1
        assert info.total_bytes > 0
        assert "entries" in info.render()

    def test_missing_directory_is_empty(self):
        from repro.runtime import disk_cache_info

        info = disk_cache_info("/nonexistent/cache/dir")
        assert info.entries == 0 and info.total_bytes == 0
