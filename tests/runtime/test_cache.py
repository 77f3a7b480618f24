"""Content-addressed simulation cache: keys, accounting, disk layer."""

import pytest

from repro.evalsets import get_problem, golden_testbench
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    SimulationCache,
    cached_run_testbench,
    simulation_key,
)
from repro.tb.runner import run_testbench

@pytest.fixture(scope="module")
def problem():
    return get_problem("cb_and_or_gate")


# A correct and an observably-buggy implementation of cb_and_or_gate.
AND_OR = get_problem("cb_and_or_gate").golden
XOR = AND_OR.replace("a & b", "a | b")


@pytest.fixture(scope="module")
def golden_tb(problem):
    return golden_testbench(problem)


class TestSimulationKey:
    def test_deterministic(self, golden_tb):
        assert simulation_key(AND_OR, golden_tb, "top_module") == simulation_key(
            AND_OR, golden_tb, "top_module"
        )

    def test_different_source_different_key(self, golden_tb):
        assert simulation_key(AND_OR, golden_tb) != simulation_key(XOR, golden_tb)

    def test_same_source_different_testbench(self, problem, golden_tb):
        """Collision safety: the testbench is part of the identity."""
        other_tb = golden_testbench(problem, seed=99)
        assert simulation_key(AND_OR, golden_tb) != simulation_key(
            AND_OR, other_tb
        )

    def test_different_top_different_key(self, golden_tb):
        assert simulation_key(AND_OR, golden_tb, "top_module") != simulation_key(
            AND_OR, golden_tb, "other"
        )

    def test_field_boundaries_are_hashed(self):
        """Length prefixes: moving bytes across the source/tb boundary
        must change the key even when the concatenation is identical."""
        tb = "TESTBENCH comb\nINPUTS a\nOUTPUTS y\n"
        assert simulation_key("ab", "c" + tb) != simulation_key("abc", tb)


class TestAccounting:
    def test_miss_then_hit(self, golden_tb, problem):
        cache = SimulationCache()
        first = cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        second = cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert second is first  # served from memory, not re-simulated

    def test_distinct_triples_do_not_collide(self, golden_tb, problem):
        cache = SimulationCache()
        passing = cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        failing = cached_run_testbench(XOR, golden_tb, problem.top, cache=cache)
        assert cache.stats.misses == 2
        assert passing.passed and not failing.passed

    def test_cached_report_matches_direct_run(self, golden_tb, problem):
        cache = SimulationCache()
        cached = cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        direct = run_testbench(AND_OR, golden_tb, problem.top)
        assert cached.score == direct.score
        assert cached.passed == direct.passed
        assert len(cached.records) == len(direct.records)

    def test_hit_rate(self):
        cache = SimulationCache()
        assert cache.stats.hit_rate == 0.0
        cache.stats.hits = 3
        cache.stats.misses = 1
        assert cache.stats.hit_rate == 0.75

    def test_stats_delta(self, golden_tb, problem):
        cache = SimulationCache()
        cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        before = cache.stats.snapshot()
        cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        delta = cache.stats.delta(before)
        assert (delta.hits, delta.misses) == (1, 0)


class TestEviction:
    def test_memory_layer_is_lru_bounded(self, golden_tb, problem, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        cache = SimulationCache()
        variants = [
            AND_OR.replace("a & b", expr)
            for expr in ("a & b", "a | b", "a ^ b", "~(a & b)")
        ]
        for source in variants:
            cached_run_testbench(source, golden_tb, problem.top, cache=cache)
        assert len(cache) == 2  # oldest entries evicted
        # Most recent entry still hits; the first was evicted -> miss.
        before = cache.stats.snapshot()
        cached_run_testbench(variants[-1], golden_tb, problem.top, cache=cache)
        cached_run_testbench(variants[0], golden_tb, problem.top, cache=cache)
        delta = cache.stats.delta(before)
        assert (delta.hits, delta.misses) == (1, 1)


class TestDiskLayer:
    def test_roundtrip_across_instances(self, tmp_path, golden_tb, problem):
        directory = str(tmp_path / "simcache")
        writer = SimulationCache(directory)
        report = cached_run_testbench(
            AND_OR, golden_tb, problem.top, cache=writer
        )
        reader = SimulationCache(directory)
        again = cached_run_testbench(
            AND_OR, golden_tb, problem.top, cache=reader
        )
        assert reader.stats.hits == 1
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0
        assert again.score == report.score

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, golden_tb, problem):
        directory = str(tmp_path / "simcache")
        cache = SimulationCache(directory)
        key = simulation_key(AND_OR, golden_tb, problem.top)
        (tmp_path / "simcache" / f"{key}.rec").write_bytes(b"not a record")
        report = cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 1)
        assert report.passed


class TestDisabled:
    def test_disabled_runtime_runs_directly(self, golden_tb, problem):
        from repro.runtime.context import get_runtime, runtime_session

        with runtime_session(cache=False):
            assert get_runtime().cache is None
            report = cached_run_testbench(AND_OR, golden_tb, problem.top)
        assert report.passed

    def test_simulation_counter_advances_only_on_real_runs(
        self, golden_tb, problem
    ):
        from repro.runtime.cache import simulation_count

        cache = SimulationCache()
        before = simulation_count()
        cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        cached_run_testbench(AND_OR, golden_tb, problem.top, cache=cache)
        assert simulation_count() - before == 1  # second call was a hit


class TestPeek:
    """peek: stats-neutral probe that promotes disk reads to memory."""

    def test_peek_does_not_touch_counters(self):
        cache = SimulationCache()
        cache.put("k", run_testbench(AND_OR, golden_testbench(get_problem("cb_and_or_gate"))))
        before = cache.stats.snapshot()
        assert cache.peek("k") is not None
        assert cache.peek("missing") is None
        after = cache.stats
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_peek_promotes_disk_entry_to_memory(self, tmp_path, golden_tb):
        directory = str(tmp_path / "simcache")
        report = run_testbench(AND_OR, golden_tb)
        writer = SimulationCache(directory)
        key = simulation_key(AND_OR, golden_tb)
        writer.put(key, report)
        reader = SimulationCache(directory)
        assert len(reader) == 0
        assert reader.peek(key) is not None
        assert len(reader) == 1  # promoted: the counted get won't re-decode
        assert reader.peek(key) is not None
        got = reader.get(key)
        assert got is not None
        assert reader.stats.hits == 1
        # Served from the promoted copy, but the disk answered it.
        assert reader.stats.disk_hits == 1
        assert reader.get(key) is not None
        assert (reader.stats.hits, reader.stats.disk_hits) == (2, 1)
