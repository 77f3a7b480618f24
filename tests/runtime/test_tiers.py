"""The caches: an in-memory LRU over an optional disk directory.

Promotion of disk hits, the memory LRU cap, disk-tier corruption
robustness (seeded-random, mirroring
tests/service/test_protocol_properties.py), failed disk writes,
shared directories, and the runtime's wiring."""

import dataclasses
import errno
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.llm.gateway.cassette import CassetteRecord, CassetteStore
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    CacheStats,
    DiskTier,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    clear_disk_cache,
    disk_cache_info,
)
from repro.tb import runner, stimulus


class TestComposition:
    def test_default_stack_is_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = SimulationCache()
        assert cache.directory is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert os.listdir(tmp_path) == []

    def test_directory_adds_a_disk_tier(self, tmp_path):
        cache = SimulationCache(str(tmp_path / "c"))
        assert cache.directory == str(tmp_path / "c")
        assert os.path.isdir(cache.directory)

    def test_one_stats_row_holds_every_counter(self):
        assert [field.name for field in dataclasses.fields(CacheStats)] == [
            "hits",
            "misses",
            "stores",
            "disk_hits",
            "corrupt",
            "errors",
            "evictions",
        ]
        later = CacheStats(5, 4, 3, 2, 1, 1, 1)
        assert later.delta(CacheStats(1, 1, 1, 1, 1, 0, 0)) == CacheStats(
            4, 3, 2, 1, 0, 1, 1
        )
        assert later.snapshot() == later
        assert later.snapshot() is not later


class TestPromotionAndWritePolicy:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        directory = str(tmp_path / "c")
        record = SolveCellRecord(source="module m; endmodule", system="s")
        SolveCellCache(directory).put("k", record)
        reader = SolveCellCache(directory)
        assert len(reader) == 0
        got = reader.get("k")
        assert got == record
        assert reader.stats.disk_hits == 1
        assert len(reader) == 1  # promoted
        # Second lookup is answered by the memory tier.
        assert reader.get("k") == record
        assert reader.stats.disk_hits == 1
        assert reader.stats.hits == 2

    def test_put_writes_through_to_disk(self, tmp_path):
        directory = str(tmp_path / "c")
        cache = SolveCellCache(directory)
        cache.put("k", SolveCellRecord(source="x", system="s"))
        assert disk_cache_info(directory).entries == 1

    def test_peek_promotes_without_counting(self, tmp_path):
        directory = str(tmp_path / "c")
        record = SolveCellRecord(source="module m;", system="s")
        SolveCellCache(directory).put("k", record)
        reader = SolveCellCache(directory)
        assert reader.peek("k") == record
        assert len(reader) == 1
        assert reader.stats == CacheStats()


class TestMemoryLRU:
    """The memory map keeps at most ``MEMORY_ENTRIES`` values."""

    def test_lru_eviction_order(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 3)
        cache = SimulationCache()
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        assert cache.get("a") == "A"  # touch: a becomes most-recent
        cache.put("d", "D")  # evicts b, the least recently used
        assert cache.peek("b") is None
        assert cache.peek("a") == "A"
        assert cache.peek("c") == "C"
        assert cache.peek("d") == "D"
        assert len(cache) == 3
        assert cache.stats.evictions == 1

    def test_peek_does_not_touch_lru_order(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        cache = SimulationCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")  # NOT a touch
        cache.put("c", 3)  # evicts a (peek kept it least-recent)
        assert cache.peek("a") is None
        assert cache.peek("b") == 2

    def test_evicted_entry_is_read_back_from_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 1)
        cache = SolveCellCache(str(tmp_path / "c"))
        first = SolveCellRecord(source="module a;", system="s")
        cache.put("a", first)
        cache.put("b", SolveCellRecord(source="module b;", system="s"))
        assert cache.stats.evictions == 1
        assert cache.get("a") == first  # promoted again, evicting b
        assert (cache.stats.disk_hits, cache.stats.evictions) == (1, 2)
        assert len(cache) == 1

    def test_default_cap(self):
        assert cache_module.MEMORY_ENTRIES == 8192

    def test_threads_lose_no_counts_and_respect_the_cap(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 16)
        cache = SimulationCache()

        def work(offset):
            for index in range(400):
                key = f"k{(offset + index) % 40}"
                if cache.get(key) is None:
                    cache.put(key, key)

        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stats.lookups == 4 * 400
        assert cache.stats.stores == cache.stats.misses
        assert len(cache) == 16
        assert cache.stats.evictions == cache.stats.stores - 16


class TestDiskWriteFailure:
    """A failed disk write is counted in ``errors`` and leaves neither
    an entry nor its temp file; the memory copy still serves."""

    @pytest.mark.parametrize(
        "module, name", [(pickle, "dump"), (os, "replace")],
        ids=["pickle.dump", "os.replace"],
    )
    def test_failed_write_counts_an_error_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch, module, name
    ):
        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        directory = str(tmp_path / "c")
        cache = SolveCellCache(directory)
        record = SolveCellRecord(source="module m;", system="s")
        monkeypatch.setattr(module, name, fail)
        cache.put("k", record)
        monkeypatch.undo()
        assert os.listdir(directory) == []
        assert cache.stats.errors == 1
        assert cache.stats.stores == 1
        assert cache.get("k") == record  # served from memory

    def test_vanished_directory_counts_an_error(self, tmp_path):
        """The directory removed under a live cache (``rm -r`` in another
        shell): puts count an error, gets are plain misses."""
        directory = tmp_path / "c"
        cache = SolveCellCache(str(directory))
        directory.rmdir()
        record = SolveCellRecord(source="module m;", system="s")
        cache.put("k", record)
        assert cache.stats.errors == 1
        cache.clear()
        assert cache.get("k") is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)

    def test_pickling_error_propagates_and_leaves_no_temp_file(
        self, tmp_path
    ):
        directory = str(tmp_path / "c")
        tier = DiskTier(directory)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            tier.put("k", lambda: None)
        assert os.listdir(directory) == []
        assert tier.stats.errors == 0


class TestRuntimeConfigWiring:
    def test_runtime_session_builds_disk_backed_caches(self, tmp_path):
        from repro.runtime.context import get_runtime, runtime_session

        with runtime_session(
            cache_dir=str(tmp_path / "sim"),
            solve_cache=True,
            solve_cache_dir=str(tmp_path / "solve"),
        ):
            runtime = get_runtime()
            assert runtime.cache.directory == str(tmp_path / "sim")
            assert runtime.solve_cache.directory == str(tmp_path / "solve")

    def test_config_holds_no_cache_size_or_bound(self):
        """A cache is sized by nothing but its directory, and the worker
        count alone picks the executor."""
        from repro.runtime.config import RuntimeConfig

        assert [field.name for field in dataclasses.fields(RuntimeConfig)] == [
            "jobs",
            "cache",
            "cache_dir",
            "solve_cache",
            "solve_cache_dir",
            "gateway",
        ]

    def test_peer_list_env_is_not_read(self, tmp_path, monkeypatch):
        """Caches are memory -> disk; a stale ``REPRO_CACHE_PEERS`` from
        an older deployment adds no tier and no error."""
        from repro.runtime.context import get_runtime, runtime_session

        monkeypatch.setenv("REPRO_CACHE_PEERS", "127.0.0.1:1")
        with runtime_session(
            cache_dir=str(tmp_path / "sim"),
            solve_cache=True,
            solve_cache_dir=str(tmp_path / "solve"),
        ):
            runtime = get_runtime()
            for cache in (runtime.cache, runtime.solve_cache):
                assert cache.get("absent") is None
                assert (cache.stats.misses, cache.stats.errors) == (1, 0)


def _corrupt(rng: random.Random, path: str) -> str:
    """Apply one random corruption to a cache file; returns its kind."""
    with open(path, "rb") as handle:
        data = handle.read()
    mode = rng.choice(["truncate", "flip", "garbage", "wrong-type", "empty"])
    if mode == "truncate":
        cut = rng.randrange(0, max(1, len(data) - 1))
        blob = data[:cut]
    elif mode == "flip":
        blob = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            index = rng.randrange(len(blob))
            blob[index] = rng.randrange(256)
        blob = bytes(blob)
    elif mode == "garbage":
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 256)))
    elif mode == "wrong-type":
        blob = pickle.dumps({"not": "a record"})
    else:
        blob = b""
    with open(path, "wb") as handle:
        handle.write(blob)
    return mode


class TestDiskCorruptionProperties:
    """Seeded-random corruption sweep: every mangled entry is a counted
    miss, never an exception -- the disk tier's robustness contract."""

    @pytest.mark.parametrize("seed", range(20))
    def test_corrupted_entries_are_counted_misses(self, tmp_path, seed):
        rng = random.Random(seed)
        directory = str(tmp_path / "c")
        writer = SolveCellCache(directory)
        keys = [f"key{i}" for i in range(rng.randint(1, 5))]
        for key in keys:
            writer.put(
                key, SolveCellRecord(source=f"module {key};", system="s")
            )
        broken = rng.sample(keys, rng.randint(1, len(keys)))
        for key in broken:
            _corrupt(rng, os.path.join(directory, f"{key}.pkl"))
        reader = SolveCellCache(directory)
        for key in keys:
            value = reader.get(key)  # must never raise
            if key in broken:
                assert value is None
            else:
                assert value is not None
        assert reader.stats.misses == len(broken)
        assert reader.stats.corrupt == len(broken)
        assert reader.stats.hits == len(keys) - len(broken)

    @pytest.mark.parametrize("seed", range(5))
    def test_peek_is_equally_robust(self, tmp_path, seed):
        rng = random.Random(1000 + seed)
        directory = str(tmp_path / "c")
        SolveCellCache(directory).put(
            "k", SolveCellRecord(source="module m;", system="s")
        )
        _corrupt(rng, os.path.join(directory, "k.pkl"))
        reader = SolveCellCache(directory)
        assert reader.peek("k") is None  # never raises
        assert reader.stats.corrupt == 1
        assert reader.stats.misses == 0  # peek stays lookup-neutral

    def test_missing_entry_is_a_plain_miss_not_corrupt(self, tmp_path):
        cache = SolveCellCache(str(tmp_path / "c"))
        assert cache.get("absent") is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 0

    def test_corrupt_entry_recovers_after_overwrite(self, tmp_path):
        directory = str(tmp_path / "c")
        cache = SolveCellCache(directory)
        record = SolveCellRecord(source="module m;", system="s")
        cache.put("k", record)
        _corrupt(random.Random(7), os.path.join(directory, "k.pkl"))
        cache.clear()  # drop the memory copy so the disk read happens
        assert cache.get("k") is None
        cache.put("k", record)
        cache.clear()
        assert cache.get("k") == record


# One value of each layer's type, for the shared-directory cases.
LAYER_VALUES = {
    "sim": (
        SimulationCache,
        runner.TestReport(
            testbench=stimulus.Testbench(
                kind="comb", inputs=("a",), outputs=("y",), steps=()
            )
        ),
    ),
    "solve": (SolveCellCache, SolveCellRecord(source="module m;", system="s")),
    "llm": (CassetteStore, CassetteRecord(completions=("x",), backend="mock")),
}
LAYERS = sorted(LAYER_VALUES)


class TestSharedDirectory:
    """Caches in different processes share warm entries by pointing at
    one directory; each instance below stands for one process."""

    @pytest.mark.parametrize("layer", LAYERS)
    def test_second_cache_reads_the_first_caches_entry(self, tmp_path, layer):
        cls, value = LAYER_VALUES[layer]
        directory = str(tmp_path / layer)
        cls(directory).put("k", value)
        reader = cls(directory)
        assert reader.get("k") == value
        assert (reader.stats.hits, reader.stats.disk_hits) == (1, 1)
        assert reader.stats.misses == 0

    @pytest.mark.parametrize("layer", LAYERS)
    def test_another_layers_entry_is_a_corrupt_miss(self, tmp_path, layer):
        """Two layers pointed at one directory by mistake never hand
        each other's values out: the type guard turns them into misses."""
        cls, _ = LAYER_VALUES[layer]
        directory = str(tmp_path / "mixed")
        foreign = next(v for k, (_, v) in LAYER_VALUES.items() if k != layer)
        DiskTier(directory).put("k", foreign)
        reader = cls(directory)
        assert reader.get("k") is None
        assert (reader.stats.misses, reader.stats.corrupt) == (1, 1)

    def test_reader_sees_a_write_made_after_its_miss(self, tmp_path):
        """Misses are not remembered, so a cell another process warms
        later is found by the next lookup."""
        directory = str(tmp_path / "c")
        reader = SolveCellCache(directory)
        assert reader.get("k") is None
        record = SolveCellRecord(source="module m;", system="s")
        SolveCellCache(directory).put("k", record)
        assert reader.get("k") == record
        assert (reader.stats.misses, reader.stats.disk_hits) == (1, 1)

    def test_shared_hit_is_promoted_into_the_readers_memory(self, tmp_path):
        directory = str(tmp_path / "c")
        record = SolveCellRecord(source="module m;", system="s")
        SolveCellCache(directory).put("k", record)
        reader = SolveCellCache(directory)
        assert reader.get("k") == record
        clear_disk_cache(directory)
        assert reader.get("k") == record  # answered by the memory tier
        assert (reader.stats.hits, reader.stats.disk_hits) == (2, 1)

    def test_entry_written_by_another_process_is_read(self, tmp_path):
        directory = str(tmp_path / "c")
        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from repro.runtime.cache import SolveCellCache, SolveCellRecord\n"
            "SolveCellCache(sys.argv[1]).put(\n"
            "    'k', SolveCellRecord(source='module child;', system='s')\n"
            ")\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        subprocess.run(
            [sys.executable, "-c", script, directory],
            check=True,
            env=env,
            timeout=60,
        )
        reader = SolveCellCache(directory)
        assert reader.get("k") == SolveCellRecord(
            source="module child;", system="s"
        )
        assert reader.stats.disk_hits == 1

    def test_a_killed_writers_temp_file_is_not_an_entry(self, tmp_path):
        """A writer killed mid-put leaves only its temp file behind:
        readers and the size report ignore it, and clearing removes it."""
        directory = str(tmp_path / "c")
        record = SolveCellRecord(source="module m;", system="s")
        SolveCellCache(directory).put("k", record)
        stray = os.path.join(directory, "half-written.tmp")
        with open(stray, "wb") as handle:
            handle.write(pickle.dumps(record)[:5])
        reader = SolveCellCache(directory)
        assert reader.get("k") == record
        assert reader.stats.corrupt == 0
        assert disk_cache_info(directory).entries == 1
        assert clear_disk_cache(directory).entries == 1
        assert os.listdir(directory) == []

    def test_entry_removed_under_a_reader_is_a_plain_miss(self, tmp_path):
        """An entry deleted from the shared directory (``cache --clear``
        in another shell) is a clean miss for a reader, not damage."""
        directory = str(tmp_path / "c")
        old = SolveCellRecord(source="module old;", system="s")
        new = SolveCellRecord(source="module new;", system="s")
        SolveCellCache(directory).put("old", old)
        reader = SolveCellCache(directory)
        assert clear_disk_cache(directory).entries == 1
        SolveCellCache(directory).put("new", new)
        assert reader.get("old") is None
        assert reader.get("new") == new
        assert (reader.stats.misses, reader.stats.corrupt) == (1, 0)

    def test_racing_writers_never_expose_a_partial_entry(self, tmp_path):
        """Processes sharing one directory race on the same key; the
        atomic write means every read sees a whole value or nothing."""
        directory = str(tmp_path / "c")
        records = [
            SolveCellRecord(source=f"module m{index};" * 20_000, system="s")
            for index in range(4)
        ]
        writers = [DiskTier(directory, SolveCellRecord) for _ in records]
        reader = DiskTier(directory, SolveCellRecord)
        done = threading.Event()
        seen = []

        def write(tier, record):
            for _ in range(15):
                tier.put("k", record)

        def read():
            while not done.is_set():
                value = reader.peek("k")
                if value is not None:
                    seen.append(value)

        reading = threading.Thread(target=read)
        reading.start()
        threads = [
            threading.Thread(target=write, args=pair)
            for pair in zip(writers, records)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        reading.join()
        assert seen
        assert all(value in records for value in seen)
        assert reader.stats.corrupt == 0
        assert reader.get("k") in records
        assert not [n for n in os.listdir(directory) if n.endswith(".tmp")]


class TestClearDiskCache:
    def test_clear_reports_and_removes(self, tmp_path):
        directory = str(tmp_path / "c")
        cache = SolveCellCache(directory)
        cache.put("a", SolveCellRecord(source="x", system="s"))
        cache.put("b", SolveCellRecord(source="y", system="s"))
        removed = clear_disk_cache(directory)
        assert removed.entries == 2
        assert disk_cache_info(directory).entries == 0

    def test_missing_directory_is_a_noop(self):
        removed = clear_disk_cache("/nonexistent/cache/dir")
        assert removed.entries == 0
