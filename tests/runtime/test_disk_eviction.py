"""The disk directory holds what was written until it is cleared.

No size bound evicts from it and no age expires an entry; reads leave
the entry files as they are (no recency bookkeeping), and
``clear_disk_cache`` (``repro cache --clear``) is what reclaims the
space."""

import os
import time

from repro.llm.gateway.cassette import CASSETTE_RECORDS, CassetteRecord
from repro.runtime.cache import (
    SOLVE_RECORDS,
    DiskTier,
    SolveCellCache,
    SolveCellRecord,
    clear_disk_cache,
    disk_cache_info,
)

PAYLOAD = SolveCellRecord(source="x" * 64, system="s")


def backdate(tier: DiskTier, key: str, seconds: float) -> float:
    """Shift one entry's mtime ``seconds`` into the past; returns it."""
    path = os.path.join(tier.directory, f"{key}.rec")
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))
    return os.stat(path).st_mtime


class TestUnbounded:
    def test_every_write_stays_on_disk(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"), SOLVE_RECORDS)
        for index in range(20):
            tier.put(f"k{index}", PAYLOAD)
        assert disk_cache_info(tier.directory).entries == 20
        assert all(tier.peek(f"k{index}") == PAYLOAD for index in range(20))

    def test_an_old_entry_still_hits(self, tmp_path):
        directory = str(tmp_path / "c")
        record = SolveCellRecord(source="module m;", system="s")
        SolveCellCache(directory).put("k", record)
        backdate(DiskTier(directory, SOLVE_RECORDS), "k", 365 * 24 * 3600)
        reader = SolveCellCache(directory)
        assert reader.get("k") == record
        assert (reader.stats.disk_hits, reader.stats.misses) == (1, 0)

    def test_clearing_reclaims_the_space(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"), SOLVE_RECORDS)
        for index in range(3):
            tier.put(f"k{index}", PAYLOAD)
        removed = clear_disk_cache(tier.directory)
        assert removed.entries == 3 and removed.total_bytes > 0
        assert os.listdir(tier.directory) == []
        assert tier.get("k0") is None


class TestReadsTouchNothing:
    def test_get_and_peek_leave_the_mtime(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"), SOLVE_RECORDS)
        tier.put("k", PAYLOAD)
        stamp = backdate(tier, "k", 300)
        assert tier.get("k") == PAYLOAD
        assert tier.peek("k") == PAYLOAD
        path = os.path.join(tier.directory, "k.rec")
        assert os.stat(path).st_mtime == stamp

    def test_a_standalone_tier_counts_its_own_corrupt_reads(self, tmp_path):
        directory = str(tmp_path / "c")
        tier = DiskTier(directory, SOLVE_RECORDS)
        # Another layer's record, not a SolveCellRecord.
        DiskTier(directory, CASSETTE_RECORDS).put(
            "k", CassetteRecord(completions=("x",), backend="mock")
        )
        assert tier.get("k") is None
        assert tier.peek("k") is None
        assert tier.stats.corrupt == 2

    def test_a_read_changes_no_counter(self, tmp_path):
        tier = DiskTier(str(tmp_path / "c"), SOLVE_RECORDS)
        tier.put("k", PAYLOAD)
        before = tier.stats.snapshot()
        assert tier.get("k") == PAYLOAD
        assert tier.get("absent") is None
        assert tier.stats == before
