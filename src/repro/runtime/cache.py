"""Tiered caches: content-addressed caches behind memory and disk tiers.

Both memoization layers of the runtime -- simulation reports and whole
solve cells -- are instances of one :class:`TieredCache`, a stack of
:class:`CacheTier`s consulted in order:

- :class:`MemoryTier` -- an LRU-bounded in-process map (the cap comes
  from ``RuntimeConfig.cache_max_entries`` / ``REPRO_CACHE_MAX_ENTRIES``
  unless given explicitly);
- :class:`DiskTier` -- pickled values, atomically written, shared
  across processes and sessions; a truncated or garbage file counts as
  a miss (tracked by the ``corrupt`` counter), never an exception.

Reads are read-through with promotion: a disk hit is copied into the
memory tier, so the next lookup is in-process.  Writes are
write-through to every tier whose ``writes`` policy allows it.  Tiers
only ever short-circuit pure replay (simulation reports, recorded solve
cells), so any tier stack produces bit-identical results.

Processes share warm entries by pointing at one directory: the disk
tier writes each entry atomically (temp file + rename), so any number
of local evaluations and solve servers can read and fill the same
``REPRO_SIM_CACHE_DIR`` / ``REPRO_SOLVE_CACHE_DIR`` concurrently.

The concrete caches:

- :class:`SimulationCache` -- ``run_testbench`` is deterministic, so the
  same (design source, testbench, top module) triple always produces
  the same :class:`TestReport`.
- :class:`SolveCellCache` -- one level up: a whole engine run is
  deterministic in (system configuration, problem, seed), so
  ``hash(config, problem, seed)`` addresses the final source *plus the
  typed event stream* of the run.

Keys are SHA-256 over length-prefixed fields, so no concatenation of
fields can collide with a different split of the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.config import _env_int
from repro.tb.runner import TestReport, run_testbench
from repro.tb.stimulus import Testbench, render_testbench


def _digest(parts: tuple[str, ...]) -> str:
    """SHA-256 over length-prefixed fields (boundary-collision safe)."""
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def simulation_key(
    source: str, testbench: Testbench | str, top: str | None = None
) -> str:
    """Content hash of one simulation request.

    Fields are length-prefixed before hashing so the boundary between
    source and testbench is part of the content: the same concatenated
    bytes split differently hash differently.
    """
    tb_text = (
        testbench if isinstance(testbench, str) else render_testbench(testbench)
    )
    return _digest((source, tb_text, top or ""))


class _SimCounter:
    """Process-wide count of simulations actually executed (not cache hits)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def increment(self) -> None:
        with self._lock:
            self._value += 1

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


_SIMULATIONS = _SimCounter()


def simulation_count() -> int:
    """Simulations executed in this process via :func:`cached_run_testbench`."""
    return _SIMULATIONS.value


@dataclass
class CacheStats:
    """Aggregate hit/miss counters for one tiered cache.

    ``hits`` counts every served lookup regardless of tier;
    ``disk_hits`` counts those the disk tier answered.  ``corrupt``
    counts disk entries that failed to deserialise (each also counted
    as a miss, never raised).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits,
            self.misses,
            self.stores,
            self.disk_hits,
            self.corrupt,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            disk_hits=self.disk_hits - earlier.disk_hits,
            corrupt=self.corrupt - earlier.corrupt,
        )


@dataclass
class TierStats:
    """Per-tier counters (a tier's own view of its traffic).

    ``evictions`` counts entries dropped to respect a size bound (LRU
    order); ``expired`` counts entries dropped because they outlived a
    TTL (each also a miss for the lookup that found them stale).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    errors: int = 0
    evictions: int = 0
    expired: int = 0


# ----------------------------------------------------------------------
# The tier interface and its two implementations.
# ----------------------------------------------------------------------


class CacheTier:
    """One storage level of a :class:`TieredCache`.

    ``kind`` labels the tier for stats attribution ("memory" | "disk");
    ``writes`` is the write-through policy (a read-only tier
    is skipped by puts and promotions).  ``get`` counts the tier's own
    hit/miss; ``peek`` is the stats-neutral probe.
    """

    kind: str = "tier"
    writes: bool = True

    def __init__(self) -> None:
        self.stats = TierStats()

    def get(self, key: str) -> Any | None:
        raise NotImplementedError

    def peek(self, key: str) -> Any | None:
        raise NotImplementedError

    def put(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop the tier's contents (no-op where not meaningful)."""

    def entry_count(self) -> int | None:
        """Entries held by this tier, or None when unknowable."""
        return None

    def describe(self) -> str:
        return self.kind

    def report(self) -> dict:
        """One stats row for the CLI / service ``cache`` surfaces."""
        return {
            "kind": self.kind,
            "detail": self.describe(),
            "entries": self.entry_count(),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "stores": self.stats.stores,
            "corrupt": self.stats.corrupt,
            "errors": self.stats.errors,
            "evictions": self.stats.evictions,
            "expired": self.stats.expired,
        }


class MemoryTier(CacheTier):
    """LRU-bounded in-process map."""

    kind = "memory"

    def __init__(self, max_entries: int = 8192):
        super().__init__()
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry_count(self) -> int:
        return len(self)

    def describe(self) -> str:
        return f"memory (LRU, cap {self.max_entries})"

    def _lookup(self, key: str, touch: bool, count: bool) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None and touch:
                self._entries.move_to_end(key)
            if count:
                if value is not None:
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
            return value

    def get(self, key: str) -> Any | None:
        return self._lookup(key, touch=True, count=True)

    def peek(self, key: str) -> Any | None:
        # No LRU touch: probing must not perturb eviction order.
        return self._lookup(key, touch=False, count=False)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskTier(CacheTier):
    """Pickled values under a directory, shared across processes.

    Every failure mode of a read -- missing file, truncated pickle,
    garbage bytes, a pickle of the wrong type -- is a miss; the
    non-missing ones additionally count as ``corrupt``.  Writes are
    atomic (temp file + rename) and best-effort.

    The tier can be bounded.  ``max_bytes`` caps the directory's total
    size: each put re-scans the directory and evicts
    least-recently-used entries (by mtime; counted gets touch it) until
    the bound holds again.  ``ttl`` expires entries idle longer than
    that many seconds -- the read that finds one stale removes it and
    reports a miss, so a bounded cassette or cache directory ages out
    on its own.  Both default from ``REPRO_CACHE_DISK_MAX_BYTES`` /
    ``REPRO_CACHE_DISK_TTL``; 0 means unbounded / no expiry.  The
    eviction scan is O(entries) per put, which the write-through access
    pattern (one put per cache miss) keeps cheap at this cache's
    scale.
    """

    kind = "disk"

    def __init__(
        self,
        directory: str,
        value_type: type = object,
        max_bytes: int | None = None,
        ttl: float | None = None,
    ):
        super().__init__()
        self.directory = directory
        self.value_type = value_type
        self.max_bytes = (
            max_bytes
            if max_bytes is not None
            else _env_int("REPRO_CACHE_DISK_MAX_BYTES", 0)
        )
        self.ttl = (
            ttl if ttl is not None else float(_env_int("REPRO_CACHE_DISK_TTL", 0))
        )
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def entry_count(self) -> int:
        return disk_cache_info(self.directory).entries

    def describe(self) -> str:
        bounds = ""
        if self.max_bytes > 0:
            bounds += f", cap {self.max_bytes} B"
        if self.ttl > 0:
            bounds += f", ttl {self.ttl:g} s"
        return f"disk ({self.directory}{bounds})"

    def _read(self, key: str, count: bool) -> Any | None:
        path = self._path(key)
        try:
            stamp = os.stat(path)
        except OSError:
            if count:
                self.stats.misses += 1
            return None
        if self.ttl > 0 and time.time() - stamp.st_mtime > self.ttl:
            self.stats.expired += 1
            if count:
                self.stats.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except Exception:  # noqa: BLE001 -- any unreadable entry is a miss
            value = None
        if value is None or not isinstance(value, self.value_type):
            # The file exists but does not hold a usable value: corrupt.
            self.stats.corrupt += 1
            if count:
                self.stats.misses += 1
            return None
        if count:
            self.stats.hits += 1
            # Counted hits refresh recency (and TTL idle age); peeks
            # stay neutral, like the memory tier's LRU order.
            try:
                os.utime(path, None)
            except OSError:
                pass
        return value

    def get(self, key: str) -> Any | None:
        return self._read(key, count=True)

    def peek(self, key: str) -> Any | None:
        return self._read(key, count=False)

    def _evict(self, keep: str) -> None:
        """Drop LRU entries until the directory fits ``max_bytes``.

        The freshly written entry (``keep``) is never a victim: a bound
        smaller than one entry must not turn every put into a no-op.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        entries = []
        total = 0
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stamp = os.stat(path)
            except OSError:
                continue
            entries.append((stamp.st_mtime, stamp.st_size, path))
            total += stamp.st_size
        entries.sort()
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1

    def put(self, key: str, value: Any) -> None:
        # Atomic write: concurrent workers may race on the same key, and
        # a reader must never observe a half-written pickle.
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle)
            os.replace(tmp_path, self._path(key))
            self.stats.stores += 1
        except OSError:
            self.stats.errors += 1  # best-effort; upper tiers still hold it
            return
        if self.max_bytes > 0:
            self._evict(keep=self._path(key))

    def clear(self) -> None:
        clear_disk_cache(self.directory)


# ----------------------------------------------------------------------
# Tiers composed behind the classic ContentCache surface.
# ----------------------------------------------------------------------


class TieredCache:
    """Content-addressed cache over an ordered stack of tiers.

    The default stack is memory -> disk (when ``directory`` is set);
    pass ``tiers`` to compose an explicit stack instead.  Reads are
    read-through with promotion (a hit is copied into every tier above
    the one that answered); writes go to every tier whose ``writes``
    policy allows.  Cached values are shared objects; callers treat
    them as read-only, which every consumer in the engine already does.

    ``value_type`` guards the disk tier: a pickle that does not
    deserialise to it is a miss, so corrupt files never reach callers.
    """

    value_type: type = object
    # Which cache this is ("sim" | "solve" | "llm"), for stats and traces.
    layer: str = "generic"

    def __init__(
        self,
        directory: str | None = None,
        max_entries: int | None = None,
        tiers: list[CacheTier] | None = None,
    ):
        if max_entries is None:
            max_entries = _env_int("REPRO_CACHE_MAX_ENTRIES", 8192)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        if tiers is not None:
            self._tiers = list(tiers)
        else:
            self._tiers = [MemoryTier(max_entries)]
            if directory is not None:
                self._tiers.append(DiskTier(directory, self.value_type))

    # -- classic surface ------------------------------------------------

    def __len__(self) -> int:
        return sum(
            tier.entry_count() or 0
            for tier in self._tiers
            if tier.kind == "memory"
        )

    @property
    def tiers(self) -> tuple[CacheTier, ...]:
        return tuple(self._tiers)

    @property
    def directory(self) -> str | None:
        for tier in self._tiers:
            if isinstance(tier, DiskTier):
                return tier.directory
        return None

    def _absorb_corruption(self, tier: CacheTier, before: int) -> None:
        corrupt = tier.stats.corrupt - before
        if corrupt:
            with self._lock:
                self.stats.corrupt += corrupt

    def _attribute_hit(self, tier: CacheTier) -> None:
        with self._lock:
            self.stats.hits += 1
            if tier.kind == "disk":
                self.stats.disk_hits += 1

    def _promote(self, key: str, value: Any, upto: int) -> None:
        # Copy a lower-tier hit into every writable tier above it, so
        # the next lookup is answered as locally as possible.
        for tier in self._tiers[:upto]:
            if tier.writes:
                tier.put(key, value)

    def _walk(self, key: str, counted: bool) -> Any | None:
        for index, tier in enumerate(self._tiers):
            corrupt_before = tier.stats.corrupt
            value = tier.get(key) if counted else tier.peek(key)
            self._absorb_corruption(tier, corrupt_before)
            if value is None:
                continue
            if counted:
                self._attribute_hit(tier)
            self._promote(key, value, index)
            return value
        if counted:
            with self._lock:
                self.stats.misses += 1
        return None

    def get(self, key: str) -> Any | None:
        return self._walk(key, counted=True)

    def peek(self, key: str) -> Any | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        For callers probing whether a value exists before deciding how
        to serve it; the authoritative, counted lookup still happens on
        the serving path.  Lower-tier hits are promoted exactly as a
        counted get would, so that lookup doesn't redo the disk read.
        """
        return self._walk(key, counted=False)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self.stats.stores += 1
        for tier in self._tiers:
            if tier.writes:
                tier.put(key, value)

    def clear(self) -> None:
        """Drop the in-memory tier(s); the disk tier keeps its copies."""
        for tier in self._tiers:
            if tier.kind == "memory":
                tier.clear()

    def tier_report(self) -> list[dict]:
        """Per-tier stats rows (the ``cache`` CLI / service surfaces)."""
        return [tier.report() for tier in self._tiers]


# Back-compat alias: PR 2 named the generic base ContentCache.
ContentCache = TieredCache


class SimulationCache(TieredCache):
    """Memoized simulation reports keyed by :func:`simulation_key`."""

    value_type = TestReport
    layer = "sim"


def cached_run_testbench(
    source: str,
    testbench: Testbench,
    top: str | None = None,
    cache: SimulationCache | None = None,
) -> TestReport:
    """Memoized :func:`run_testbench` (drop-in for the no-hook form).

    Uses the ambient runtime's cache unless one is passed explicitly;
    with caching disabled it degrades to a plain simulation call.
    """
    if cache is None:
        from repro.runtime.context import get_runtime

        cache = get_runtime().cache
    if cache is None:
        _SIMULATIONS.increment()
        return run_testbench(source, testbench, top)
    key = simulation_key(source, testbench, top)
    report = cache.get(key)
    if report is None:
        _SIMULATIONS.increment()
        report = run_testbench(source, testbench, top)
        cache.put(key, report)
    return report


# ----------------------------------------------------------------------
# Solve-cell caching: hash(config, problem, seed) -> source + events.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SolveCellRecord:
    """What one cached solve cell stores: the final source plus the
    typed event stream of the run (from which the legacy transcript
    derives)."""

    source: str
    system: str
    events: tuple = ()


class SolveCellCache(TieredCache):
    """Memoized whole-run results keyed by :func:`solve_cell_key`."""

    value_type = SolveCellRecord
    layer = "solve"


def solve_cell_key(fingerprint: str, problem, seed: int) -> str:
    """Content hash of one evaluation cell.

    ``fingerprint`` identifies the system configuration (see
    :func:`system_fingerprint`); the problem enters by *full content*
    (every dataclass field: spec, top, kind, clock, golden, difficulty,
    stimulus policy, ...) rather than by id alone, so any edit to a
    benchmark problem -- including interface or difficulty changes that
    leave the spec text untouched -- invalidates its cells.
    """
    return _digest((fingerprint, _stable_repr(problem), str(int(seed))))


class _Unfingerprintable(Exception):
    """Raised when a factory has no stable content identity."""


def _stable_repr(obj: Any) -> str:
    """Deterministic, address-free repr for fingerprinting.

    Covers what registry factories are actually made of: literals,
    containers, frozen config dataclasses, classes/functions, and
    ``functools.partial`` over them.  Anything else (closures, live
    instances with hidden state) raises, and the caller disables solve
    caching rather than risking a collision.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        inner = ",".join(_stable_repr(item) for item in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_stable_repr(key)}:{_stable_repr(value)}"
            for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{inner}}}"
    if isinstance(obj, functools.partial):
        return (
            f"partial({_stable_repr(obj.func)},"
            f"{_stable_repr(list(obj.args))},{_stable_repr(obj.keywords)})"
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        inner = ",".join(
            f"{f.name}={_stable_repr(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{cls.__module__}.{cls.__qualname__}({inner})"
    if callable(obj):
        module = getattr(obj, "__module__", None)
        qualname = getattr(obj, "__qualname__", None)
        if module and qualname and "<locals>" not in qualname:
            return f"{module}.{qualname}"
    raise _Unfingerprintable(f"no stable fingerprint for {type(obj)!r}")


def system_fingerprint(factory: Callable[[], object]) -> str | None:
    """Stable identity of a system factory's *configuration*.

    Returns None when the factory cannot be fingerprinted (e.g. a
    closure over mutable state) -- solve-cell caching is then skipped
    for that system.  Objects may also provide an explicit
    ``cache_fingerprint`` attribute, which wins.

    When the LLM gateway is active, its fingerprint fragment (backend
    chain, per-role routing -- *not* the cassette mode, so record and
    replay share cells) is folded in: the same system over a different
    routing is a different computation and must address different
    solve cells.  With the gateway off, the base fingerprint is
    returned unchanged, so existing caches stay valid.
    """
    explicit = getattr(factory, "cache_fingerprint", None)
    if isinstance(explicit, str):
        base = explicit
    else:
        try:
            base = _stable_repr(factory)
        except _Unfingerprintable:
            return None
    from repro.llm.gateway.settings import active_gateway_fingerprint

    extra = active_gateway_fingerprint()
    if extra is None:
        return base
    return _digest((base, extra))


@dataclass(frozen=True)
class DiskCacheInfo:
    """Size report for one on-disk cache directory."""

    directory: str
    entries: int
    total_bytes: int

    @property
    def megabytes(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)

    def render(self) -> str:
        return (
            f"{self.directory}: {self.entries} entries, "
            f"{self.megabytes:.2f} MiB"
        )


def disk_cache_info(directory: str) -> DiskCacheInfo:
    """Count entries and bytes in one cache directory (missing -> empty)."""
    entries = 0
    total = 0
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".pkl"):
            continue
        entries += 1
        try:
            total += os.path.getsize(os.path.join(directory, name))
        except OSError:
            pass
    return DiskCacheInfo(directory=directory, entries=entries, total_bytes=total)


def clear_disk_cache(directory: str) -> DiskCacheInfo:
    """Delete every cache entry under ``directory``; returns what was
    removed (missing directory -> empty report, never an error)."""
    info = disk_cache_info(directory)
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        if not (name.endswith(".pkl") or name.endswith(".tmp")):
            continue
        try:
            os.remove(os.path.join(directory, name))
        except OSError:
            pass
    return info
