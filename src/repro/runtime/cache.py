"""Content-addressed caches: an in-process LRU over an optional disk directory.

Both memoization layers of the runtime -- simulation reports and whole
solve cells -- are instances of one :class:`TieredCache`:

- in memory, an LRU map of up to :data:`MEMORY_ENTRIES` values;
- on disk, when a directory is given, a :class:`DiskTier` of
  ``<key>.rec`` files, atomically written, shared across processes and
  sessions.  Each file is one record in its cache's versioned,
  checksummed codec (:mod:`repro.runtime.codec`); a truncated, garbled,
  foreign or older entry counts as a miss (tracked by the ``corrupt``
  counter), never an exception.  Nothing on disk is unpickled: files
  another process wrote are only ever parsed as JSON.

Reads are read-through with promotion: a disk hit is copied into
memory, so the next lookup is in-process.  Writes go to both.  The
caches only ever short-circuit pure replay (simulation reports,
recorded solve cells), so results are bit-identical with the cache
off, in memory, or on disk.  ``repro cache --clear`` reclaims the
disk space.

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
  ``hash(config, problem, seed)`` addresses the final source, the
  typed event stream of the run, and the golden verdict on the source.
  A record read from disk keeps its events encoded until something
  iterates them, so a warm cell that serves only source and verdict
  never builds them.

Keys are SHA-256 over length-prefixed fields, so no concatenation of
fields can collide with a different split of the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.codec import NONE, TEST_REPORTS, Codec, dump_json, expect
from repro.tb.runner import TestReport, run_testbench
from repro.tb.stimulus import Testbench, render_testbench

# Disk entries are ``<key>.rec``.  ``*.pkl`` files are pickles an older
# version wrote: never opened, only removed by ``repro cache --clear``.
SUFFIX = ".rec"
LEGACY_SUFFIX = ".pkl"


def _feed(digest, part: str) -> None:
    data = part.encode()
    digest.update(len(data).to_bytes(8, "little"))
    digest.update(data)


def _digest(parts: tuple[str, ...]) -> str:
    """SHA-256 over length-prefixed fields (boundary-collision safe)."""
    digest = hashlib.sha256()
    for part in parts:
        _feed(digest, part)
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


# Entries each cache keeps in memory; the least recently used go first.
MEMORY_ENTRIES = 8192


@dataclass
class CacheStats:
    """Counters for one cache, memory and disk alike.

    ``hits`` counts every served lookup; ``disk_hits`` counts those the
    disk directory answered.  ``corrupt`` counts disk entries that failed
    to deserialise (each also counted as a miss, never raised),
    ``errors`` failed disk writes (the memory copy still holds the
    value), and ``evictions`` entries the memory LRU dropped.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    corrupt: int = 0
    errors: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    # Every warm cell takes two snapshots and a delta, so the fields are
    # spelled out rather than looped over by name.
    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits,
            self.misses,
            self.stores,
            self.disk_hits,
            self.corrupt,
            self.errors,
            self.evictions,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.stores - earlier.stores,
            self.disk_hits - earlier.disk_hits,
            self.corrupt - earlier.corrupt,
            self.errors - earlier.errors,
            self.evictions - earlier.evictions,
        )

    def add(self, other: "CacheStats") -> None:
        """Add ``other``'s counters into this row, field by field."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.disk_hits += other.disk_hits
        self.corrupt += other.corrupt
        self.errors += other.errors
        self.evictions += other.evictions


class DiskTier:
    """``<key>.rec`` records under a directory, shared across processes.

    ``codec`` (the owning cache's) encodes each value and decodes each
    read.  Every failure mode of a read -- missing file, truncated or
    bit-flipped bytes, another layer's record, an older version, a
    well-framed record of the wrong shape -- is a miss; all but the
    missing file also count as ``corrupt``.  Legacy ``*.pkl`` entries
    are never opened.  Writes are atomic (temp file + rename) and
    best-effort: a failed one counts in ``errors`` and leaves no temp
    file behind.  ``stats`` is the owning cache's :class:`CacheStats`,
    so both counters land in its one row.
    """

    def __init__(
        self,
        directory: str,
        codec: Codec,
        stats: CacheStats | None = None,
    ):
        self.directory = directory
        self.codec = codec
        self.stats = stats if stats is not None else CacheStats()
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + SUFFIX)

    def get(self, key: str) -> Any | None:
        try:
            handle = open(self._path(key), "rb")
        except FileNotFoundError:
            return None
        try:
            with handle:
                return self.codec.loads(handle.read())
        except (ValueError, KeyError, TypeError, OSError):
            # The file exists but does not hold a usable value: corrupt.
            with self._lock:
                self.stats.corrupt += 1
            return None

    # A read changes no counter but ``corrupt``, so a probe is a read.
    peek = get

    def put(self, key: str, value: Any) -> None:
        # Encoding errors are the caller's bug and propagate; only the
        # write itself is best-effort.
        data = self.codec.dumps(value)
        # Atomic write: concurrent workers may race on the same key, and
        # a reader must never observe a half-written record.
        tmp_path = None
        try:
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, self._path(key))
            tmp_path = None
        except OSError:
            with self._lock:
                self.stats.errors += 1  # best-effort; memory still holds it
        finally:
            if tmp_path is not None:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass


class TieredCache:
    """Content-addressed cache: an in-process LRU over an optional disk
    directory.

    The memory map holds up to :data:`MEMORY_ENTRIES` values.  With a
    ``directory`` a :class:`DiskTier` sits under it: a memory miss reads
    the disk, and a disk hit is promoted into memory; every put writes
    through to both.  Cached values are shared objects; callers treat
    them as read-only, which every consumer in the engine already does.

    ``codec`` is the disk tier's record format (each concrete cache
    names its own): an entry it does not decode is a miss, so corrupt
    files never reach callers.
    """

    codec: Codec | None = None
    # Which cache this is ("sim" | "solve" | "llm"), for stats and traces.
    layer: str = "generic"

    def __init__(self, directory: str | None = None):
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        # Keys a peek promoted from disk: their first counted hit is
        # still the disk's, so ``disk_hits`` does not depend on probing.
        self._peeked: set[str] = set()
        self._disk = (
            DiskTier(directory, self.codec, self.stats)
            if directory is not None
            else None
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def directory(self) -> str | None:
        return self._disk.directory if self._disk is not None else None

    def _remember(self, key: str, value: Any) -> None:
        # Caller holds the lock.
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > MEMORY_ENTRIES:
            evicted, _ = self._entries.popitem(last=False)
            self._peeked.discard(evicted)
            self.stats.evictions += 1

    def _lookup(self, key: str, counted: bool) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                if counted:
                    # Only counted lookups refresh LRU order.
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    if key in self._peeked:
                        self._peeked.discard(key)
                        self.stats.disk_hits += 1
                return value
        if self._disk is not None:
            value = self._disk.get(key) if counted else self._disk.peek(key)
        with self._lock:
            if value is not None:
                self._remember(key, value)
                if counted:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                else:
                    self._peeked.add(key)
            elif counted:
                self.stats.misses += 1
        return value

    def get(self, key: str) -> Any | None:
        return self._lookup(key, counted=True)

    def peek(self, key: str) -> Any | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        For callers probing whether a value exists before deciding how
        to serve it; the authoritative, counted lookup still happens on
        the serving path.  A disk hit is promoted exactly as a counted
        get would, so that lookup doesn't redo the disk read -- and
        still counts as a disk hit.
        """
        return self._lookup(key, counted=False)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self.stats.stores += 1
            self._peeked.discard(key)
            self._remember(key, value)
        if self._disk is not None:
            self._disk.put(key, value)

    def absorb(self, delta: CacheStats) -> None:
        """Count another process's work on a cache over the same store
        (a service child's per-job delta) in this cache's row."""
        with self._lock:
            self.stats.add(delta)

    def clear(self) -> None:
        """Drop the memory copies; the disk directory keeps its entries."""
        with self._lock:
            self._entries.clear()
            self._peeked.clear()


class SimulationCache(TieredCache):
    """Memoized simulation reports keyed by :func:`simulation_key`."""

    codec = TEST_REPORTS
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
# Solve-cell caching: hash(config, problem, seed) -> source + events
# + golden verdict.
# ----------------------------------------------------------------------


class EncodedEvents(Sequence):
    """A disk record's event stream, kept as the JSON array its codec
    read and decoded on first iteration.

    ``len()`` comes from the record's header, so counting events never
    decodes them; iterating, indexing, comparing or hashing decodes
    once and keeps the tuple.  The codec's checksum has already vouched
    for the bytes, so decoding raises only on a record some other
    writer framed with a valid checksum.
    """

    __slots__ = ("_data", "_count", "_events")

    def __init__(self, data: bytes, count: int):
        if count < 0:
            raise ValueError(f"negative event count {count}")
        self._data = data
        self._count = count
        self._events: tuple | None = None

    def _decoded(self) -> tuple:
        if self._events is None:
            from repro.core.events import Event

            self._events = tuple(
                Event.from_json(payload) for payload in json.loads(self._data)
            )
        return self._events

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, EncodedEvents)):
            return self._decoded() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._decoded())

    def __repr__(self) -> str:
        return f"EncodedEvents({self._count} events)"


@dataclass(frozen=True)
class SolveCellRecord:
    """What one cached solve cell stores: the final source, the typed
    event stream of the run (from which the legacy transcript derives),
    and the hidden golden testbench's verdict on that source.

    The verdict is a pure function of the cell key, which hashes the
    problem's full content, golden design included, so a replay serves
    it without simulating.  ``passed``/``score`` are None when the
    source was never scored; such a record is scored on replay.
    ``events`` is a tuple when the record was built in this process and
    an :class:`EncodedEvents` when it was read from disk.
    """

    source: str
    system: str
    events: Sequence = ()
    passed: bool | None = None
    score: float | None = None


def _encode_record(record: SolveCellRecord) -> bytes:
    header = {
        "source": record.source,
        "system": record.system,
        "passed": record.passed,
        "score": record.score,
        "events": len(record.events),
    }
    events = dump_json([event.to_json() for event in record.events])
    return dump_json(header) + b"\n" + events


def _decode_record(body: bytes) -> SolveCellRecord:
    # Only the header line is parsed; the events stay bytes.
    header, _, events = body.partition(b"\n")
    fields = expect(json.loads(header), dict)
    return SolveCellRecord(
        source=expect(fields["source"], str),
        system=expect(fields["system"], str),
        events=EncodedEvents(events, expect(fields["events"], int)),
        passed=expect(fields["passed"], bool, NONE),
        score=expect(fields["score"], float, NONE),
    )


SOLVE_RECORDS = Codec(
    "solve-cell", 1, SolveCellRecord, _encode_record, _decode_record
)


class SolveCellCache(TieredCache):
    """Memoized whole-run results keyed by :func:`solve_cell_key`."""

    codec = SOLVE_RECORDS
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
    digest = _key_prefix(fingerprint, problem).copy()
    _feed(digest, str(int(seed)))
    return digest.hexdigest()


class _KeyPrefixes(dict):
    """fingerprint -> SHA-256 state after ``(fingerprint, content)`` for
    one problem.  Hash states do not pickle, so a problem shipped to
    another process takes the memo along empty."""

    def __reduce__(self):
        return _KeyPrefixes, ()


def _key_prefix(fingerprint: str, problem):
    """The hash state every cell key of ``problem`` under ``fingerprint``
    starts from, memoised on the frozen instance: every cell of a grid
    keys off the same problem, and its content embeds the whole spec
    and golden design.  Callers ``copy()`` it before feeding the seed."""
    prefixes = getattr(problem, "_key_prefixes", None)
    if prefixes is None:
        prefixes = _KeyPrefixes()
        object.__setattr__(problem, "_key_prefixes", prefixes)  # frozen memo slot
    state = prefixes.get(fingerprint)
    if state is None:
        state = hashlib.sha256()
        _feed(state, fingerprint)
        _feed(state, _stable_repr(problem))
        prefixes[fingerprint] = state
    return state


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
        if not name.endswith(SUFFIX):
            continue
        entries += 1
        try:
            total += os.path.getsize(os.path.join(directory, name))
        except OSError:
            pass
    return DiskCacheInfo(directory=directory, entries=entries, total_bytes=total)


def clear_disk_cache(directory: str) -> DiskCacheInfo:
    """Delete every cache entry under ``directory``, stray temp files and
    legacy ``*.pkl`` entries (unlinked unopened) included; returns the
    entries removed (missing directory -> empty report, never an error)."""
    info = disk_cache_info(directory)
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        if not name.endswith((SUFFIX, LEGACY_SUFFIX, ".tmp")):
            continue
        try:
            os.remove(os.path.join(directory, name))
        except OSError:
            pass
    return info
