"""Tiered cache fabric: content-addressed caches behind memory/disk/remote tiers.

Both memoization layers of the runtime -- simulation reports and whole
solve cells -- are instances of one :class:`TieredCache`, a stack of
:class:`CacheTier`s consulted in order:

- :class:`MemoryTier` -- an LRU-bounded in-process map (the cap comes
  from ``RuntimeConfig.cache_max_entries`` / ``REPRO_CACHE_MAX_ENTRIES``
  unless given explicitly);
- :class:`DiskTier` -- pickled values, atomically written, shared
  across processes and sessions; a truncated or garbage file counts as
  a miss (tracked by the ``corrupt`` counter), never an exception;
- :class:`RemoteTier` -- a peer solve server reached through the
  versioned service protocol's ``CacheGet``/``CachePut`` frames, making
  another machine's memory+disk tiers part of this cache's fabric.

Reads are read-through with promotion: a hit at a lower tier is copied
into every tier above it, so a record fetched from a peer lands in the
local memory and disk tiers and the next lookup is local.  Writes are
write-through to every tier whose ``writes`` policy allows it -- by
default memory, disk, *and* remote peers, which is how freshly computed
records gossip across machines.  With ``write_behind=True`` the remote
legs of a put detach onto a :class:`GossipQueue` -- a background sender
with a retry backlog -- so gossip never sits on the solve path and a
partitioned peer's puts are delivered when the partition heals.  Tiers
only ever short-circuit pure replay (simulation reports, recorded solve
cells), so any tier stack produces bit-identical results; peers change
*where* work happens, not *what* comes out.

With two or more peers the remote tiers are consulted in consistent-
hash order (:class:`~repro.service.ring.HashRing` over the peer
addresses): the key's owner is probed first, so a ring of servers
behaves like one sharded cache instead of every node asking every
other node in a fixed order.

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

import base64
import dataclasses
import functools
import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict, deque
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
    ``disk_hits``/``remote_hits`` attribute them to the tier that
    answered.  ``corrupt`` counts disk entries that failed to
    deserialise (each also counted as a miss, never raised).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
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
            self.remote_hits,
            self.corrupt,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            disk_hits=self.disk_hits - earlier.disk_hits,
            remote_hits=self.remote_hits - earlier.remote_hits,
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
# Value transport: the disk and remote tiers share one serialisation.
# ----------------------------------------------------------------------


def encode_value(value: Any) -> str:
    """Pickle + base64 a cache value for the wire (``CachePut`` blobs)."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_value(blob: str, value_type: type = object) -> Any | None:
    """Inverse of :func:`encode_value`; None for garbage or foreign types.

    The type guard mirrors the disk tier's: a blob that does not decode
    to ``value_type`` is treated as absent, so a *corrupt* blob can
    never push a wrong-shaped object into a cache.  The guard runs
    after unpickling, so it is shape protection, not a security
    boundary: peers share the disk tier's trust model (unpickling data
    an adversary controls executes their code), and ``--cache-peer``
    rings must only span machines that already trust each other --
    exactly like pointing them at one shared cache directory.
    """
    try:
        value = pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception:  # noqa: BLE001 -- any undecodable blob is a miss
        return None
    return value if isinstance(value, value_type) else None


# ----------------------------------------------------------------------
# The tier interface and its three implementations.
# ----------------------------------------------------------------------


class CacheTier:
    """One storage level of a :class:`TieredCache`.

    ``kind`` labels the tier for stats attribution ("memory" | "disk" |
    "remote"); ``writes`` is the write-through policy (a read-only tier
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
        """Entries held by this tier, or None when unknowable (remote)."""
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
    pattern (one put per cache miss) keeps cheap at this fabric's
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


class RemoteTier(CacheTier):
    """A peer solve server's caches, reached over the service protocol.

    Lookups become ``CacheGet`` frames and stores ``CachePut`` frames,
    answered by the peer from its *local* tiers only (so mutually
    peered servers can never ping-pong a record between themselves).
    The tier is strictly best-effort: any connection or protocol
    failure counts as a miss, and after ``max_failures`` consecutive
    failures the peer is marked down and skipped -- a dead peer must
    not stall every lookup.  A down peer is probed again once per
    ``down_cooldown`` seconds, so a restarted or re-joined ring member
    resumes serving without anyone rebuilding tier stacks.

    With a :class:`GossipQueue` attached (``attach_queue``), ``put``
    becomes write-behind: the entry is enqueued and delivered by the
    queue's sender thread, retried after transient failures, so gossip
    never blocks the caller's solve path.
    """

    kind = "remote"

    def __init__(
        self,
        address: str,
        layer: str = "generic",
        value_type: type = object,
        timeout: float = 10.0,
        connect_timeout: float = 3.0,
        writes: bool = True,
        max_failures: int = 3,
        down_cooldown: float = 5.0,
    ):
        super().__init__()
        self.address = address
        self.layer = layer
        self.value_type = value_type
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.writes = writes
        self.max_failures = max_failures
        self.down_cooldown = down_cooldown
        self._down_until = 0.0
        self._queue: "GossipQueue | None" = None
        # One connection per calling thread: frames are strict
        # request/reply on a socket, so sharing one connection would
        # serialize every thread's cache traffic behind a single
        # in-flight network round-trip.  The lock guards only the
        # shared counters and the connection registry.
        self._local = threading.local()
        self._clients: list = []
        self._failures = 0
        self._lock = threading.Lock()
        self.closed = False

    def describe(self) -> str:
        state = " [down]" if self._down() else ""
        return f"remote ({self.address}, layer {self.layer}){state}"

    def attach_queue(self, queue: "GossipQueue | None") -> None:
        """Route this tier's puts through a write-behind gossip queue."""
        self._queue = queue

    def _down(self) -> bool:
        with self._lock:
            if self._failures < self.max_failures:
                return False
            # Down, but allow one probe per cooldown window: a peer that
            # rejoined the ring must be rediscovered without a restart.
            return time.monotonic() < self._down_until

    def _connect(self):
        from repro.service.client import ServiceClient

        client = getattr(self._local, "client", None)
        if client is None:
            client = ServiceClient(
                self.address,
                timeout=self.timeout,
                connect_timeout=self.connect_timeout,
            )
            self._local.client = client
            with self._lock:
                self._clients.append(client)
        return client

    def _drop_connection(self) -> None:
        client = getattr(self._local, "client", None)
        if client is None:
            return
        self._local.client = None
        with self._lock:
            if client in self._clients:
                self._clients.remove(client)
        client.close()

    def _call(self, op: Callable[[Any], Any]) -> Any | None:
        """Run one request/reply against the peer (this thread's socket).

        Returns None on any failure (counted); a success resets the
        consecutive-failure count so a recovered peer resumes serving.
        """
        if self._down():
            return None
        try:
            result = op(self._connect())
        except Exception:  # noqa: BLE001 -- peers are best-effort
            with self._lock:
                self.stats.errors += 1
                self._failures += 1
                if self._failures >= self.max_failures:
                    self._down_until = time.monotonic() + self.down_cooldown
            self._drop_connection()
            return None
        with self._lock:
            self._failures = 0
        return result

    def _fetch(self, key: str, count: bool) -> Any | None:
        blob = self._call(lambda client: client.cache_get(self.layer, key))
        value = (
            decode_value(blob, self.value_type) if blob is not None else None
        )
        if count:
            with self._lock:
                if value is not None:
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
        return value

    def get(self, key: str) -> Any | None:
        return self._fetch(key, count=True)

    def peek(self, key: str) -> Any | None:
        # Unlike the in-process tiers, a remote peek is counted at the
        # tier level: it is a real network round-trip.  The *aggregate*
        # CacheStats stay peek-neutral either way.
        return self._fetch(key, count=True)

    def put(self, key: str, value: Any) -> None:
        if self._queue is not None:
            self._queue.enqueue(self, key, value)
            return
        self._put_now(key, value)

    def _put_now(self, key: str, value: Any) -> bool:
        """One synchronous delivery attempt.

        Returns False only for *transport* failures (peer unreachable,
        connection died) -- the retryable case.  A peer that answered
        and refused the blob, or a value that cannot be shipped at all,
        returns True: retrying those can never succeed.
        """
        from repro.service.protocol import MAX_FRAME_BYTES

        try:
            blob = encode_value(value)
        except Exception:  # noqa: BLE001 -- unpicklable: nothing to ship
            with self._lock:
                self.stats.errors += 1
            return True
        if len(blob) > MAX_FRAME_BYTES - 4096:
            # Past the frame ceiling: skip quietly.  An unsendable value
            # says nothing about the peer's health, so it must never
            # count toward the consecutive-failure down-marking.
            with self._lock:
                self.stats.errors += 1
            return True
        stored = self._call(
            lambda client: client.cache_put(self.layer, key, blob)
        )
        if stored is None:
            return False  # transport failure: the gossip queue retries
        if stored:
            with self._lock:
                self.stats.stores += 1
        return True

    def close(self) -> None:
        self.closed = True
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()


class GossipQueue:
    """Write-behind delivery of cache gossip to remote tiers.

    ``enqueue`` is what a :class:`RemoteTier` put becomes when the tier
    has a queue attached: O(1), never blocks on the network, so
    ``CachePut`` never sits on the solve path.  A single daemon sender
    drains the backlog in FIFO order; an entry whose delivery fails at
    the transport level goes back to the *end* of the backlog and is
    retried after ``retry_interval`` seconds -- which is exactly how a
    backlog accumulated during a partition drains once the partition
    heals (the tier's own down-cooldown gates the actual reconnect
    probes).  The backlog is bounded: at ``maxlen`` the oldest entry is
    dropped (counted), because gossip is an optimisation, never a
    correctness dependency -- a dropped put degrades to the peer
    recomputing or fetching on demand.
    """

    def __init__(self, maxlen: int = 4096, retry_interval: float = 0.5):
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        self.retry_interval = retry_interval
        self._entries: deque = deque()
        self._state = threading.Condition()
        self._closed = False
        self._inflight = 0
        self._thread: threading.Thread | None = None
        # Counters (under _state): queue lifetime totals.
        self.enqueued = 0
        self.delivered = 0
        self.retried = 0
        self.dropped = 0

    def __len__(self) -> int:
        with self._state:
            return len(self._entries) + self._inflight

    def enqueue(self, tier: "RemoteTier", key: str, value: Any) -> None:
        with self._state:
            if self._closed:
                self.dropped += 1
                return
            while len(self._entries) >= self.maxlen:
                self._entries.popleft()
                self.dropped += 1
            self._entries.append((tier, key, value, 0.0))
            self.enqueued += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._drain, name="repro-gossip", daemon=True
                )
                self._thread.start()
            self._state.notify_all()

    def _next_entry(self):
        """Pop the first due entry, waiting while the backlog is all
        deferred retries; None once closed and empty."""
        with self._state:
            while True:
                if self._entries:
                    tier, key, value, not_before = self._entries[0]
                    delay = not_before - time.monotonic()
                    if delay <= 0:
                        self._entries.popleft()
                        self._inflight += 1
                        return tier, key, value
                    if self._closed:
                        # Closing drops deferred retries: they are
                        # waiting on a dead peer by definition.
                        self.dropped += len(self._entries)
                        self._entries.clear()
                        return None
                    self._state.wait(timeout=delay)
                    continue
                if self._closed:
                    return None
                self._state.wait()

    def _drain(self) -> None:
        while True:
            entry = self._next_entry()
            if entry is None:
                return
            tier, key, value = entry
            try:
                # A closed tier (departed ring member) is terminal: its
                # entries must not cycle through transport retries.
                ok = True if tier.closed else tier._put_now(key, value)
            except Exception:  # noqa: BLE001 -- never kill the sender
                ok = True
            with self._state:
                self._inflight -= 1
                if ok:
                    self.delivered += 1
                elif self._closed:
                    self.dropped += 1
                else:
                    self.retried += 1
                    while len(self._entries) >= self.maxlen:
                        self._entries.popleft()
                        self.dropped += 1
                    self._entries.append(
                        (
                            tier,
                            key,
                            value,
                            time.monotonic() + self.retry_interval,
                        )
                    )
                self._state.notify_all()

    def discard_tier(self, tier: "RemoteTier") -> int:
        """Drop every queued entry bound for ``tier`` (peer departed).

        Without this, gossip for a permanently removed ring member
        would cycle through transport-failure retries until pushed out
        by backlog pressure.  Returns how many entries were dropped.
        """
        with self._state:
            kept = deque(
                entry for entry in self._entries if entry[0] is not tier
            )
            discarded = len(self._entries) - len(kept)
            self._entries = kept
            self.dropped += discarded
            self._state.notify_all()
            return discarded

    def flush(self, timeout: float | None = None) -> bool:
        """Block until the backlog is empty (delivered or dropped).

        Returns False if ``timeout`` elapsed with entries still
        pending -- e.g. retries still waiting on a partitioned peer.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._state:
            while self._entries or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._state.notify_all()
                self._state.wait(timeout=remaining)
            return True

    def snapshot(self) -> dict:
        with self._state:
            return {
                "backlog": len(self._entries) + self._inflight,
                "enqueued": self.enqueued,
                "delivered": self.delivered,
                "retried": self.retried,
                "dropped": self.dropped,
            }

    def close(self, drain_timeout: float = 2.0) -> None:
        """Stop the sender: brief best-effort drain, then drop the rest."""
        self.flush(timeout=drain_timeout)
        with self._state:
            self._closed = True
            self._state.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=drain_timeout)


# ----------------------------------------------------------------------
# The fabric: tiers composed behind the classic ContentCache surface.
# ----------------------------------------------------------------------


class TieredCache:
    """Content-addressed cache over an ordered stack of tiers.

    The default stack is memory -> disk (when ``directory`` is set) ->
    one remote tier per ``peers`` address; pass ``tiers`` to compose an
    explicit stack instead.  Reads are read-through with promotion
    (a hit is copied into every tier above the one that answered);
    writes go to every tier whose ``writes`` policy allows.  Cached
    values are shared objects; callers treat them as read-only, which
    every consumer in the engine already does.

    ``value_type`` guards the non-memory tiers: a disk pickle or remote
    blob that does not deserialise to it is a miss, so corrupt files or
    foreign peers never reach callers.

    ``write_behind=True`` attaches one :class:`GossipQueue` to every
    remote tier, detaching peer puts from the caller (call
    :meth:`flush_gossip` to wait for the backlog).  The default stays
    synchronous: a put that returns is already visible on the peer,
    which small scripts and tests rely on.
    """

    value_type: type = object
    # Wire routing tag: which server-side cache a RemoteTier's frames
    # address ("sim" | "solve" for the two concrete caches).
    layer: str = "generic"

    def __init__(
        self,
        directory: str | None = None,
        max_entries: int | None = None,
        peers: tuple[str, ...] | list[str] | None = None,
        tiers: list[CacheTier] | None = None,
        write_behind: bool = False,
    ):
        if max_entries is None:
            max_entries = _env_int("REPRO_CACHE_MAX_ENTRIES", 8192)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._gossip: GossipQueue | None = None
        self._write_behind = write_behind
        if tiers is not None:
            self._tiers = list(tiers)
        else:
            self._tiers = [MemoryTier(max_entries)]
            if directory is not None:
                self._tiers.append(DiskTier(directory, self.value_type))
            for peer in tuple(peers or ()):
                self._tiers.append(self._remote_tier(peer))
        if write_behind:
            for tier in self._tiers:
                if isinstance(tier, RemoteTier):
                    tier.attach_queue(self._gossip_queue())
        self._rebuild_ring()

    def _remote_tier(self, address: str) -> "RemoteTier":
        tier = RemoteTier(
            address, layer=self.layer, value_type=self.value_type
        )
        if self._write_behind:
            tier.attach_queue(self._gossip_queue())
        return tier

    def _gossip_queue(self) -> GossipQueue:
        if self._gossip is None:
            self._gossip = GossipQueue()
        return self._gossip

    def _rebuild_ring(self) -> None:
        """Refresh the consistent-hash view of the remote tiers.

        With fewer than two peers the ring is None and reads walk the
        declared tier order exactly as before; with a real ring, reads
        probe the key's owner first (see :meth:`_walk`).
        """
        remotes = {
            tier.address: tier
            for tier in self._tiers
            if isinstance(tier, RemoteTier)
        }
        if len(remotes) < 2:
            self._ring = None
            self._remote_by_address = remotes
            return
        from repro.service.ring import HashRing

        self._ring = HashRing(remotes)
        self._remote_by_address = remotes

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

    @property
    def peers(self) -> tuple[str, ...]:
        return tuple(
            tier.address
            for tier in self._tiers
            if isinstance(tier, RemoteTier)
        )

    def _local_tiers(self) -> list[CacheTier]:
        return [t for t in self._tiers if t.kind != "remote"]

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
            elif tier.kind == "remote":
                self.stats.remote_hits += 1

    def _promote(self, key: str, value: Any, upto: int) -> None:
        # Copy a lower-tier hit into every writable tier above it, so
        # the next lookup is answered as locally as possible.
        for tier in self._tiers[:upto]:
            if tier.writes:
                tier.put(key, value)

    def _read_order(self, key: str, remote: bool) -> list[tuple[int, CacheTier]]:
        """Tier consultation order for one lookup.

        Local tiers keep their declared order.  Remote tiers follow the
        consistent-hash preference of ``key`` when a ring exists (owner
        first, then its failover successors), so a multi-peer fabric
        reads like a sharded cache; promotion indices always refer to
        the *declared* stack, keeping hits copied into the right local
        tiers regardless of probe order.
        """
        ordered = [
            (index, tier)
            for index, tier in enumerate(self._tiers)
            if tier.kind != "remote"
        ]
        if not remote:
            return ordered
        ring = self._ring
        if ring is None:
            return [(index, tier) for index, tier in enumerate(self._tiers)]
        indices = {
            tier.address: index
            for index, tier in enumerate(self._tiers)
            if isinstance(tier, RemoteTier)
        }
        for address in ring.preference(key):
            tier = self._remote_by_address.get(address)
            if tier is not None:
                ordered.append((indices[address], tier))
        return ordered

    def _walk(self, key: str, counted: bool, remote: bool = True) -> Any | None:
        for index, tier in self._read_order(key, remote):
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
        to serve it (e.g. the solve service's cache fast-path); the
        authoritative, counted lookup still happens on the serving
        path.  Lower-tier hits are promoted exactly as a counted get
        would, so that lookup doesn't redo the disk or network read.
        """
        return self._walk(key, counted=False)

    def peek_local(self, key: str) -> Any | None:
        """Stats-neutral probe that never leaves this machine.

        What the solve server uses to answer a peer's ``CacheGet``:
        consulting its *own* remote tiers there would let two mutually
        peered servers chase a missing key around the ring forever.
        """
        return self._walk(key, counted=False, remote=False)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self.stats.stores += 1
        for tier in self._tiers:
            if tier.writes:
                tier.put(key, value)

    def put_local(self, key: str, value: Any) -> None:
        """Store without gossiping to peers (the ``CachePut`` handler)."""
        with self._lock:
            self.stats.stores += 1
        for tier in self._local_tiers():
            if tier.writes:
                tier.put(key, value)

    def set_peers(self, addresses) -> bool:
        """Reconcile the remote tiers against a new peer address set.

        The elastic ring's churn hook: tiers for departed peers are
        closed and dropped, tiers for new peers appended, surviving
        tiers (and their counters and connections) kept.  Returns
        whether anything changed.  Thread-safe with respect to
        concurrent lookups in the usual Python sense: readers iterate a
        snapshot list, and a lookup racing a departed tier degrades to
        one best-effort miss.
        """
        wanted = tuple(dict.fromkeys(addresses))
        current = self.peers
        if tuple(sorted(wanted)) == tuple(sorted(current)):
            return False
        keep: list[CacheTier] = []
        dropped: list[RemoteTier] = []
        for tier in self._tiers:
            if isinstance(tier, RemoteTier) and tier.address not in wanted:
                dropped.append(tier)
            else:
                keep.append(tier)
        existing = {
            tier.address for tier in keep if isinstance(tier, RemoteTier)
        }
        for address in wanted:
            if address not in existing:
                keep.append(self._remote_tier(address))
        self._tiers = keep
        self._rebuild_ring()
        for tier in dropped:
            if self._gossip is not None:
                self._gossip.discard_tier(tier)
            tier.close()
        return True

    def clear(self) -> None:
        """Drop the in-memory tier(s); disk and peers keep their copies."""
        for tier in self._tiers:
            if tier.kind == "memory":
                tier.clear()

    def flush_gossip(self, timeout: float | None = None) -> bool:
        """Wait for the write-behind backlog (True when it drained)."""
        if self._gossip is None:
            return True
        return self._gossip.flush(timeout=timeout)

    def gossip_report(self) -> dict | None:
        """The write-behind queue's counters, or None when synchronous."""
        if self._gossip is None:
            return None
        return self._gossip.snapshot()

    def tier_report(self) -> list[dict]:
        """Per-tier stats rows (the ``cache`` CLI / service surfaces)."""
        return [tier.report() for tier in self._tiers]

    def close(self) -> None:
        if self._gossip is not None:
            self._gossip.close()
        for tier in self._tiers:
            if isinstance(tier, RemoteTier):
                tier.close()


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
