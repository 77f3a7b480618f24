"""Task broker: priority queue, backpressure, and in-flight dedup.

The broker sits between connection handlers (producers) and the worker
pool (consumers).  Three properties matter:

- **Priority**: jobs pop highest-``priority`` first, FIFO within a
  priority level (a monotonic sequence number breaks ties), so a sweep
  submitted at priority 0 never starves an interactive submit at 5.
- **Backpressure**: at most ``max_pending`` jobs may be queued; beyond
  that :meth:`Broker.submit` raises :class:`BrokerFull` and the server
  turns it into an error frame instead of buffering unboundedly.
- **In-flight dedup**: jobs are keyed by ``(system, problem, seed)`` --
  the same triple that addresses the solve-cell cache.  A submit whose
  key matches a queued *or running* job attaches to it instead of
  enqueuing a second execution: every subscriber replays the events the
  job has already published, then receives the rest live, and all of
  them get the one terminal outcome.  Two clients racing on the same
  cell therefore cost exactly one pipeline execution.

Everything is thread-safe; subscribers drain their own
:class:`Subscription` queue so a slow client never blocks the worker
that publishes.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator


class BrokerFull(Exception):
    """The pending queue is at capacity; retry later."""


class BrokerClosed(Exception):
    """The broker is draining or shut down; no new submissions."""


# Subscription messages: ("event", Event) | ("done", result) | ("error", msg)
class Subscription:
    """One subscriber's private view of a job's stream."""

    def __init__(self) -> None:
        self._queue: "queue.SimpleQueue[tuple[str, Any]]" = queue.SimpleQueue()

    def _push(self, kind: str, payload: Any) -> None:
        self._queue.put((kind, payload))

    def get(self, timeout: float | None = None) -> tuple[str, Any]:
        return self._queue.get(timeout=timeout)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        """Yield messages until (and including) the terminal one."""
        while True:
            kind, payload = self.get()
            yield kind, payload
            if kind in ("done", "error"):
                return


@dataclass
class BrokerStats:
    """Counters for the dedup/backpressure contract (lock in Broker)."""

    submitted: int = 0
    deduped: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
        }


@dataclass
class Job:
    """One unique cell execution plus everyone listening to it."""

    key: tuple[str, str, int]
    system: str
    problem: str
    seed: int
    priority: int = 0
    # Set (under the broker lock) when a worker pops the job; stale heap
    # entries left behind by a priority bump are skipped on pop.
    dispatched: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _subscribers: list[Subscription] = field(default_factory=list, repr=False)
    _events: list = field(default_factory=list, repr=False)
    _outcome: tuple[str, Any] | None = field(default=None, repr=False)

    def subscribe(self) -> Subscription:
        """Attach a subscriber; replays history, then streams live."""
        sub = Subscription()
        with self._lock:
            for event in self._events:
                sub._push("event", event)
            if self._outcome is not None:
                sub._push(*self._outcome)
            else:
                self._subscribers.append(sub)
        return sub

    def publish(self, event) -> None:
        """Fan one run event out to every subscriber (and the replay log)."""
        with self._lock:
            self._events.append(event)
            listeners = list(self._subscribers)
        for sub in listeners:
            sub._push("event", event)

    def _settle(self, kind: str, payload: Any) -> None:
        with self._lock:
            if self._outcome is not None:
                return
            self._outcome = (kind, payload)
            listeners, self._subscribers = self._subscribers, []
        for sub in listeners:
            sub._push(kind, payload)

    @property
    def events(self) -> list:
        with self._lock:
            return list(self._events)


class Broker:
    """Thread-safe priority queue with keyed in-flight dedup."""

    def __init__(self, max_pending: int = 256):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self.stats = BrokerStats()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, Job]] = []
        self._inflight: dict[tuple[str, str, int], Job] = {}
        self._queued = 0  # undispatched jobs (the heap may hold stale dupes)
        self._seq = itertools.count()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return self._queued

    def submit(
        self, system: str, problem: str, seed: int, priority: int = 0
    ) -> tuple[Job, Subscription, bool]:
        """Enqueue (or join) one cell; returns (job, subscription, deduped)."""
        key = (system, problem, int(seed))
        with self._ready:
            if self._closed:
                raise BrokerClosed("broker is shut down")
            self.stats.submitted += 1
            existing = self._inflight.get(key)
            if existing is not None:
                self.stats.deduped += 1
                if priority > existing.priority and not existing.dispatched:
                    # The attaching submit outranks the queued job: bump
                    # it by pushing a fresh heap entry (the old one goes
                    # stale and is skipped on pop).
                    existing.priority = priority
                    heapq.heappush(
                        self._heap, (-priority, next(self._seq), existing)
                    )
                return existing, existing.subscribe(), True
            if self._queued >= self.max_pending:
                self.stats.rejected += 1
                self.stats.submitted -= 1
                raise BrokerFull(
                    f"queue full ({self.max_pending} pending jobs)"
                )
            job = Job(
                key=key,
                system=system,
                problem=problem,
                seed=int(seed),
                priority=priority,
            )
            self._inflight[key] = job
            heapq.heappush(self._heap, (-priority, next(self._seq), job))
            self._queued += 1
            self._ready.notify()
            return job, job.subscribe(), False

    def next_job(self, timeout: float | None = None) -> Job | None:
        """Pop the highest-priority job; blocks.  None = drained + closed.

        After :meth:`close`, queued jobs keep popping until the heap is
        empty (graceful drain), then every waiter gets None.
        """
        with self._ready:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if job.dispatched:
                        continue  # stale entry from a priority bump
                    job.dispatched = True
                    self._queued -= 1
                    return job
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None

    def finish(self, job: Job, result) -> None:
        """Publish the terminal result and retire the key."""
        with self._ready:
            self._inflight.pop(job.key, None)
            self.stats.completed += 1
        job._settle("done", result)

    def fail(self, job: Job, message: str) -> None:
        """Publish a terminal error and retire the key."""
        with self._ready:
            self._inflight.pop(job.key, None)
            self.stats.failed += 1
        job._settle("error", message)

    def close(self) -> None:
        """Refuse new submissions; queued jobs still drain to workers."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def abort(self, message: str = "server killed") -> int:
        """Close *and* fail every undispatched job immediately.

        The ungraceful twin of :meth:`close`, used by a server being
        killed rather than drained: subscribers of queued jobs get a
        terminal error frame (so remote clients fail or retry the cell at
        once) instead of waiting on workers that will never run them.
        Jobs already dispatched to a worker finish normally.  Returns how
        many queued jobs were failed.
        """
        aborted: list[Job] = []
        with self._ready:
            self._closed = True
            while self._heap:
                _, _, job = heapq.heappop(self._heap)
                if job.dispatched:
                    continue  # stale entry from a priority bump
                job.dispatched = True
                self._queued -= 1
                self._inflight.pop(job.key, None)
                self.stats.failed += 1
                aborted.append(job)
            self._ready.notify_all()
        for job in aborted:
            job._settle("error", message)
        return len(aborted)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
