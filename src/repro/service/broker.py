"""Task broker: a bounded FIFO between request handlers and workers.

The broker sits between connection handlers (producers) and the worker
pool (consumers).  Jobs pop in submission order.  At most
``max_pending`` jobs may be queued; beyond that :meth:`Broker.submit`
raises :class:`BrokerFull` and the server turns it into an error frame
instead of buffering unboundedly.

Each job has one subscriber, the handler that submitted it: the worker
publishes the run's events into the job's own message queue and ends
it with exactly one terminal message, so a slow client never blocks
the worker.  Two requests for the same cold cell are two jobs; the
worker's solve-cache lookup serves whichever runs second.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator


class BrokerFull(Exception):
    """The pending queue is at capacity; retry later."""


class BrokerClosed(Exception):
    """The broker is draining or shut down; no new submissions."""


@dataclass
class BrokerStats:
    """Request counters (guarded by the broker's lock)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0

    def snapshot(self) -> dict:
        return asdict(self)


# Job messages: ("event", Event) | ("done", result) | ("error", message)
@dataclass(eq=False)
class Job:
    """One queued cell and the message queue its subscriber reads."""

    system: str
    problem: str
    seed: int
    messages: "queue.SimpleQueue[tuple[str, Any]]" = field(
        default_factory=queue.SimpleQueue, repr=False
    )

    def publish(self, event) -> None:
        """Pass one run event to the subscriber."""
        self.messages.put(("event", event))

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        """Yield messages until (and including) the terminal one."""
        while True:
            kind, payload = self.messages.get()
            yield kind, payload
            if kind != "event":
                return


class Broker:
    """Thread-safe bounded FIFO of jobs."""

    def __init__(self, max_pending: int = 256):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self.stats = BrokerStats()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def submit(self, system: str, problem: str, seed: int) -> Job:
        """Enqueue one cell; the caller reads the returned job."""
        with self._ready:
            if self._closed:
                raise BrokerClosed("broker is shut down")
            if len(self._queue) >= self.max_pending:
                self.stats.rejected += 1
                raise BrokerFull(
                    f"queue full ({self.max_pending} pending jobs)"
                )
            self.stats.submitted += 1
            job = Job(system=system, problem=problem, seed=int(seed))
            self._queue.append(job)
            self._ready.notify()
            return job

    def next_job(self, timeout: float | None = None) -> Job | None:
        """Pop the oldest job; blocks.  None = drained + closed.

        After :meth:`close`, queued jobs keep popping until the queue
        is empty (graceful drain), then every waiter gets None.
        """
        with self._ready:
            while not self._queue:
                if self._closed or not self._ready.wait(timeout=timeout):
                    return None
            return self._queue.popleft()

    def finish(self, job: Job, result) -> None:
        """Publish the terminal result."""
        with self._lock:
            self.stats.completed += 1
        job.messages.put(("done", result))

    def fail(self, job: Job, message: str) -> None:
        """Publish a terminal error."""
        with self._lock:
            self.stats.failed += 1
        job.messages.put(("error", message))

    def close(self) -> None:
        """Refuse new submissions; queued jobs still drain to workers."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def abort(self, message: str = "server killed") -> int:
        """Close *and* fail every queued job immediately.

        The ungraceful twin of :meth:`close`, used by a server being
        killed rather than drained: subscribers of queued jobs get a
        terminal error (so remote clients fail or retry the cell at
        once) instead of waiting on workers that will never run them.
        Jobs already popped by a worker finish normally.  Returns how
        many queued jobs were failed.
        """
        with self._ready:
            self._closed = True
            aborted = list(self._queue)
            self._queue.clear()
            self.stats.failed += len(aborted)
            self._ready.notify_all()
        for job in aborted:
            job.messages.put(("error", message))
        return len(aborted)
