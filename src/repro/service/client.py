"""The solve service client and the sharded grid built on it.

:class:`MultiplexedClient` is the one client: one socket, any number of
in-flight requests from any number of threads, with reply frames
demultiplexed by request id on a background reader thread.  A grid
shard's worth of concurrent solves runs over a single connection, and
every request kind the server answers -- solves and control (``ping``,
``stats``, ``shutdown``) -- goes over the same socket.  The one-shot
helpers (:func:`fetch_stats`, :func:`stop_server`) each open one for a
single request.

:func:`solve_grid` runs the Eq. 7 ``problems x runs`` grid fanned over
one or more server shards with a deterministic merge: results are
keyed by ``(problem, run)``, and the reassembled
:class:`~repro.evaluation.harness.EvalResult` is bit-identical to a
local ``evaluate_many`` at the same seeds no matter how many shards
served it or in what order cells finished.

**Shard death.**  ``solve_grid`` survives it: a cell that hits a
transport failure (connection severed, half-written frame, server
killed) is retried once on a fresh connection, and if the shard is
really gone its remaining cells migrate round-robin to the surviving
shards.  Re-running a cell is harmless by construction (the outcome is
a pure function of ``(system, problem, seed)`` and the server dedups
in-flight work), so the merged grid stays bit-identical through
failures.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.events import (
    BatchFinished,
    CellFinished,
    Event,
    EventSink,
    as_sink,
)
from repro.service.protocol import (
    Ack,
    ControlRequest,
    Done,
    ErrorFrame,
    EventFrame,
    Frame,
    PeerGone,
    ProtocolError,
    SolveRequest,
    StatsReply,
    read_frame,
    write_frame,
)


class ServiceError(Exception):
    """The server answered with an error frame."""


@dataclass(frozen=True)
class SolveOutcome:
    """Terminal result of one submitted cell."""

    source: str
    passed: bool
    score: float
    seconds: float
    system: str
    cached: bool = False
    dedup: bool = False


def parse_address(address: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)`` (host defaults to localhost)."""
    text = address.strip()
    if ":" not in text:
        raise ValueError(f"bad service address {text!r}; expected host:port")
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"bad service port in {text!r}") from exc
    return host or "127.0.0.1", port


def _check_shards(shards: list[str]) -> None:
    """Fail fast on a malformed or repeated shard address."""
    seen = set()
    for shard in shards:
        endpoint = parse_address(shard)  # ":1" and "127.0.0.1:1" are one
        if endpoint in seen:
            raise ValueError(f"service address {shard!r} given twice")
        seen.add(endpoint)


def parse_shards(spec: str) -> list[str]:
    """Comma-separated ``host:port`` list -> validated address list."""
    shards = [part.strip() for part in spec.split(",") if part.strip()]
    if not shards:
        raise ValueError("no service addresses given")
    _check_shards(shards)
    return shards


class MultiplexedClient:
    """One socket, many in-flight requests, demuxed by request id.

    Any number of threads may call :meth:`solve` (or the control
    helpers) concurrently: writes are serialised frame-at-a-time under
    a lock, and a background reader thread routes every reply frame to
    its request's private queue by ``id``.  A transport failure fails
    every in-flight request at once (each caller sees the same
    :class:`ServiceError`), after which the client is dead -- callers
    reconnect by constructing a new one.

    Frames for requests nobody is waiting on (an abandoned or timed-out
    solve's stragglers) are discarded by the reader, so one slow or
    dropped request can never desynchronise the others.  An
    ``ErrorFrame`` with id 0 is the server refusing the connection
    itself (a malformed frame, a protocol version mismatch): it fails
    every in-flight request with the server's message.

    ``timeout`` bounds each wait for a reply frame; the default (None)
    blocks until the server answers -- a queued cold cell may
    legitimately wait behind a long sweep.  ``connect_timeout`` only
    bounds the initial connection, so dead addresses still fail fast.
    """

    def __init__(
        self,
        address: str,
        timeout: float | None = None,
        connect_timeout: float | None = 10.0,
    ):
        self.address = address
        self.timeout = timeout
        host, port = parse_address(address)
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        # The reader thread owns the socket timeout; per-request
        # patience is enforced on each pending queue instead.
        self._sock.settimeout(None)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._write_lock = threading.Lock()
        self._pending: dict[int, "queue.SimpleQueue"] = {}
        self._pending_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._dead: Exception | None = None
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-mux-reader-{address}",
            daemon=True,
        )
        self._reader.start()

    @property
    def closed(self) -> bool:
        return self._dead is not None

    def close(self) -> None:
        self._fail(ServiceError("client closed"))

    def __enter__(self) -> "MultiplexedClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- demux machinery ------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame(self._rfile)
                if frame is None:
                    raise ServiceError("server closed the connection")
                if isinstance(frame, ErrorFrame) and frame.id == 0:
                    raise ServiceError(frame.message)
                with self._pending_lock:
                    waiter = self._pending.get(frame.id)
                if waiter is not None:
                    waiter.put(frame)
                # else: a stray frame for an abandoned request; drop it.
        except PeerGone as exc:
            self._fail(ServiceError(f"connection severed mid-frame: {exc}"))
        except (ServiceError, ProtocolError) as exc:
            self._fail(exc)
        except (OSError, ValueError) as exc:
            # Keep the transport flavour visible in the message: grid
            # retry triage (_is_transient) only sees the ServiceError.
            self._fail(
                ServiceError(
                    f"connection lost: {exc or type(exc).__name__}"
                )
            )
        finally:
            # The reader owns the final close: closing the buffered file
            # objects from any other thread would block on the buffer
            # lock this thread holds while parked in recv().
            for closer in (
                self._rfile.close,
                self._wfile.close,
                self._sock.close,
            ):
                try:
                    closer()
                except (OSError, ValueError):
                    pass

    def _fail(self, exc: Exception) -> None:
        with self._pending_lock:
            if self._dead is not None:
                return
            self._dead = exc
            waiters = list(self._pending.values())
        for waiter in waiters:
            waiter.put(exc)
        # shutdown() -- not close() -- so the fd dies out from under the
        # reader's blocking recv and it can run its own cleanup.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _register(self) -> tuple[int, "queue.SimpleQueue"]:
        request_id = next(self._ids)
        waiter: "queue.SimpleQueue" = queue.SimpleQueue()
        with self._pending_lock:
            if self._dead is not None:
                raise self._dead
            self._pending[request_id] = waiter
        return request_id, waiter

    def _unregister(self, request_id: int) -> None:
        with self._pending_lock:
            self._pending.pop(request_id, None)

    def _send(self, frame) -> None:
        try:
            with self._write_lock:
                write_frame(self._wfile, frame)
        except (OSError, ValueError) as exc:
            self._fail(ServiceError(f"send failed: {exc}"))
            raise self._dead from exc

    def _await(self, waiter: "queue.SimpleQueue"):
        try:
            item = waiter.get(timeout=self.timeout)
        except queue.Empty:
            raise ServiceError(
                f"timed out after {self.timeout}s waiting for {self.address}"
            ) from None
        if isinstance(item, Exception):
            raise item
        return item

    # -- requests -------------------------------------------------------

    def solve(
        self,
        system: str,
        problem: str,
        seed: int = 0,
        priority: int = 0,
        events: EventSink | Callable[[Event], None] | None = None,
    ) -> SolveOutcome:
        """Blocking submit, safe to call from any number of threads."""
        sink = as_sink(events)
        stream = events is not None
        request_id, waiter = self._register()
        try:
            self._send(
                SolveRequest(
                    id=request_id,
                    system=system,
                    problem=problem,
                    seed=seed,
                    priority=priority,
                    stream=stream,
                )
            )
            ack = self._await(waiter)
            if isinstance(ack, ErrorFrame):
                raise ServiceError(ack.message)
            if not isinstance(ack, Ack):
                raise ProtocolError(f"expected ack, got {ack.type!r}")
            dedup = ack.dedup
            while True:
                frame = self._await(waiter)
                if isinstance(frame, EventFrame):
                    sink.emit(frame.event)
                elif isinstance(frame, Done):
                    return SolveOutcome(
                        source=frame.source,
                        passed=frame.passed,
                        score=frame.score,
                        seconds=frame.seconds,
                        system=frame.system,
                        cached=frame.cached,
                        dedup=frame.dedup or dedup,
                    )
                elif isinstance(frame, ErrorFrame):
                    raise ServiceError(frame.message)
                else:
                    raise ProtocolError(f"unexpected frame {frame.type!r}")
        finally:
            self._unregister(request_id)

    def _request(
        self, frame_cls: type[Frame], reply_cls: type[Frame], **fields
    ) -> Frame:
        """Send one request frame and return its single reply frame."""
        request_id, waiter = self._register()
        try:
            self._send(frame_cls(id=request_id, **fields))
            reply = self._await(waiter)
        finally:
            self._unregister(request_id)
        if isinstance(reply, ErrorFrame):
            raise ServiceError(reply.message)
        if not isinstance(reply, reply_cls):
            raise ProtocolError(
                f"expected {reply_cls.type}, got {reply.type!r}"
            )
        return reply

    def ping(self) -> bool:
        self._request(ControlRequest, Ack, op="ping")
        return True

    def stats(self) -> dict:
        return self._request(ControlRequest, StatsReply, op="stats").stats

    def shutdown_server(self) -> None:
        """Ask the server to drain and stop (connection closes after)."""
        self._request(ControlRequest, Ack, op="shutdown")
        self.close()


def fetch_stats(address: str, timeout: float | None = 10.0) -> dict:
    """One-shot stats snapshot from a running server."""
    with MultiplexedClient(address, timeout=timeout) as client:
        return client.stats()


def stop_server(address: str, timeout: float | None = 10.0) -> None:
    """One-shot graceful shutdown of a running server."""
    with MultiplexedClient(address, timeout=timeout) as client:
        client.shutdown_server()


@dataclass
class GridReport:
    """Execution statistics for one sharded service grid."""

    shards: list[str]
    wall_seconds: float = 0.0
    cells: int = 0
    cached_cells: int = 0
    dedup_cells: int = 0
    retried_cells: int = 0
    migrated_cells: int = 0
    dead_shards: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    shard_cells: dict[str, int] = field(default_factory=dict)

    @property
    def cells_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.cells / self.wall_seconds

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def max_latency(self) -> float:
        return max(self.latencies, default=0.0)

    def render(self) -> str:
        lines = [
            f"shards          {len(self.shards)}  ({', '.join(self.shards)})",
            f"wall clock      {self.wall_seconds:8.2f} s",
            f"grid cells      {self.cells:8d}  "
            f"({self.cells_per_second:.2f} cells/s)",
            f"cache-served    {self.cached_cells:8d}",
            f"dedup-shared    {self.dedup_cells:8d}",
            f"latency         mean {self.mean_latency * 1000.0:8.1f} ms  "
            f"max {self.max_latency * 1000.0:8.1f} ms",
        ]
        if self.retried_cells or self.migrated_cells or self.dead_shards:
            dead = ", ".join(self.dead_shards) or "none"
            lines.append(
                f"elasticity      {self.retried_cells} retried  "
                f"{self.migrated_cells} migrated  dead shards: {dead}"
            )
        for shard in self.shards:
            lines.append(
                f"  {shard:20s} {self.shard_cells.get(shard, 0):6d} cells"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class _GridCell:
    index: int  # flat grid index (drives the static shard assignment)
    problem_index: int
    run_index: int
    problem_id: str
    seed: int


class _ShardDead(Exception):
    """A shard failed a cell twice on fresh connections; migrate."""


def _is_transient(exc: Exception) -> bool:
    """Transport-ish failures that justify a retry on a new connection.

    Deterministic server errors ("unknown system ...", "unknown
    problem ...", or a connection refused with "protocol version
    mismatch ...") would fail identically everywhere; retrying those
    only hides real bugs, so they abort the grid instead.
    """
    if isinstance(exc, OSError):
        return True
    if isinstance(exc, ProtocolError):
        return True  # desynchronised stream: only a reconnect recovers
    if isinstance(exc, ServiceError):
        message = str(exc)
        return any(
            marker in message
            for marker in (
                "server closed the connection",
                "connection severed",
                "connection lost",
                "server killed",
                "broker is shut down",
                "client closed",
                "send failed",
                "timed out",
                "busy:",
            )
        )
    return False


class ClientLink:
    """Lazy, shared, regenerating connection to one server.

    Every caller multiplexes over one :class:`MultiplexedClient`; when
    the connection dies, the first caller to notice invalidates it (by
    the generation it was using, so racing callers don't tear down a
    fresh replacement) and the next :meth:`get` dials anew.  A grid
    shard's workers share one link.
    """

    def __init__(
        self,
        address: str,
        timeout: float | None,
        connect_timeout: float | None = 10.0,
    ):
        self.address = address
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._lock = threading.Lock()
        self._client: MultiplexedClient | None = None
        self._generation = 0

    def get(self) -> tuple[MultiplexedClient, int]:
        with self._lock:
            if self._client is None or self._client.closed:
                self._client = MultiplexedClient(
                    self.address,
                    timeout=self.timeout,
                    connect_timeout=self.connect_timeout,
                )
                self._generation += 1
            return self._client, self._generation

    def invalidate(self, generation: int) -> None:
        with self._lock:
            if self._generation != generation or self._client is None:
                return
            self._client.close()
            self._client = None

    def close(self) -> None:
        with self._lock:
            if self._client is not None:
                self._client.close()
                self._client = None


def solve_grid(
    system: str,
    suite: str,
    runs: int = 1,
    seed0: int = 0,
    problems=None,
    shards: list[str] | None = None,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
    events: EventSink | Callable[[Event], None] | None = None,
):
    """Evaluate the ``problems x runs`` grid through service shards.

    Returns ``(EvalResult, GridReport)``.  The determinism contract
    matches :func:`~repro.runtime.batch.evaluate_many`: cell seeds are
    fixed as ``seed0 + run`` before dispatch, the shard assignment is a
    pure function of the cell's identity, and the merge keys results by
    ``(problem, run)`` -- so the result grid is bit-identical to local
    ``--jobs 1`` execution regardless of shard count, in-flight depth,
    completion order, or mid-grid shard failures.

    Placement: cells round-robin over ``shards`` by flat grid index;
    a repeated address is refused with a ``ValueError``.  Each shard
    keeps two cells in flight per server worker (read once from its
    ``stats`` after its first cell), so no worker idles for a round
    trip between cells.

    Fault tolerance: each shard's workers share one multiplexed
    connection; a cell that fails with a transport error is retried
    once on a fresh connection, and a shard that fails twice in a row
    is declared dead -- its unfinished cells migrate round-robin to the
    surviving shards.  ``events``
    receives live :class:`~repro.core.events.CellFinished` frames in
    completion order plus a terminal ``BatchFinished``, like the local
    batch API.
    """
    from repro.evalsets.suites import get_suite
    from repro.evaluation.harness import EvalResult, ProblemOutcome
    from repro.service.worker import registered_system_name

    if not shards:
        raise ValueError("solve_grid needs at least one service address")
    _check_shards(shards)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    chosen = problems if problems is not None else get_suite(suite)
    if not chosen:
        raise ValueError("empty problem list")
    resolved_name = registered_system_name(system)
    sink = as_sink(events)

    cells: list[_GridCell] = []
    for problem_index, problem in enumerate(chosen):
        for run in range(runs):
            cells.append(
                _GridCell(
                    index=len(cells),
                    problem_index=problem_index,
                    run_index=run,
                    problem_id=problem.id,
                    seed=seed0 + run,
                )
            )

    # Deterministic placement: flat-index round-robin.
    work: dict[str, deque] = {shard: deque() for shard in shards}
    for cell in cells:
        work[shards[cell.index % len(shards)]].append(cell)

    report = GridReport(shards=list(shards))
    outcomes: dict[tuple[int, int], SolveOutcome] = {}
    fatal: list[str] = []
    by_problem: dict[int, int] = {}
    next_to_report = 0
    remaining = len(cells)
    finished = threading.Event()
    dead: set[str] = set()
    cond = threading.Condition()
    links = {shard: ClientLink(shard, timeout) for shard in shards}

    def flush_progress() -> None:
        # Progress lines in suite order, like evaluate_many.
        nonlocal next_to_report
        while (
            next_to_report < len(chosen)
            and by_problem.get(next_to_report, 0) == runs
        ):
            if progress is not None:
                done = [
                    outcomes[(next_to_report, run)] for run in range(runs)
                ]
                passes = sum(1 for o in done if o.passed)
                progress(
                    f"{resolved_name} {chosen[next_to_report].id}: "
                    f"{passes}/{runs} passed"
                )
            next_to_report += 1

    def record(shard: str, cell: _GridCell, outcome: SolveOutcome,
               latency: float) -> None:
        nonlocal remaining
        with cond:
            if (cell.problem_index, cell.run_index) in outcomes:
                return  # a migrated duplicate raced us; identical anyway
            outcomes[(cell.problem_index, cell.run_index)] = outcome
            remaining -= 1
            report.latencies.append(latency)
            report.shard_cells[shard] = report.shard_cells.get(shard, 0) + 1
            if outcome.cached:
                report.cached_cells += 1
            if outcome.dedup:
                report.dedup_cells += 1
            by_problem[cell.problem_index] = (
                by_problem.get(cell.problem_index, 0) + 1
            )
            sink.emit(
                CellFinished(
                    problem_id=cell.problem_id,
                    run_index=cell.run_index,
                    passed=outcome.passed,
                    score=outcome.score,
                    # Server-side execution time, matching what local
                    # evaluate_many reports (the round-trip latency
                    # lives in the grid report, not the event stream).
                    seconds=outcome.seconds,
                    solve_cached=outcome.cached,
                )
            )
            flush_progress()
            if remaining == 0:
                finished.set()
            cond.notify_all()

    def abort(message: str) -> None:
        with cond:
            fatal.append(message)
            finished.set()
            cond.notify_all()

    def declare_dead(shard: str, orphan: _GridCell | None) -> None:
        """Migrate a dead shard's unfinished cells to the survivors.

        Orphans round-robin over the survivors by flat grid index --
        the same deterministic answer any client would compute, so
        concurrent grids re-shard identically.
        """
        with cond:
            orphans = list(work[shard])
            work[shard].clear()
            if orphan is not None:
                orphans.append(orphan)
            first_death = shard not in dead
            dead.add(shard)
            if first_death:
                report.dead_shards.append(shard)
            survivors = [s for s in shards if s not in dead]
            if not survivors:
                fatal.append(f"all shards dead (last: {shard})")
                finished.set()
                cond.notify_all()
                return
            for cell in orphans:
                work[survivors[cell.index % len(survivors)]].append(cell)
                report.migrated_cells += 1
            cond.notify_all()
        links[shard].close()

    def solve_cell(shard: str, cell: _GridCell) -> SolveOutcome:
        """Up to two attempts, the second on a fresh connection."""
        last: Exception | None = None
        for attempt in range(2):
            generation = None
            try:
                client, generation = links[shard].get()
                return client.solve(system, cell.problem_id, seed=cell.seed)
            except Exception as exc:  # noqa: BLE001 -- triaged below
                if not _is_transient(exc):
                    raise
                last = exc
                if generation is not None:
                    links[shard].invalidate(generation)
                if attempt == 0:
                    with cond:
                        report.retried_cells += 1
        raise _ShardDead(f"{shard}: {last}")

    threads: list[threading.Thread] = []

    def launch(shard: str, count: int, widen: bool = False) -> None:
        for index in range(count):
            thread = threading.Thread(
                target=worker,
                args=(shard, widen and index == 0),
                name=f"repro-grid-{shard}-{len(threads)}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()

    def worker(shard: str, widen: bool) -> None:
        while True:
            with cond:
                while (
                    not work[shard]
                    and not finished.is_set()
                    and shard not in dead
                ):
                    cond.wait(timeout=0.5)
                if finished.is_set() or shard in dead:
                    return
                cell = work[shard].popleft()
            submitted = time.perf_counter()
            try:
                outcome = solve_cell(shard, cell)
            except _ShardDead:
                declare_dead(shard, cell)
                continue
            except Exception as exc:  # noqa: BLE001 -- deterministic error
                abort(
                    f"{shard} {cell.problem_id} run {cell.run_index}: {exc}"
                )
                return
            record(shard, cell, outcome, time.perf_counter() - submitted)
            if widen:
                # Read after the shard's first cell, so the read costs
                # the grid no round trip up front.
                widen = False
                try:
                    client, _ = links[shard].get()
                    depth = 2 * client.stats()["workers"]
                except (OSError, ServiceError, ProtocolError):
                    depth = 2  # the shard's next cell finds out why
                launch(shard, min(depth, len(cells)) - 2)

    started = time.perf_counter()
    for shard in shards:
        launch(shard, min(2, len(cells)), widen=True)
    for thread in threads:  # grows as each shard widens
        thread.join()
    for link in links.values():
        link.close()
    report.wall_seconds = time.perf_counter() - started
    report.cells = len(outcomes)

    if fatal:
        raise ServiceError(
            f"{len(fatal)} grid failure(s): " + "; ".join(fatal[:3])
        )
    if len(outcomes) != len(cells):
        raise ServiceError(
            f"grid incomplete: {len(outcomes)}/{len(cells)} cells returned"
        )
    sink.emit(BatchFinished(cells=len(cells), seconds=report.wall_seconds))

    result = EvalResult(system=resolved_name, suite=suite)
    for problem_index, problem in enumerate(chosen):
        outcome = ProblemOutcome(problem.id, problem.difficulty)
        for run in range(runs):
            cell_outcome = outcomes[(problem_index, run)]
            outcome.runs += 1
            outcome.passes += int(cell_outcome.passed)
            outcome.scores.append(cell_outcome.score)
        result.outcomes.append(outcome)
    return result, report
