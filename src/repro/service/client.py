"""The solve service client and the grid built on it.

:class:`MultiplexedClient` is the one client: one socket, any number of
in-flight requests from any number of threads, with reply frames
demultiplexed by request id on a background reader thread.  A whole
grid's concurrent solves run over a single connection, and every
request kind the server answers -- solves and control (``ping``,
``stats``, ``shutdown``) -- goes over the same socket.  The one-shot
helpers (:func:`fetch_stats`, :func:`stop_server`) each open one for a
single request.

:func:`solve_grid` runs the Eq. 7 ``problems x runs`` grid through one
server with a deterministic merge: results are keyed by ``(problem,
run)``, and the reassembled
:class:`~repro.evaluation.harness.EvalResult` is bit-identical to a
local ``evaluate_many`` at the same seeds no matter in what order cells
finished.

**Server failure.**  A cell that hits a transport failure (connection
severed, half-written frame, server restarted) is retried once on a
fresh connection.  Re-running a cell is harmless: its outcome is a pure
function of ``(system, problem, seed)``, and the server's caches store
each record with an atomic temp-file-and-rename, so a cell solved twice
leaves one valid record with the same content.  A cell that fails its
retry fails the whole grid with a :class:`ServiceError` naming the
address and the last error.
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
    """Terminal result of one submitted cell.

    ``dedup`` is always False (each request is its own job); the
    benchmark client in ``perfbench/`` still reads it.
    """

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
    if "," in text:
        raise ValueError(
            f"bad service address {text!r}; expected one host:port"
        )
    if ":" not in text:
        raise ValueError(f"bad service address {text!r}; expected host:port")
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"bad service port in {text!r}") from exc
    return host or "127.0.0.1", port


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
                    stream=stream,
                )
            )
            ack = self._await(waiter)
            if isinstance(ack, ErrorFrame):
                raise ServiceError(ack.message)
            if not isinstance(ack, Ack):
                raise ProtocolError(f"expected ack, got {ack.type!r}")
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
    """Execution statistics for one service grid."""

    address: str
    wall_seconds: float = 0.0
    cells: int = 0
    cached_cells: int = 0
    retried_cells: int = 0
    latencies: list[float] = field(default_factory=list)

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
        return "\n".join(
            [
                f"server          {self.address}",
                f"wall clock      {self.wall_seconds:8.2f} s",
                f"grid cells      {self.cells:8d}  "
                f"({self.cells_per_second:.2f} cells/s)",
                f"cache-served    {self.cached_cells:8d}",
                f"retried         {self.retried_cells:8d}",
                f"latency         mean {self.mean_latency * 1000.0:8.1f} ms  "
                f"max {self.max_latency * 1000.0:8.1f} ms",
            ]
        )


@dataclass(frozen=True)
class _GridCell:
    problem_index: int
    run_index: int
    problem_id: str
    seed: int


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
    fresh replacement) and the next :meth:`get` dials anew.  A grid's
    workers share one link.
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
    address: str | None = None,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
    events: EventSink | Callable[[Event], None] | None = None,
):
    """Evaluate the ``problems x runs`` grid through the server at ``address``.

    Returns ``(EvalResult, GridReport)``.  The determinism contract
    matches :func:`~repro.runtime.batch.evaluate_many`: cell seeds are
    fixed as ``seed0 + run`` before dispatch and the merge keys results
    by ``(problem, run)``, so the result grid is bit-identical to local
    ``--jobs 1`` execution regardless of in-flight depth or completion
    order.

    The grid keeps two cells in flight per server worker (read once
    from the server's ``stats`` after the first cell), so no worker
    idles for a round trip between cells; every request shares one
    multiplexed connection.  A cell that fails with a transport error
    is retried once on a fresh connection.  A deterministic server
    error, or a second transport failure, fails the grid: no new cell
    starts, and a :class:`ServiceError` names the address, the cell and
    the error.  A ``progress`` or ``events`` callback that raises stops
    the grid the same way, and its own exception is raised in the
    caller's thread.  ``events`` receives live
    :class:`~repro.core.events.CellFinished` frames in completion order
    plus a terminal ``BatchFinished``, like the local batch API.
    """
    from repro.evalsets.suites import get_suite
    from repro.evaluation.harness import EvalResult, ProblemOutcome
    from repro.runtime.batch import _progress_flusher
    from repro.service.worker import registered_system_name

    if not address:
        raise ValueError("solve_grid needs a service address")
    parse_address(address)  # a malformed address fails before any work
    if runs < 1:
        raise ValueError("runs must be >= 1")
    chosen = problems if problems is not None else get_suite(suite)
    if not chosen:
        raise ValueError("empty problem list")
    resolved_name = registered_system_name(system)
    sink = as_sink(events)

    pending = deque(
        _GridCell(problem_index, run, problem.id, seed0 + run)
        for problem_index, problem in enumerate(chosen)
        for run in range(runs)
    )
    total = len(pending)
    report = GridReport(address=address)
    outcomes: dict[tuple[int, int], SolveOutcome] = {}
    by_problem: dict[int, list[SolveOutcome]] = {}
    flush_progress = _progress_flusher(
        chosen, runs, resolved_name, progress, by_problem
    )
    failures: list[Exception] = []
    lock = threading.Lock()
    link = ClientLink(address, timeout)

    def record(cell: _GridCell, outcome: SolveOutcome, latency: float) -> None:
        with lock:
            outcomes[(cell.problem_index, cell.run_index)] = outcome
            report.latencies.append(latency)
            if outcome.cached:
                report.cached_cells += 1
            by_problem.setdefault(cell.problem_index, []).append(outcome)
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

    def solve_cell(cell: _GridCell) -> SolveOutcome:
        """Up to two attempts, the second on a fresh connection."""
        generation = None
        try:
            client, generation = link.get()
            return client.solve(system, cell.problem_id, seed=cell.seed)
        except (OSError, ProtocolError, ServiceError) as exc:
            if not _is_transient(exc):
                raise
            if generation is not None:
                link.invalidate(generation)
        with lock:
            report.retried_cells += 1
        client, _ = link.get()
        return client.solve(system, cell.problem_id, seed=cell.seed)

    threads: list[threading.Thread] = []

    def launch(count: int, widen: bool = False) -> None:
        for index in range(count):
            thread = threading.Thread(
                target=worker,
                args=(widen and index == 0,),
                name=f"repro-grid-{len(threads)}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()

    def worker(widen: bool) -> None:
        while True:
            with lock:
                if failures or not pending:
                    return
                cell = pending.popleft()
            submitted = time.perf_counter()
            try:
                outcome = solve_cell(cell)
            except Exception as exc:  # noqa: BLE001 -- fails the grid
                with lock:
                    failures.append(
                        ServiceError(
                            f"{address}: {cell.problem_id} run "
                            f"{cell.run_index}: {exc}"
                        )
                    )
                return
            try:
                record(cell, outcome, time.perf_counter() - submitted)
            except Exception as exc:  # noqa: BLE001 -- the caller's callback
                # Raised again in the caller's thread, as a local grid would.
                with lock:
                    failures.append(exc)
                return
            if widen:
                # Read after the first cell, so the read costs the grid
                # no round trip up front.
                widen = False
                try:
                    client, _ = link.get()
                    depth = 2 * client.stats()["workers"]
                except (OSError, ServiceError, ProtocolError):
                    depth = 2  # the next cell finds out why
                launch(min(depth, total) - 2)

    started = time.perf_counter()
    launch(min(2, total), widen=True)
    for thread in threads:  # grows once the first cell widens the grid
        thread.join()
    link.close()
    report.wall_seconds = time.perf_counter() - started
    report.cells = len(outcomes)

    if failures:
        raise failures[0]
    if len(outcomes) != total:
        raise ServiceError(
            f"grid incomplete: {len(outcomes)}/{total} cells returned"
        )
    sink.emit(BatchFinished(cells=total, seconds=report.wall_seconds))

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
