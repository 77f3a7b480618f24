"""Threaded TCP solve server: multiplexed connections, one reader each.

:class:`SolveServer` binds a localhost TCP socket; one accept thread
hands each client connection to its own reader thread, and each
*request* goes to a handler thread pool.  Frames carry request ids, so
any number of requests can be in flight on one connection and their
reply streams interleave frame-by-frame -- a
:class:`~repro.service.client.MultiplexedClient` runs a whole grid
over one socket, and is built the same way.  A malformed frame (bad
bytes, wrong protocol version) is answered with an id-0 ``ErrorFrame``
naming the problem, then the connection closes.

Requests route through a shared :class:`~repro.service.broker.Broker`
into a pool of long-lived :class:`~repro.service.worker.Worker` s, each
a broker consumer thread driving one child process, so ``--workers N``
solves on N processes.  Both cache layers live in the server process
(workers store what their children solve), so a request is served by
one of two rungs:

1. **solve-cell cache hit** -- served inline by the request's handler
   thread (events replayed, scoring via the simulation cache); no
   worker is touched and no queue slot is consumed;
2. **cold cell** -- queued in FIFO order, taken by the next free
   worker, and stored in both caches on the way out.  The worker looks
   the cell up once more before it solves, so a twin request popped
   after the first solve stored its record replays that record.

Servers and local evaluations that should share warm cells point at
the same cache directories: the disk tier writes atomically, so a cell
one process stored is a cache hit for every other process reading that
directory.

Shutdown is a graceful drain: new submissions are refused, queued jobs
finish, workers and their processes exit, then the sockets close.
:meth:`SolveServer.kill` is the chaos-test path: queued jobs are
aborted, every connection is severed mid-frame and the worker processes
are killed, exactly like a SIGKILL.  Worker processes are *spawned*, so
a script that starts a server in-process needs the usual ``if __name__
== "__main__":`` guard.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import socket
import threading

from repro.runtime.cache import SimulationCache, SolveCellCache
from repro.service.broker import Broker, BrokerClosed, BrokerFull
from repro.service.protocol import (
    PROTOCOL_VERSION,
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
    encode_frame,
    read_frame,
)
from repro.service.worker import (
    ServiceStats,
    Worker,
    serve_cached_record,
    service_cell_key,
)


class _Connection:
    """One client connection, served by its own reader thread.

    The reader (``run``) parses frames, answers control requests itself
    and hands each solve to the handler pool.  Every thread writes its
    own frames with ``send``, whole frames under one lock, so replies
    interleave at frame granularity and per-request order is preserved
    (each handler sends its frames sequentially).  The reader owns the
    final close; other threads only ``shutdown`` the socket, which wakes
    it.
    """

    def __init__(self, service: "SolveServer", sock: socket.socket, name: str):
        self.service = service
        self.sock = sock
        self.thread = threading.Thread(target=self.run, name=name, daemon=True)
        self._write_lock = threading.Lock()
        self._handlers: set[concurrent.futures.Future] = set()
        self._handlers_lock = threading.Lock()
        self._closed = False

    def send(self, frame: Frame) -> bool:
        """Write one frame from any thread; False once the client is
        known to be gone (handlers use this to stop streaming)."""
        if self._closed:
            return False
        try:
            data = encode_frame(frame)
        except ProtocolError as exc:
            # The frame itself is unsendable (e.g. a payload past the
            # frame ceiling); tell the client with a typed error rather
            # than dropping the connection silently.
            data = encode_frame(
                ErrorFrame(
                    id=getattr(frame, "id", 0),
                    message=f"unsendable reply: {exc}",
                )
            )
        try:
            with self._write_lock:
                self.sock.sendall(data)
        except OSError:
            self._closed = True
        return not self._closed

    def handlers(self) -> list[concurrent.futures.Future]:
        """This connection's solves still in flight."""
        with self._handlers_lock:
            return list(self._handlers)

    def _forget(self, future: concurrent.futures.Future) -> None:
        with self._handlers_lock:
            self._handlers.discard(future)

    def run(self) -> None:
        stream = self.sock.makefile("rb")
        try:
            while True:
                try:
                    frame = read_frame(stream)
                except PeerGone:
                    break  # client died mid-frame
                except ProtocolError as exc:
                    self.send(ErrorFrame(id=0, message=str(exc)))
                    break
                except OSError:
                    break  # severed by the server or the network
                if frame is None:
                    break  # clean EOF
                if not self._dispatch(frame):
                    break  # shutdown request: close after the ack
        finally:
            # Let in-flight handlers publish their terminal frames, then
            # close.
            concurrent.futures.wait(self.handlers())
            self._closed = True
            self.service._remove_connection(self)
            for closer in (stream.close, self.sock.close):
                try:
                    closer()
                except OSError:
                    pass

    def sever(self) -> None:
        """Stop all traffic now; the reader wakes and closes."""
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _dispatch(self, frame: Frame) -> bool:
        """Route one frame; False closes the connection (shutdown)."""
        service = self.service
        if isinstance(frame, ControlRequest):
            return service._handle_control(self, frame)
        if not isinstance(frame, SolveRequest):
            self.send(
                ErrorFrame(
                    id=getattr(frame, "id", 0),
                    message=f"unexpected frame type {frame.type!r}",
                )
            )
            return True
        # Each request runs on its own pool thread: a streaming solve
        # can wait minutes on the broker while pings, stats, and other
        # solves keep flowing on this same connection.
        try:
            future = service._pool.submit(service._handle_solve, self, frame)
        except RuntimeError:
            return False  # the server stopped while this frame arrived
        with self._handlers_lock:
            self._handlers.add(future)
        future.add_done_callback(self._forget)
        return True


class SolveServer:
    """Long-lived solve service on a localhost TCP port.

    ``sim_cache``/``solve_cache`` accept an instance, ``False`` to
    disable the layer, or ``None`` for a fresh in-memory cache (pass
    instances with a ``directory`` to persist across restarts, or to
    share warm cells with every other process on that directory).

    ``gateway`` pins the LLM gateway settings every worker solve runs
    under (``None`` resolves from the environment at construction, and
    stays ``None`` when the gateway is not enabled).  With a gateway,
    the stats report the cassette store as a third cache layer.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        sim_cache: SimulationCache | bool | None = None,
        solve_cache: SolveCellCache | bool | None = None,
        max_pending: int = 256,
        gateway=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sim_cache = self._resolve(sim_cache, SimulationCache)
        self.solve_cache = self._resolve(solve_cache, SolveCellCache)
        if gateway is None:
            from repro.llm.gateway.settings import GatewaySettings

            resolved = GatewaySettings.from_env()
            gateway = resolved if resolved.enabled else None
        self.gateway = gateway
        self.broker = Broker(max_pending=max_pending)
        self.stats = ServiceStats()
        # Bind in the constructor so ``address`` is valid before start()
        # (and the port is reserved for us).
        self._listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listen_sock.bind((host, port))
        self._listen_sock.listen(128)
        bound_host, bound_port = self._listen_sock.getsockname()[:2]
        # Kept past shutdown, so a stopped server can still be named.
        self.address = f"{bound_host}:{bound_port}"
        self._workers = [
            Worker(
                self.broker,
                self.stats,
                sim_cache=self.sim_cache,
                solve_cache=self.solve_cache,
                name=f"repro-service-worker-{index}",
                gateway=self.gateway,
            )
            for index in range(workers)
        ]
        # One pool thread per in-flight request (a streaming solve holds
        # its thread while it waits on the broker), sized past the
        # broker's own admission bound so backpressure comes from
        # BrokerFull, not silent pool queuing.
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_pending + 16,
            thread_name_prefix="repro-service-handler",
        )
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._connections_lock = threading.Lock()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()

    @staticmethod
    def _resolve(cache, default_cls):
        if cache is False:
            return None
        if cache is None or cache is True:
            return default_cls()
        return cache

    def cassette(self):
        """The server's cassette store, or None without a gateway."""
        if self.gateway is None:
            return None
        from repro.llm.gateway.cassette import cassette_store

        return cassette_store(self.gateway.cassette_dir)

    def fetch_cached(self, system: str, problem_id: str, seed: int):
        """The cell's solve-cell record, or None to take the cold path.

        One counted ``get`` is the whole decision: the record it
        returns is the record that gets served (no probe/serve gap for
        eviction to slip through, disk hits attributed correctly).  A
        cold submit therefore counts a miss here in addition to the
        worker's own lookup -- the worker lookup stays, because a twin
        of the cell solved while this one queued has stored its record
        by the time the job runs, and is replayed instead of solved.
        """
        if self.solve_cache is None:
            return None
        key = service_cell_key(system, problem_id, seed, self.gateway)
        return None if key is None else self.solve_cache.get(key)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SolveServer":
        for worker in self._workers:
            worker.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-service-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        try:
            for index in itertools.count():
                try:
                    sock, _ = self._listen_sock.accept()
                except OSError:
                    return  # the listener was shut down
                # Without this, Nagle holds each Done written right
                # after an Ack for the client's delayed ACK.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = _Connection(self, sock, f"repro-service-conn-{index}")
                with self._connections_lock:
                    self._connections.add(conn)
                conn.thread.start()
        finally:
            self._listen_sock.close()

    def _remove_connection(self, conn: _Connection) -> None:
        with self._connections_lock:
            self._connections.discard(conn)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has shut down."""
        return self._stopped.wait(timeout=timeout)

    def _stop_accepting(self) -> None:
        """Close the listener; once this returns, no connection is added."""
        if self._accept_thread is None:
            self._listen_sock.close()  # never started: just release the port
            return
        try:
            # close() alone leaves accept() blocked; shutdown() wakes it.
            self._listen_sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._accept_thread.join()

    def _sever_connections(self) -> list[_Connection]:
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.sever()
        return connections

    def shutdown(self, handler_grace: float = 30.0) -> None:
        """Graceful drain: refuse new work, finish the queue, close.

        After the workers exit, waits up to ``handler_grace`` seconds
        for in-flight request handlers to flush their terminal frames,
        so a client whose queued job just finished still gets its
        ``done`` before the sockets close.
        """
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self._stop_accepting()
            self.broker.close()  # queued jobs still drain to workers
            for worker in self._workers:
                if worker.ident is not None:
                    worker.join()
            with self._connections_lock:
                handlers = [
                    future
                    for conn in self._connections
                    for future in conn.handlers()
                ]
            concurrent.futures.wait(handlers, timeout=handler_grace)
            for conn in self._sever_connections():
                conn.thread.join(timeout=10.0)
            self._pool.shutdown(wait=False)
            self._stopped.set()

    def kill(self) -> None:
        """Abrupt stop, as close to SIGKILL as in-process gets.

        Queued jobs are aborted (their subscribers get a terminal
        error), worker processes are killed (failing the jobs they were
        running), every connection is severed mid-whatever, the
        listener closes, and nothing is drained.  Chaos tests use this
        to prove clients fail with a typed error; production paths should
        call :meth:`shutdown`.
        """
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self.broker.abort("server killed")
            self._stop_accepting()
            severed = self._sever_connections()
            # After the connections are severed, as with a real SIGKILL:
            # no client hears about the jobs this fails.
            for worker in self._workers:
                worker.halt()
            for worker in self._workers:
                if worker.ident is not None:
                    worker.join(timeout=10.0)
            # Readers wait for their handlers, which the halt just freed.
            for conn in severed:
                conn.thread.join(timeout=10.0)
            self._pool.shutdown(wait=False)
            self._stopped.set()

    # -- request handlers (pool threads) --------------------------------

    def _handle_solve(self, conn: _Connection, req: SolveRequest) -> None:
        try:
            self._solve_request(conn, req)
        except Exception as exc:  # noqa: BLE001 -- becomes an error frame
            self.stats.count("errors")
            conn.send(
                ErrorFrame(id=req.id, message=f"{type(exc).__name__}: {exc}")
            )

    def _solve_request(self, conn: _Connection, req: SolveRequest) -> None:
        record = self.fetch_cached(req.system, req.problem, req.seed)
        if record is not None:
            # Warm path: serve inline from the already-fetched record;
            # the worker pool and queue are never touched.  A record
            # evicted between probe and fetch simply lands on the cold
            # path below, so an inline solve can never execute a
            # pipeline outside the broker's queue.
            conn.send(Ack(id=req.id))
            self._serve_record(conn, req, record)
            return
        try:
            job = self.broker.submit(req.system, req.problem, req.seed)
        except BrokerFull as exc:
            conn.send(ErrorFrame(id=req.id, message=f"busy: {exc}"))
            return
        except BrokerClosed as exc:
            conn.send(ErrorFrame(id=req.id, message=str(exc)))
            return
        conn.send(Ack(id=req.id))
        for kind, payload in job:
            if kind == "event":
                if req.stream and not conn.send(
                    EventFrame(id=req.id, event=payload)
                ):
                    return
            elif kind == "done":
                conn.send(
                    Done(
                        id=req.id,
                        source=payload.source,
                        passed=payload.passed,
                        score=payload.score,
                        seconds=payload.seconds,
                        system=payload.system,
                        cached=payload.solve_cached,
                    )
                )
            else:
                conn.send(ErrorFrame(id=req.id, message=payload))

    def _serve_record(
        self, conn: _Connection, req: SolveRequest, record
    ) -> None:
        sink = None
        if req.stream:
            sink = lambda event: conn.send(  # noqa: E731
                EventFrame(id=req.id, event=event)
            )
        try:
            result = serve_cached_record(
                req.system,
                req.problem,
                record,
                sink=sink,
                sim_cache=self.sim_cache,
            )
        except Exception as exc:  # noqa: BLE001 -- becomes an error frame
            self.stats.count("errors")
            conn.send(
                ErrorFrame(id=req.id, message=f"{type(exc).__name__}: {exc}")
            )
            return
        self.stats.count("cache_served")
        conn.send(
            Done(
                id=req.id,
                source=result.source,
                passed=result.passed,
                score=result.score,
                seconds=result.seconds,
                system=result.system,
                cached=True,
            )
        )

    # -- control (reader thread; all fast) -------------------------------

    def _handle_control(self, conn: _Connection, req: ControlRequest) -> bool:
        """Returns False when the connection should close."""
        if req.op == "ping":
            conn.send(Ack(id=req.id))
            return True
        if req.op == "stats":
            try:
                conn.send(StatsReply(id=req.id, stats=self.stats_snapshot()))
            except Exception as exc:  # noqa: BLE001 -- becomes an error frame
                conn.send(
                    ErrorFrame(id=req.id, message=f"{type(exc).__name__}: {exc}")
                )
            return True
        if req.op == "shutdown":
            conn.send(Ack(id=req.id))
            # Drain from a helper thread: shutdown() joins this reader.
            threading.Thread(
                target=self.shutdown, name="repro-service-drain", daemon=True
            ).start()
            return False
        conn.send(
            ErrorFrame(id=req.id, message=f"unknown control op {req.op!r}")
        )
        return True

    # -- introspection ---------------------------------------------------

    def executed_count(self) -> int:
        """Pipeline executions across the pool (cache verification)."""
        return self.stats.snapshot()["executed"]

    def stats_snapshot(self) -> dict:
        def cache_stats(cache):
            if cache is None:
                return None
            return {
                "entries": len(cache),
                "lookups": cache.stats.lookups,
                **dataclasses.asdict(cache.stats),
                "directory": cache.directory,
            }

        from repro.core.pipeline import STAGE_CLOCK
        from repro.llm.gateway.client import GATEWAY_STATS

        return {
            "address": self.address,
            "workers": len(self._workers),
            "pending": len(self.broker),
            "protocol": PROTOCOL_VERSION,
            "broker": self.broker.stats.snapshot(),
            "service": self.stats.snapshot(),
            "gateway": GATEWAY_STATS.snapshot(),
            "gateway_mode": (
                self.gateway.mode if self.gateway is not None else None
            ),
            "stages": STAGE_CLOCK.snapshot(),
            "caches": {
                "simulation": cache_stats(self.sim_cache),
                "solve_cell": cache_stats(self.solve_cache),
                "cassette": cache_stats(self.cassette()),
            },
        }

    def __enter__(self) -> "SolveServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
