"""Asyncio TCP solve server: multiplexed connections over one event loop.

:class:`SolveServer` binds a localhost TCP socket and serves every
client connection on a single asyncio event loop: one reader coroutine
and one writer task per connection, with each *request* dispatched to a
thread pool.  Frames carry request ids, so any number of requests can
be in flight on one connection and their reply streams interleave
frame-by-frame -- a :class:`~repro.service.client.MultiplexedClient`
runs a whole grid over one socket.  A malformed frame (bad
bytes, wrong protocol version) is answered with an id-0 ``ErrorFrame``
naming the problem, then the connection closes.

Requests route through a shared :class:`~repro.service.broker.Broker`
into a pool of long-lived :class:`~repro.service.worker.Worker` s, each
a broker consumer thread driving one child process, so ``--workers N``
solves on N processes.  Both cache layers live in the server process
(workers store what their children solve), so the layered serving
ladder is:

1. **solve-cell cache hit** -- served inline by the request's handler
   thread (events replayed, scoring via the simulation cache); no
   worker is touched and no queue slot is consumed;
2. **in-flight dedup** -- an identical queued/running cell adopts the
   new subscriber; one execution, n streams;
3. **cold cell** -- queued by priority, executed by the next free
   worker, and stored in both caches on the way out.

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

import asyncio
import concurrent.futures
import dataclasses
import socket
import threading
import time

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
    read_frame_async,
)
from repro.service.worker import (
    ServiceStats,
    Worker,
    serve_cached_record,
    service_cell_key,
)


class _Connection:
    """One client connection on the event loop.

    The reader coroutine (``run``) parses frames and dispatches each
    request; a dedicated writer task drains ``_outbox`` so that frames
    enqueued by concurrent handler threads interleave at frame
    granularity and per-request order is preserved (each handler
    enqueues its own frames sequentially).  ``send`` is the only
    cross-thread entry point: it marshals onto the loop with
    ``call_soon_threadsafe``.
    """

    def __init__(self, service: "SolveServer", reader, writer):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.loop = asyncio.get_running_loop()
        self._outbox: asyncio.Queue = asyncio.Queue()
        self._tasks: set = set()
        self._closed = False

    # -- cross-thread send ---------------------------------------------

    def send(self, frame: Frame) -> bool:
        """Enqueue one frame from any thread; False once the client is
        known to be gone (handlers use this to stop streaming)."""
        if self._closed:
            return False
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self.loop:
            # Already on the loop (control handlers): enqueue now,
            # so the reader's close sentinel can never overtake a reply
            # that was sent before it.
            self._enqueue(frame)
            return not self._closed
        try:
            self.loop.call_soon_threadsafe(self._enqueue, frame)
        except RuntimeError:
            return False  # loop already closed (server killed)
        return not self._closed

    def _enqueue(self, frame: Frame | None) -> None:
        if not self._closed or frame is None:
            self._outbox.put_nowait(frame)

    # -- loop-side machinery -------------------------------------------

    async def _write_loop(self) -> None:
        while True:
            frame = await self._outbox.get()
            if frame is None:
                return
            try:
                data = encode_frame(frame)
            except ProtocolError as exc:
                # The frame itself is unsendable (e.g. a payload past
                # the frame ceiling); tell the client with a typed error
                # rather than dropping the connection silently.
                data = encode_frame(
                    ErrorFrame(
                        id=getattr(frame, "id", 0),
                        message=f"unsendable reply: {exc}",
                    )
                )
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self._closed = True
                return

    async def run(self) -> None:
        writer_task = asyncio.create_task(self._write_loop())
        try:
            while True:
                try:
                    frame = await read_frame_async(self.reader)
                except PeerGone:
                    break  # client died mid-frame
                except ProtocolError as exc:
                    self._enqueue(ErrorFrame(id=0, message=str(exc)))
                    break
                if frame is None:
                    break  # clean EOF
                if not self._dispatch(frame):
                    break  # shutdown request: close after the ack
        finally:
            # Let in-flight handlers publish their terminal frames, then
            # flush the outbox and close.
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            self._enqueue(None)
            await writer_task
            self._closed = True
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def abort(self) -> None:
        """Sever the transport immediately (the kill path)."""
        self._closed = True
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    def _dispatch(self, frame: Frame) -> bool:
        """Route one frame; False closes the connection (shutdown)."""
        service = self.service
        if isinstance(frame, ControlRequest):
            return service._handle_control(self, frame)
        if not isinstance(frame, SolveRequest):
            self._enqueue(
                ErrorFrame(
                    id=getattr(frame, "id", 0),
                    message=f"unexpected frame type {frame.type!r}",
                )
            )
            return True
        # Each request runs on its own pool thread: a streaming solve
        # can wait minutes on the broker while pings, stats, and other
        # solves keep flowing on this same connection.
        task = self.loop.run_in_executor(
            service._pool, service._handle_solve, self, frame
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
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
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._async_server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._loop_ready = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._active_solves = 0
        self._idle = threading.Condition()

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
        cold submit therefore counts a broker-side miss in addition to
        the worker's own lookup -- the worker lookup stays, because a
        dedup-raced store may have landed by the time the job runs.
        """
        if self.solve_cache is None:
            return None
        key = service_cell_key(system, problem_id, seed, self.gateway)
        return None if key is None else self.solve_cache.get(key)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SolveServer":
        for worker in self._workers:
            worker.start()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-service-loop", daemon=True
        )
        self._loop_thread.start()
        self._loop_ready.wait()
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            self._listen_sock.setblocking(False)
            self._async_server = await asyncio.start_server(
                self._serve_connection, sock=self._listen_sock
            )

        try:
            loop.run_until_complete(boot())
        finally:
            self._loop_ready.set()
        try:
            loop.run_forever()
        finally:
            # Drain cancellations and close whatever is still open.
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            except Exception:  # noqa: BLE001 -- best-effort teardown
                pass
            loop.close()

    async def _serve_connection(self, reader, writer) -> None:
        # asyncio sets TCP_NODELAY only when the listening socket's proto
        # is IPPROTO_TCP, and ours is 0: without this, Nagle holds each
        # Done written right after an Ack for the client's delayed ACK.
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        try:
            await conn.run()
        except asyncio.CancelledError:
            # kill() cancels connection tasks; asyncio's stream-server
            # done-callback calls task.exception(), which would re-raise
            # the cancellation as a logged callback error.
            conn.abort()
        finally:
            self._connections.discard(conn)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has shut down."""
        return self._stopped.wait(timeout=timeout)

    def _solve_started(self) -> None:
        with self._idle:
            self._active_solves += 1

    def _solve_finished(self) -> None:
        with self._idle:
            self._active_solves -= 1
            self._idle.notify_all()

    def _call_in_loop(self, coro, timeout: float | None = 10.0):
        """Run one coroutine on the loop thread from outside it."""
        if self._loop is None:
            coro.close()
            return None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout=timeout)
        except (concurrent.futures.TimeoutError, RuntimeError):
            return None

    async def _close_listener(self) -> None:
        if self._async_server is not None:
            self._async_server.close()
            try:
                await self._async_server.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _close_connections(self, abort: bool) -> None:
        for conn in list(self._connections):
            if abort:
                conn.abort()
            else:
                conn._closed = True
                try:
                    conn.writer.close()
                except (ConnectionError, OSError):
                    pass

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
            if self._loop is None:
                # Never started: just release the port.
                self._listen_sock.close()
                self._stopped.set()
                return
            self._call_in_loop(self._close_listener())
            self.broker.close()  # queued jobs still drain to workers
            for worker in self._workers:
                worker.join()
            deadline = time.monotonic() + handler_grace
            with self._idle:
                while self._active_solves > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._idle.wait(
                        timeout=remaining
                    ):
                        break
            self._call_in_loop(self._close_connections(abort=False))
            self._stop_loop()
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
            if self._loop is not None:
                self._call_in_loop(self._close_listener(), timeout=2.0)
                self._call_in_loop(
                    self._close_connections(abort=True), timeout=2.0
                )
                self._stop_loop()
            else:
                self._listen_sock.close()
            # After the connections are severed, as with a real SIGKILL:
            # no client hears about the jobs this fails.
            for worker in self._workers:
                worker.halt()
            for worker in self._workers:
                if worker.ident is not None:
                    worker.join(timeout=10.0)
            self._pool.shutdown(wait=False)
            self._stopped.set()

    def _stop_loop(self) -> None:
        loop, thread = self._loop, self._loop_thread
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:
            pass
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    # -- request handlers (pool threads) --------------------------------

    def _handle_solve(self, conn: _Connection, req: SolveRequest) -> None:
        # Tracked so shutdown() can wait for the terminal frame of
        # every accepted solve to hit the wire.
        self._solve_started()
        try:
            self._solve_request(conn, req)
        except Exception as exc:  # noqa: BLE001 -- keep the loop alive
            self.stats.count("errors")
            conn.send(
                ErrorFrame(id=req.id, message=f"{type(exc).__name__}: {exc}")
            )
        finally:
            self._solve_finished()

    def _solve_request(self, conn: _Connection, req: SolveRequest) -> None:
        key = f"{req.system}/{req.problem}/{req.seed}"
        record = self.fetch_cached(req.system, req.problem, req.seed)
        if record is not None:
            # Warm path: serve inline from the already-fetched record;
            # the worker pool and queue are never touched.  A record
            # evicted between probe and fetch simply lands on the cold
            # path below, so an inline solve can never execute a
            # pipeline outside the broker's queue and dedup.
            conn.send(Ack(id=req.id, key=key, cached=True))
            self._serve_record(conn, req, record)
            return
        try:
            job, sub, deduped = self.broker.submit(
                req.system, req.problem, req.seed, priority=req.priority
            )
        except BrokerFull as exc:
            conn.send(ErrorFrame(id=req.id, message=f"busy: {exc}"))
            return
        except BrokerClosed as exc:
            conn.send(ErrorFrame(id=req.id, message=str(exc)))
            return
        conn.send(Ack(id=req.id, key=key, dedup=deduped))
        for kind, payload in sub:
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
                        dedup=deduped,
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

    # -- control (loop thread; all fast) ---------------------------------

    def _handle_control(self, conn: _Connection, req: ControlRequest) -> bool:
        """Returns False when the connection should close."""
        if req.op == "ping":
            conn.send(Ack(id=req.id))
            return True
        if req.op == "stats":
            # Snapshotting walks worker and cache locks: off the loop.
            task = conn.loop.run_in_executor(
                self._pool, self._send_stats, conn, req.id
            )
            conn._tasks.add(task)
            task.add_done_callback(conn._tasks.discard)
            return True
        if req.op == "shutdown":
            conn.send(Ack(id=req.id))
            # Drain from a helper thread: shutdown() joins the loop and
            # the workers, which must not happen on the loop thread.
            threading.Thread(
                target=self.shutdown, name="repro-service-drain", daemon=True
            ).start()
            return False
        conn.send(
            ErrorFrame(id=req.id, message=f"unknown control op {req.op!r}")
        )
        return True

    def _send_stats(self, conn: _Connection, request_id: int) -> None:
        try:
            conn.send(StatsReply(id=request_id, stats=self.stats_snapshot()))
        except Exception as exc:  # noqa: BLE001 -- keep the loop alive
            conn.send(
                ErrorFrame(
                    id=request_id,
                    message=f"{type(exc).__name__}: {exc}",
                )
            )

    # -- introspection ---------------------------------------------------

    def executed_count(self) -> int:
        """Pipeline executions across the pool (dedup/cache verification)."""
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
