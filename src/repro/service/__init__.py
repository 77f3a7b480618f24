"""``repro.service``: a long-lived solve service over the event stream.

The one-shot :func:`~repro.runtime.batch.evaluate_many` model, turned
into a service: a localhost TCP :class:`SolveServer` owns a priority
:class:`Broker` (with backpressure and in-flight dedup), a pool of
long-lived :class:`~repro.service.worker.Worker` s -- each a broker
consumer thread driving one :class:`~repro.runtime.executor.WorkerProcess`,
the child a local ``--jobs N`` grid runs its cells on -- and both
content-addressed cache layers.
Clients speak a length-framed JSON protocol
(:mod:`repro.service.protocol`) whose event frames are the exact typed
events of :mod:`repro.core.events` -- the event stream is the wire
protocol.  :func:`solve_grid` runs the Eq. 7 ``problems x runs`` grid
through one server with a deterministic merge, bit-identical to local
serial evaluation; a server that dies mid-grid fails the grid with a
typed :class:`ServiceError`.  :class:`MultiplexedClient`
is the one client: any number of concurrent requests of every kind
over one connection.  Server and client are built alike, on threads: a
reader thread per connection parses frames, and every thread writes
whole frames under the connection's lock.

Servers share warm cells with each other, and with local evaluations,
through one cache directory: point them at the same
``REPRO_SOLVE_CACHE_DIR`` / ``REPRO_SIM_CACHE_DIR``.
"""

from repro.service.broker import (
    Broker,
    BrokerClosed,
    BrokerFull,
    BrokerStats,
    Job,
    Subscription,
)
from repro.service.client import (
    GridReport,
    MultiplexedClient,
    ServiceError,
    SolveOutcome,
    fetch_stats,
    parse_address,
    solve_grid,
    stop_server,
)
from repro.service.metrics import render_prometheus
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
    write_frame,
)
from repro.service.server import SolveServer
from repro.service.worker import (
    ServiceResult,
    ServiceStats,
    Worker,
    registered_fingerprint,
    registered_system_name,
    serve_cached_record,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Ack",
    "Broker",
    "BrokerClosed",
    "BrokerFull",
    "BrokerStats",
    "ControlRequest",
    "Done",
    "ErrorFrame",
    "EventFrame",
    "Frame",
    "GridReport",
    "Job",
    "MultiplexedClient",
    "PeerGone",
    "ProtocolError",
    "ServiceError",
    "ServiceResult",
    "ServiceStats",
    "SolveOutcome",
    "SolveRequest",
    "SolveServer",
    "StatsReply",
    "Subscription",
    "Worker",
    "encode_frame",
    "fetch_stats",
    "parse_address",
    "read_frame",
    "registered_fingerprint",
    "registered_system_name",
    "render_prometheus",
    "serve_cached_record",
    "solve_grid",
    "stop_server",
    "write_frame",
]
