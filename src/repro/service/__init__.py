"""``repro.service``: a long-lived solve service over the event stream.

The one-shot :func:`~repro.runtime.batch.evaluate_many` model, turned
into a service: a localhost TCP :class:`SolveServer` owns a priority
:class:`Broker` (with backpressure and in-flight dedup), a pool of
long-lived :class:`~repro.service.worker.Worker` threads running the
existing staged pipeline, and both content-addressed cache layers.
Clients speak a length-framed JSON protocol
(:mod:`repro.service.protocol`) whose event frames are the exact typed
events of :mod:`repro.core.events` -- the event stream is the wire
protocol.  :func:`solve_grid` shards the Eq. 7 ``problems x runs`` grid
across servers with a deterministic merge, bit-identical to local
serial evaluation.

Servers are also cache peers: ``CacheGet``/``CachePut`` frames let a
:class:`~repro.runtime.cache.RemoteTier` read and populate another
server's cache layers, so warm solve cells and simulation reports
travel the peer ring instead of being recomputed (the serving ladder's
peer-replay rung).

The peer ring is *elastic*: servers discover each other over
``PeerHello``/``PeerList`` frames (``serve --join ADDR`` bootstraps a
new member from any existing one), agree on membership through a
heartbeat gossip loop, and place work and cache entries on a
consistent-hash :class:`~repro.service.ring.HashRing` -- so
``solve_grid(ring=True)`` and the cache fabric's remote tiers send each
cell to the same member, and a member dying mid-sweep only moves its
own share of the keyspace.  :class:`MultiplexedClient` is the one
client: any number of concurrent requests of every kind over one
connection.
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
    fetch_peers,
    fetch_stats,
    hello_peer,
    parse_address,
    parse_shards,
    solve_grid,
    stop_server,
)
from repro.service.metrics import render_prometheus
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Ack,
    CacheGet,
    CachePut,
    CacheReply,
    ControlRequest,
    Done,
    ErrorFrame,
    EventFrame,
    Frame,
    PeerGone,
    PeerHello,
    PeerList,
    ProtocolError,
    SolveRequest,
    StatsReply,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.ring import HashRing, PeerDirectory, ring_key
from repro.service.server import SolveServer
from repro.service.worker import (
    ServiceResult,
    ServiceStats,
    Worker,
    registered_fingerprint,
    registered_system_name,
    serve_cached_record,
    solve_service_request,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Ack",
    "Broker",
    "BrokerClosed",
    "BrokerFull",
    "BrokerStats",
    "CacheGet",
    "CachePut",
    "CacheReply",
    "ControlRequest",
    "Done",
    "ErrorFrame",
    "EventFrame",
    "Frame",
    "GridReport",
    "HashRing",
    "Job",
    "MultiplexedClient",
    "PeerDirectory",
    "PeerGone",
    "PeerHello",
    "PeerList",
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
    "fetch_peers",
    "fetch_stats",
    "hello_peer",
    "parse_address",
    "parse_shards",
    "read_frame",
    "registered_fingerprint",
    "registered_system_name",
    "render_prometheus",
    "ring_key",
    "serve_cached_record",
    "solve_grid",
    "solve_service_request",
    "stop_server",
    "write_frame",
]
