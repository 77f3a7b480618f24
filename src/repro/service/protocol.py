"""Versioned, length-framed JSON wire format for the solve service.

One frame on the wire is a 4-byte big-endian payload length followed by
a UTF-8 JSON object.  Every payload carries ``"v"`` (the protocol
version) and ``"type"`` (which frame dataclass below it deserialises
to).  Three protocol generations share this framing:

- **v1** -- the original strictly client-driven conversation: one
  request on the wire at a time, replies in request order;
- **v2** -- v1 plus the cache-fabric frames (``CacheGet``/``CachePut``);
- **v3** -- multiplexing: every frame carries ``id`` (the request id),
  and a client may interleave any number of in-flight requests on one
  connection -- replies are matched by id, not by order.  v3 also adds
  the peer-discovery frames ``PeerHello``/``PeerList`` that servers use
  to form an elastic consistent-hash ring.

Readers accept any supported version and remember which one the peer
spoke, so a v3 server answers a legacy v1/v2 client in its own dialect
(legacy clients pipeline strictly one request at a time, which is a
degenerate -- and therefore automatically compatible -- multiplexing
schedule).  Unknown versions are rejected with a typed error.

The per-request conversation is unchanged across versions:

- ``SolveRequest``  -> :class:`Ack`, then zero or more
  :class:`EventFrame` (the run's typed event stream, live on a cold
  cell, replayed on a warm one), then exactly one :class:`Done` or
  :class:`ErrorFrame`;
- ``ControlRequest`` -> one :class:`StatsReply`, :class:`PeerList`
  (``peers``), :class:`Ack` (``ping``/``shutdown``), or
  :class:`ErrorFrame`;
- ``CacheGet``/``CachePut`` -> one :class:`CacheReply` -- the cache
  fabric's peer-sharing rungs: a
  :class:`~repro.runtime.cache.RemoteTier` probes or populates another
  server's cache layers (``layer`` routes to the simulation,
  solve-cell, or LLM-cassette cache; values travel as base64-pickled
  blobs, type-guarded on receipt exactly like the disk tier's files);
- ``PeerHello`` -> one :class:`PeerList` -- membership gossip: the
  sender advertises its own public address plus every member it knows,
  the receiver merges them into its directory and answers with its
  full member list.

Events cross the wire via
:meth:`repro.core.events.Event.to_json`/``from_json``, so the stream a
remote client sees is field-identical to a local run's -- the event
stream *is* the protocol, no transcript parsing.

Stream-end semantics are typed: a stream ending *between* frames is a
clean EOF (``read_frame`` returns None), while a stream ending *inside*
a frame raises :class:`PeerGone` -- the peer died or the connection was
severed mid-write.  ``PeerGone`` subclasses :class:`ProtocolError`, so
callers that only care about "the bytes were bad" keep working, while
gossip/ring paths can catch it specifically and skip the peer
instead of logging corruption.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, ClassVar

from repro.core.events import Event

#: The version this process speaks natively (stamped on outgoing frames
#: unless a reply deliberately echoes a legacy peer's version).
PROTOCOL_VERSION = 3

#: Versions this process can read.  v1/v2 peers predate multiplexing;
#: their frames are valid v3 frames with a degenerate (one-at-a-time)
#: schedule, so accepting them *is* the compat shim.
SUPPORTED_VERSIONS = frozenset({1, 2, 3})

#: Versions whose speakers must be answered in their own dialect.
LEGACY_VERSIONS = frozenset({1, 2})

# Generous ceiling: frames hold one JSON-encoded event or result, not
# bulk data.  Anything larger is a corrupt or hostile stream.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

# type tag -> concrete frame class; populated as subclasses are defined.
FRAME_TYPES: dict[str, type["Frame"]] = {}


class ProtocolError(Exception):
    """Malformed frame, version mismatch, or unknown frame type."""


class PeerGone(ProtocolError):
    """The peer vanished mid-frame (or refused the connection).

    Distinct from corrupt data: the bytes that did arrive were fine,
    the stream just ended inside a frame.  Ring and gossip paths catch
    this to mark the peer down and move on, rather than treating a
    crashed server as a protocol bug.
    """


@dataclass(frozen=True)
class Frame:
    """Base frame: ``type`` discriminates on the wire."""

    type: ClassVar[str] = "frame"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        FRAME_TYPES[cls.type] = cls

    def to_wire(self) -> dict:
        payload: dict[str, Any] = {"type": self.type}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "Frame":
        kwargs = {
            f.name: payload[f.name] for f in fields(cls) if f.name in payload
        }
        return cls(**kwargs)


@dataclass(frozen=True)
class SolveRequest(Frame):
    """Submit one solve cell: (registered system, problem id, seed).

    ``priority`` orders the broker's queue (higher runs sooner);
    ``stream`` asks for the per-run event frames (grid clients turn it
    off and read only the terminal frame).
    """

    type: ClassVar[str] = "request"
    id: int
    system: str
    problem: str
    seed: int = 0
    priority: int = 0
    stream: bool = True


@dataclass(frozen=True)
class ControlRequest(Frame):
    """Out-of-band server control: ``op`` is ping | stats | peers |
    shutdown."""

    type: ClassVar[str] = "control"
    id: int
    op: str


@dataclass(frozen=True)
class Ack(Frame):
    """The request was accepted (and how it will be served).

    ``dedup`` marks a submit that attached to an identical in-flight
    cell; ``cached`` marks one served straight from the solve-cell
    cache without touching a worker.
    """

    type: ClassVar[str] = "ack"
    id: int
    key: str = ""
    dedup: bool = False
    cached: bool = False


@dataclass(frozen=True)
class EventFrame(Frame):
    """One typed run event, exactly as a local sink would receive it."""

    type: ClassVar[str] = "event"
    id: int
    event: Event

    def to_wire(self) -> dict:
        return {"type": self.type, "id": self.id, "event": self.event.to_json()}

    @classmethod
    def from_wire(cls, payload: dict) -> "EventFrame":
        try:
            event = Event.from_json(payload["event"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad event frame: {exc}") from exc
        return cls(id=payload.get("id", 0), event=event)


@dataclass(frozen=True)
class Done(Frame):
    """Terminal frame of a solve: the scored result.

    ``cached`` records whether the solve-cell cache served the run;
    ``dedup`` whether this subscriber shared another client's
    execution.
    """

    type: ClassVar[str] = "done"
    id: int
    source: str
    passed: bool
    score: float
    seconds: float
    system: str = ""
    cached: bool = False
    dedup: bool = False


@dataclass(frozen=True)
class ErrorFrame(Frame):
    """Terminal frame of a failed request."""

    type: ClassVar[str] = "error"
    id: int
    message: str


@dataclass(frozen=True)
class CacheGet(Frame):
    """Probe a peer's cache fabric for one content-addressed key.

    ``layer`` picks the server-side cache (``sim`` | ``solve`` |
    ``llm``).  The
    peer answers from its local tiers only (memory + disk), never its
    own remote tiers, so mutually peered servers cannot loop.
    """

    type: ClassVar[str] = "cache_get"
    id: int
    layer: str
    key: str


@dataclass(frozen=True)
class CachePut(Frame):
    """Push one cache entry to a peer (gossip).

    ``blob`` is the base64-pickled value; the receiver type-guards it
    before storing, exactly like a disk-tier read.  Senders normally
    queue these on a write-behind gossip queue so a put never sits on
    the solve path.
    """

    type: ClassVar[str] = "cache_put"
    id: int
    layer: str
    key: str
    blob: str


@dataclass(frozen=True)
class CacheReply(Frame):
    """Answer to a cache frame: the blob (get) or a store ack (put)."""

    type: ClassVar[str] = "cache_reply"
    id: int
    found: bool = False
    stored: bool = False
    blob: str = ""


@dataclass(frozen=True)
class PeerHello(Frame):
    """Membership gossip: "I am ``address``, and I know ``peers``".

    Sent by a server to every ring member it knows (on ``--join``
    bootstrap and on each heartbeat tick).  The receiver merges the
    sender and its peer list into its own directory and answers with a
    :class:`PeerList` of everything *it* knows, so two partially
    informed servers converge in one exchange.
    """

    type: ClassVar[str] = "peer_hello"
    id: int
    address: str
    peers: tuple = ()


@dataclass(frozen=True)
class PeerList(Frame):
    """The responder's full membership view (its own address included).

    Also the answer to a client's ``peers`` control request, which is
    how ``eval --service`` pointed at any one ring member discovers the
    whole ring.
    """

    type: ClassVar[str] = "peer_list"
    id: int
    peers: tuple = ()


@dataclass(frozen=True)
class StatsReply(Frame):
    """Server-side metrics report: broker and worker counters, every
    cache layer's tier stats, gateway call/retry/fallback/token
    totals, and per-stage wall-clock."""

    type: ClassVar[str] = "stats"
    id: int
    stats: dict


def encode_frame(frame: Frame, version: int = PROTOCOL_VERSION) -> bytes:
    """Length-prefixed wire bytes for one frame.

    ``version`` stamps the payload -- servers pass the version the
    connection's client spoke so legacy peers get replies in their own
    dialect.
    """
    payload = frame.to_wire()
    payload["v"] = version
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({len(data)} bytes)")
    return _HEADER.pack(len(data)) + data


def decode_payload_versioned(data: bytes) -> tuple[Frame, int]:
    """Parse one frame payload; returns ``(frame, spoken version)``."""
    try:
        payload = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload is not an object")
    version = payload.get("v")
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or version not in SUPPORTED_VERSIONS
    ):
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"want one of {sorted(SUPPORTED_VERSIONS)}"
        )
    frame_cls = FRAME_TYPES.get(payload.get("type"))
    if frame_cls is None or frame_cls is Frame:
        raise ProtocolError(f"unknown frame type {payload.get('type')!r}")
    try:
        return frame_cls.from_wire(payload), version
    except TypeError as exc:
        raise ProtocolError(f"bad {frame_cls.type} frame: {exc}") from exc


def decode_payload(data: bytes) -> Frame:
    """Parse one frame payload (the bytes after the length header)."""
    frame, _ = decode_payload_versioned(data)
    return frame


def read_frame(stream: BinaryIO) -> Frame | None:
    """Read one frame; None on clean EOF at a frame boundary.

    Both the header and the body reads loop over short reads, so the
    framing survives raw (unbuffered) streams that deliver a frame in
    arbitrary fragments.  A stream ending *mid-frame* raises
    :class:`PeerGone` (the peer died or the link was severed); corrupt
    bytes raise plain :class:`ProtocolError`.  Neither hangs or returns
    a partial frame.
    """
    frame_and_version = read_frame_versioned(stream)
    if frame_and_version is None:
        return None
    return frame_and_version[0]


def read_frame_versioned(stream: BinaryIO) -> tuple[Frame, int] | None:
    """Like :func:`read_frame`, but also reports the spoken version."""
    header = b""
    while len(header) < _HEADER.size:
        chunk = stream.read(_HEADER.size - len(header))
        if not chunk:
            if not header:
                return None  # clean EOF at a frame boundary
            raise PeerGone("truncated frame header")
        header += chunk
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({length} bytes)")
    data = b""
    while len(data) < length:
        chunk = stream.read(length - len(data))
        if not chunk:
            raise PeerGone("truncated frame body")
        data += chunk
    return decode_payload_versioned(data)


def write_frame(
    stream: BinaryIO, frame: Frame, version: int = PROTOCOL_VERSION
) -> None:
    """Serialise and flush one frame."""
    stream.write(encode_frame(frame, version=version))
    stream.flush()


async def read_frame_async(reader) -> tuple[Frame, int] | None:
    """Async twin of :func:`read_frame_versioned` for asyncio streams.

    Returns ``(frame, spoken version)``, or None on clean EOF at a
    frame boundary; raises :class:`PeerGone` on EOF mid-frame and
    :class:`ProtocolError` on corrupt bytes, never hangs on a short
    read.
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise PeerGone("truncated frame header") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({length} bytes)")
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise PeerGone("truncated frame body") from exc
    return decode_payload_versioned(data)


async def write_frame_async(
    writer, frame: Frame, version: int = PROTOCOL_VERSION
) -> None:
    """Serialise one frame to an asyncio writer and drain it."""
    writer.write(encode_frame(frame, version=version))
    await writer.drain()
