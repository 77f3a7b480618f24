"""Length-framed JSON wire format for the solve service.

One frame on the wire is a 4-byte big-endian payload length followed by
a UTF-8 JSON object.  Every payload carries ``"v"`` (the protocol
version, :data:`PROTOCOL_VERSION`) and ``"type"`` (which frame
dataclass below it deserialises to).  Every frame also carries ``id``
(the request id): a client may interleave any number of in-flight
requests on one connection, and replies are matched by id, not by
order.  A frame stamped with any other version is refused with a typed
:class:`ProtocolError` -- every client lives in this repository, so
there is exactly one dialect.

The per-request conversation:

- ``SolveRequest`` (system, problem, seed, stream) -> :class:`Ack`
  (only the request id: the cell was accepted), then zero or more
  :class:`EventFrame` (the run's typed event stream, live on a cold
  cell, replayed on a warm one), then exactly one :class:`Done` (which
  says whether the solve-cell cache served it) or :class:`ErrorFrame`;
- ``ControlRequest`` -> one :class:`StatsReply` (``stats``),
  :class:`Ack` (``ping``/``shutdown``), or :class:`ErrorFrame`.

A malformed frame ends the connection: the server answers it with an
``ErrorFrame`` of id 0 (no request owns it) and closes.

Events cross the wire via
:meth:`repro.core.events.Event.to_json`/``from_json``, so the stream a
remote client sees is field-identical to a local run's -- the event
stream *is* the protocol, no transcript parsing.

Stream-end semantics are typed: a stream ending *between* frames is a
clean EOF (``read_frame`` returns None), while a stream ending *inside*
a frame raises :class:`PeerGone` -- the peer died or the connection was
severed mid-write.  ``PeerGone`` subclasses :class:`ProtocolError`, so
callers that only care about "the bytes were bad" keep working, while
the server can tell a vanished client from a corrupt one.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, fields
from typing import Any, BinaryIO, ClassVar

from repro.core.events import Event

#: The one version this process speaks, stamped on every frame and
#: required of every frame it reads.
PROTOCOL_VERSION = 4

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
    the stream just ended inside a frame.  The server and the client
    catch this to treat a crashed peer as a lost connection rather
    than a protocol bug.
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

    ``stream`` asks for the per-run event frames (grid clients turn it
    off and read only the terminal frame).
    """

    type: ClassVar[str] = "request"
    id: int
    system: str
    problem: str
    seed: int = 0
    stream: bool = True


@dataclass(frozen=True)
class ControlRequest(Frame):
    """Out-of-band server control: ``op`` is ping | stats | shutdown."""

    type: ClassVar[str] = "control"
    id: int
    op: str


@dataclass(frozen=True)
class Ack(Frame):
    """The request was accepted (a solve, ``ping`` or ``shutdown``)."""

    type: ClassVar[str] = "ack"
    id: int


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

    ``cached`` records whether the solve-cell cache served the run.
    """

    type: ClassVar[str] = "done"
    id: int
    source: str
    passed: bool
    score: float
    seconds: float
    system: str = ""
    cached: bool = False


@dataclass(frozen=True)
class ErrorFrame(Frame):
    """Terminal frame of a failed request."""

    type: ClassVar[str] = "error"
    id: int
    message: str


@dataclass(frozen=True)
class StatsReply(Frame):
    """Server-side metrics report: broker and worker counters, every
    cache layer's counters, gateway call/retry/fallback/token
    totals, and per-stage wall-clock."""

    type: ClassVar[str] = "stats"
    id: int
    stats: dict


def encode_frame(frame: Frame) -> bytes:
    """Length-prefixed wire bytes for one frame."""
    payload = frame.to_wire()
    payload["v"] = PROTOCOL_VERSION
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({len(data)} bytes)")
    return _HEADER.pack(len(data)) + data


def decode_payload_versioned(data: bytes) -> Frame:
    """Parse one frame payload (the bytes after the length header).

    The payload must be stamped with exactly :data:`PROTOCOL_VERSION`
    (an int, not a bool or float lookalike); anything else is refused
    with a :class:`ProtocolError`.
    """
    try:
        payload = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload is not an object")
    version = payload.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"want {PROTOCOL_VERSION}"
        )
    frame_cls = FRAME_TYPES.get(payload.get("type"))
    if frame_cls is None or frame_cls is Frame:
        raise ProtocolError(f"unknown frame type {payload.get('type')!r}")
    try:
        return frame_cls.from_wire(payload)
    except TypeError as exc:
        raise ProtocolError(f"bad {frame_cls.type} frame: {exc}") from exc


def read_frame(stream: BinaryIO) -> Frame | None:
    """Read one frame; None on clean EOF at a frame boundary.

    Both the header and the body reads loop over short reads, so the
    framing survives raw (unbuffered) streams that deliver a frame in
    arbitrary fragments.  A stream ending *mid-frame* raises
    :class:`PeerGone` (the peer died or the link was severed); corrupt
    bytes raise plain :class:`ProtocolError`.  Neither hangs or returns
    a partial frame.
    """
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


def write_frame(stream: BinaryIO, frame: Frame) -> None:
    """Serialise and flush one frame."""
    stream.write(encode_frame(frame))
    stream.flush()

