"""Wire protocol: framing, versioning, and frame round-trips."""

import io
import json
import struct

import pytest

from repro.core.events import RunFinished, TestbenchReady
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Ack,
    ControlRequest,
    Done,
    ErrorFrame,
    EventFrame,
    ProtocolError,
    SolveRequest,
    StatsReply,
    encode_frame,
    read_frame,
    write_frame,
)

FRAMES = [
    SolveRequest(id=1, system="mage", problem="cb_mux2", seed=3),
    SolveRequest(id=2, system="mage", problem="cb_mux2", stream=False),
    ControlRequest(id=3, op="stats"),
    Ack(id=4),
    ControlRequest(id=5, op="ping"),
    EventFrame(id=6, event=TestbenchReady(total_checks=4, regen_index=1)),
    EventFrame(
        id=7,
        event=RunFinished(score=0.875, passed=False, llm_calls=9, seconds=1.5),
    ),
    Done(
        id=8,
        source="module m; endmodule",
        passed=True,
        score=1.0,
        seconds=0.25,
        system="mage[x]",
        cached=True,
    ),
    ErrorFrame(id=9, message="busy: queue full"),
    StatsReply(id=10, stats={"broker": {"submitted": 2}}),
]


class TestFraming:
    @pytest.mark.parametrize(
        "frame", FRAMES, ids=[type(f).__name__ + str(f.id) for f in FRAMES]
    )
    def test_round_trip(self, frame):
        stream = io.BytesIO(encode_frame(frame))
        assert read_frame(stream) == frame
        assert read_frame(stream) is None  # clean EOF after one frame

    def test_write_then_read_many(self):
        buffer = io.BytesIO()
        for frame in FRAMES:
            write_frame(buffer, frame)
        buffer.seek(0)
        assert [read_frame(buffer) for _ in FRAMES] == FRAMES

    def test_frames_are_versioned(self):
        data = encode_frame(Ack(id=1))
        payload = json.loads(data[4:].decode())
        assert payload["v"] == PROTOCOL_VERSION

    def test_version_mismatch_rejected(self):
        payload = Ack(id=1).to_wire()
        payload["v"] = PROTOCOL_VERSION + 1
        data = json.dumps(payload).encode()
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="version mismatch"):
            read_frame(stream)

    def test_frames_carry_only_the_v4_fields(self):
        """The retired broker fields (request priority, the ack's key,
        dedup and cached flags, the done's dedup flag) are gone."""
        request = SolveRequest(id=1, system="mage", problem="p").to_wire()
        assert set(request) == {
            "type", "id", "system", "problem", "seed", "stream",
        }
        assert set(Ack(id=1).to_wire()) == {"type", "id"}
        done = Done(id=1, source="", passed=True, score=1.0, seconds=0.0)
        assert set(done.to_wire()) == {
            "type", "id", "source", "passed", "score", "seconds", "system",
            "cached",
        }

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "ack", "id": 1, "key": "k", "dedup": True},
            {
                "type": "request",
                "id": 2,
                "system": "mage",
                "problem": "cb_mux2",
                "seed": 0,
                "priority": 5,
                "stream": True,
            },
        ],
        ids=["ack", "request"],
    )
    def test_v3_frame_rejected(self, payload):
        """A frame in the v3 dialect, priority and dedup fields and all,
        is refused by version before its fields are read."""
        assert PROTOCOL_VERSION == 4
        data = json.dumps({**payload, "v": 3}).encode()
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="version mismatch: got 3"):
            read_frame(stream)

    def test_unversioned_frame_rejected(self):
        data = json.dumps({"type": "ack", "id": 1}).encode()
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="version mismatch"):
            read_frame(stream)

    def test_unknown_frame_type_rejected(self):
        data = json.dumps({"type": "warp", "v": PROTOCOL_VERSION}).encode()
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="unknown frame type"):
            read_frame(stream)

    @pytest.mark.parametrize(
        "frame_type",
        [
            "wave_steal",
            "wave_tasks",
            "cache_get",
            "cache_put",
            "cache_reply",
            "peer_hello",
            "peer_list",
        ],
    )
    def test_work_stealing_frames_are_unknown(self, frame_type):
        """No frame carries pickled work or cache values from a peer, or
        ring membership: the former work-stealing, peer-cache and ring
        frames decode as unknown types."""
        data = json.dumps(
            {"type": frame_type, "id": 1, "v": PROTOCOL_VERSION, "items": []}
        ).encode()
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="unknown frame type"):
            read_frame(stream)

    def test_bad_event_payload_rejected(self):
        data = json.dumps(
            {
                "type": "event",
                "id": 1,
                "v": PROTOCOL_VERSION,
                "event": {"kind": "no-such-kind"},
            }
        ).encode()
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="bad event frame"):
            read_frame(stream)

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated frame header"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_body(self):
        data = encode_frame(Ack(id=1))
        with pytest.raises(ProtocolError, match="truncated frame body"):
            read_frame(io.BytesIO(data[:-3]))

    def test_oversize_length_rejected(self):
        stream = io.BytesIO(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(ProtocolError, match="frame too large"):
            read_frame(stream)

    def test_non_json_payload_rejected(self):
        data = b"not json at all"
        stream = io.BytesIO(struct.pack(">I", len(data)) + data)
        with pytest.raises(ProtocolError, match="bad frame payload"):
            read_frame(stream)

    def test_event_frame_carries_typed_event(self):
        frame = EventFrame(id=1, event=TestbenchReady(total_checks=7))
        rebuilt = read_frame(io.BytesIO(encode_frame(frame)))
        assert isinstance(rebuilt.event, TestbenchReady)
        assert rebuilt.event.total_checks == 7
