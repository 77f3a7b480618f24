"""Property-based tests for the wire protocol framing.

Seeded-random generation (no hypothesis dependency in the image) over
three axes the unit tests cannot sweep by hand:

- arbitrary payload sizes, from empty strings to frames near the size
  ceiling;
- arbitrary read fragmentation: a frame split into random chunks (or
  many frames coalesced into one buffer) must parse identically to a
  single contiguous read;
- arbitrary truncation and corruption: every prefix cut must raise
  :class:`ProtocolError` (or report clean EOF) -- never hang, never
  return a half-frame.
"""

import io
import random

import pytest

from repro.core.events import (
    CandidateScored,
    CellFinished,
    DebugRound,
    RunFinished,
    RunStarted,
    SamplingSummary,
    StageFinished,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
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
)


class ChunkedStream(io.RawIOBase):
    """A stream that serves reads in pre-cut fragments.

    ``read(n)`` returns at most the next fragment (and never more than
    ``n`` bytes), modelling a TCP socket delivering a frame in
    arbitrary pieces.
    """

    def __init__(self, data: bytes, cuts: list[int]):
        self.fragments = []
        last = 0
        for cut in sorted(set(cuts)):
            if 0 < cut < len(data):
                self.fragments.append(data[last:cut])
                last = cut
        self.fragments.append(data[last:])
        self.fragments = [f for f in self.fragments if f]

    def read(self, n: int = -1) -> bytes:
        if not self.fragments:
            return b""
        fragment = self.fragments[0]
        if n is None or n < 0 or n >= len(fragment):
            self.fragments.pop(0)
            return fragment
        self.fragments[0] = fragment[n:]
        return fragment[:n]


def _random_text(rng: random.Random, max_len: int) -> str:
    length = rng.choice([0, 1, rng.randint(2, max_len)])
    return "".join(
        rng.choice("abcdefghijklmnop qrstuvwxyz\n\"'\\{}[]0123456789\u00e9\u2603")
        for _ in range(length)
    )


def _random_frame(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return SolveRequest(
            id=rng.randrange(1 << 31),
            system=_random_text(rng, 40),
            problem=_random_text(rng, 40),
            seed=rng.randrange(1 << 16),
            stream=rng.random() < 0.5,
        )
    if kind == 1:
        return ControlRequest(id=rng.randrange(1 << 31), op=_random_text(rng, 12))
    if kind == 2:
        return Ack(id=rng.randrange(1 << 31))
    if kind == 3:
        return Done(
            id=rng.randrange(1 << 31),
            source=_random_text(rng, 5000),
            passed=rng.random() < 0.5,
            score=rng.random(),
            seconds=rng.random() * 100,
            system=_random_text(rng, 30),
            cached=rng.random() < 0.5,
        )
    if kind == 4:
        return ErrorFrame(
            id=rng.randrange(1 << 31), message=_random_text(rng, 2000)
        )
    if kind == 5:
        return StatsReply(
            id=rng.randrange(1 << 31),
            stats={
                _random_text(rng, 8) or "k": rng.randrange(1 << 20)
                for _ in range(rng.randrange(6))
            },
        )
    event = rng.choice(
        [
            RunStarted(
                system=_random_text(rng, 30),
                task_name=_random_text(rng, 30),
                seed=rng.randrange(1 << 16),
            ),
            StageFinished(
                stage=_random_text(rng, 10),
                index=rng.randrange(10),
                seconds=rng.random(),
                llm_calls=rng.randrange(50),
            ),
            CandidateScored(
                origin=_random_text(rng, 10),
                score=rng.random(),
                passed=rng.random() < 0.5,
                index=rng.randrange(20),
            ),
            SamplingSummary(
                pool_scores=tuple(
                    rng.random() for _ in range(rng.randrange(8))
                ),
                selected_scores=tuple(
                    rng.random() for _ in range(rng.randrange(4))
                ),
            ),
            DebugRound(
                round_index=rng.randrange(10),
                scores=tuple(rng.random() for _ in range(rng.randrange(6))),
            ),
            RunFinished(
                score=rng.random(),
                passed=rng.random() < 0.5,
                llm_calls=rng.randrange(100),
                seconds=rng.random() * 10,
            ),
            CellFinished(
                problem_id=_random_text(rng, 20),
                run_index=rng.randrange(8),
                passed=rng.random() < 0.5,
                score=rng.random(),
                seconds=rng.random(),
                solve_cached=rng.random() < 0.5,
            ),
        ]
    )
    return EventFrame(id=rng.randrange(1 << 31), event=event)


class TestFramingProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_split_reads_parse_identically(self, seed):
        """A frame fragmented at arbitrary byte positions must decode to
        exactly the frame a contiguous read yields."""
        rng = random.Random(seed)
        frame = _random_frame(rng)
        wire = encode_frame(frame)
        cuts = [rng.randrange(1, max(2, len(wire))) for _ in range(rng.randrange(8))]
        decoded = read_frame(ChunkedStream(wire, cuts))
        assert decoded == frame
        assert read_frame(io.BytesIO(wire)) == frame

    @pytest.mark.parametrize("seed", range(10))
    def test_coalesced_frames_parse_in_order(self, seed):
        """Many frames packed into one buffer come back one by one, then
        a clean EOF (None), regardless of fragmentation."""
        rng = random.Random(1000 + seed)
        frames = [_random_frame(rng) for _ in range(rng.randint(2, 12))]
        wire = b"".join(encode_frame(f) for f in frames)
        cuts = [rng.randrange(1, len(wire)) for _ in range(rng.randrange(20))]
        stream = ChunkedStream(wire, cuts)
        for frame in frames:
            assert read_frame(stream) == frame
        assert read_frame(stream) is None

    @pytest.mark.parametrize("seed", range(20))
    def test_truncated_frames_raise_not_hang(self, seed):
        """Every strict prefix of a frame either raises ProtocolError or
        is a clean EOF (empty prefix) -- no other outcome exists."""
        rng = random.Random(2000 + seed)
        wire = encode_frame(_random_frame(rng))
        for cut in sorted({0, 1, 3, len(wire) // 2, len(wire) - 1}):
            prefix = wire[:cut]
            stream = io.BytesIO(prefix)
            if cut == 0:
                assert read_frame(stream) is None
            else:
                with pytest.raises(ProtocolError):
                    read_frame(stream)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_garbage_never_yields_a_frame(self, seed):
        """Random bytes must produce ProtocolError or clean EOF, never a
        silently-wrong frame and never an unbounded read."""
        rng = random.Random(3000 + seed)
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
        stream = io.BytesIO(junk)
        try:
            frame = read_frame(stream)
        except ProtocolError:
            return
        assert frame is None  # only possible for a clean EOF at byte 0

    def test_declared_length_past_ceiling_rejected_before_reading(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="too large"):
            read_frame(io.BytesIO(header + b"x" * 16))

    def test_oversized_payload_rejected_at_encode_time(self, monkeypatch):
        import repro.service.protocol as protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(ProtocolError, match="too large"):
            encode_frame(ErrorFrame(id=1, message="y" * 256))

    @pytest.mark.parametrize("seed", range(5))
    def test_large_payloads_round_trip(self, seed):
        rng = random.Random(4000 + seed)
        frame = Done(
            id=7,
            source="x" * rng.randrange(100_000, 400_000),
            passed=True,
            score=1.0,
            seconds=0.5,
        )
        wire = encode_frame(frame)
        cuts = [rng.randrange(1, len(wire)) for _ in range(5)]
        assert read_frame(ChunkedStream(wire, cuts)) == frame
