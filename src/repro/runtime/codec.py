"""Versioned, checksummed record codecs for the caches' disk tier.

A disk entry is one frame line, ``<tag>/<version> <crc32 of the body>``,
then the body its :class:`Codec` wrote.  :meth:`Codec.loads` compares
the whole frame line before it decodes a byte of the body, so a
truncated, bit-flipped, foreign-layer or older-version entry is refused
by one comparison, and a decoder only ever parses bytes its own codec
wrote.  Decoders check every field's JSON type, so a well-framed entry
of the wrong shape fails too.  Every refusal raises ``ValueError``,
``KeyError`` or ``TypeError``, which :class:`~repro.runtime.cache.DiskTier`
counts as a ``corrupt`` miss.  Nothing here unpickles.

This module holds the framing and the :class:`~repro.tb.runner.TestReport`
codec of the simulation cache.  The solve-cell record codec sits beside
its record in :mod:`repro.runtime.cache`, and the cassette codec beside
its record in :mod:`repro.llm.gateway.cassette`.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Callable

from repro.hdl.values import LogicVec
from repro.tb.runner import CheckRecord, TestReport
from repro.tb.stimulus import TbStep, Testbench

NONE = type(None)


class CodecError(ValueError):
    """An entry that is not a whole, current record of the codec's type."""


class Codec:
    """One versioned on-disk format for one value type.

    ``encode`` turns a value into body bytes; ``decode`` turns body
    bytes back into an equal value, raising ``ValueError``/``KeyError``/
    ``TypeError`` on anything else.  Bump ``version`` whenever the body
    layout changes: entries of another version are then refused unread.
    """

    def __init__(
        self,
        tag: str,
        version: int,
        value_type: type,
        encode: Callable[[Any], bytes],
        decode: Callable[[bytes], Any],
    ):
        self.tag = tag
        self.version = version
        self.value_type = value_type
        self.encode = encode
        self.decode = decode
        self._prefix = f"{tag}/{version} ".encode()

    def _frame(self, body: bytes) -> bytes:
        return self._prefix + b"%08x" % zlib.crc32(body)

    def dumps(self, value: Any) -> bytes:
        if not isinstance(value, self.value_type):
            raise TypeError(
                f"the {self.tag} codec cannot encode {type(value).__name__}"
            )
        body = self.encode(value)
        return self._frame(body) + b"\n" + body

    def loads(self, data: bytes) -> Any:
        frame, _, body = data.partition(b"\n")
        if frame != self._frame(body):
            raise CodecError(f"not a whole {self.tag}/{self.version} entry")
        return self.decode(body)


def dump_json(value: Any) -> bytes:
    """Compact ASCII JSON (every string escapes, so any ``str`` encodes)."""
    return json.dumps(value, separators=(",", ":")).encode("ascii")


def expect(value: Any, *types: type) -> Any:
    """``value`` if its exact type is one of ``types`` (so a JSON ``true``
    is not an int), else ``TypeError``."""
    if type(value) not in types:
        raise TypeError(f"expected {types}, got {type(value).__name__}")
    return value


# ----------------------------------------------------------------------
# TestReport: the simulation cache's value.
# ----------------------------------------------------------------------


def _vec(vec: LogicVec) -> list:
    return [vec.width, vec.val, vec.xmask, vec.signed]


def _load_vec(item: Any) -> LogicVec:
    width, val, xmask, signed = expect(item, list)
    return LogicVec(
        expect(width, int),
        expect(val, int),
        expect(xmask, int),
        expect(signed, bool),
    )


def _load_ints(item: Any) -> dict[str, int]:
    return {name: expect(v, int) for name, v in expect(item, dict).items()}


def _load_names(item: Any) -> tuple[str, ...]:
    return tuple(expect(name, str) for name in expect(item, list))


def _encode_report(report: TestReport) -> bytes:
    tb = report.testbench
    return dump_json(
        {
            "testbench": {
                "kind": tb.kind,
                "inputs": tb.inputs,
                "outputs": tb.outputs,
                "steps": [
                    [step.inputs, {name: _vec(v) for name, v in step.checks.items()}]
                    for step in tb.steps
                ],
                "clock": tb.clock,
                "name": tb.name,
            },
            "records": [
                [
                    r.step,
                    r.time,
                    r.signal,
                    _vec(r.expected),
                    _vec(r.actual),
                    r.ok,
                    r.inputs,
                ]
                for r in report.records
            ],
            "error": report.error,
        }
    )


def _load_step(item: Any) -> TbStep:
    inputs, checks = expect(item, list)
    return TbStep(
        inputs=_load_ints(inputs),
        checks={name: _load_vec(v) for name, v in expect(checks, dict).items()},
    )


def _load_check(item: Any) -> CheckRecord:
    step, time, signal, expected, actual, ok, inputs = expect(item, list)
    return CheckRecord(
        step=expect(step, int),
        time=expect(time, int),
        signal=expect(signal, str),
        expected=_load_vec(expected),
        actual=_load_vec(actual),
        ok=expect(ok, bool),
        inputs=_load_ints(inputs),
    )


def _decode_report(body: bytes) -> TestReport:
    payload = expect(json.loads(body), dict)
    tb = expect(payload["testbench"], dict)
    testbench = Testbench(
        kind=expect(tb["kind"], str),
        inputs=_load_names(tb["inputs"]),
        outputs=_load_names(tb["outputs"]),
        steps=tuple(_load_step(step) for step in expect(tb["steps"], list)),
        clock=expect(tb["clock"], str, NONE),
        name=expect(tb["name"], str),
    )
    return TestReport(
        testbench=testbench,
        records=[_load_check(item) for item in expect(payload["records"], list)],
        error=expect(payload["error"], str, NONE),
    )


TEST_REPORTS = Codec("test-report", 1, TestReport, _encode_report, _decode_report)
