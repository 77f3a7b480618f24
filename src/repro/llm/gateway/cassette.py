"""Recorded-replay cassettes on the content-addressed caches.

A cassette entry is content-addressed by the *full request*: operation,
model, role, every message, and the sampling parameters -- plus an
ordinal so repeated identical requests (a high-temperature agent asked
the same thing twice) each keep their own completion.  ``record`` mode
writes entries after live calls; ``replay`` mode serves them with zero
network and raises :class:`CassetteMiss` on anything unrecorded, so a
replay run can never silently fall through to a provider.

The store is a :class:`~repro.runtime.cache.TieredCache`
(memory -> disk): every process pointed at one cassette directory
records into and replays from the same entries, each one JSON record
in the :data:`CASSETTE_RECORDS` codec.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from repro.llm.interface import ChatMessage, SamplingParams
from repro.runtime.cache import TieredCache, _digest
from repro.runtime.codec import Codec, dump_json, expect


class CassetteMiss(KeyError):
    """Replay asked for a request the cassette never recorded."""


@dataclass(frozen=True)
class CassetteRecord:
    """One recorded gateway exchange: completions plus the usage that
    was observed live, so replayed accounting events are bit-identical
    to the recording run's."""

    completions: tuple[str, ...]
    backend: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


def _encode_record(record: CassetteRecord) -> bytes:
    return dump_json(
        {
            "completions": record.completions,
            "backend": record.backend,
            "prompt_tokens": record.prompt_tokens,
            "completion_tokens": record.completion_tokens,
        }
    )


def _decode_record(body: bytes) -> CassetteRecord:
    fields = expect(json.loads(body), dict)
    return CassetteRecord(
        completions=tuple(
            expect(text, str) for text in expect(fields["completions"], list)
        ),
        backend=expect(fields["backend"], str),
        prompt_tokens=expect(fields["prompt_tokens"], int),
        completion_tokens=expect(fields["completion_tokens"], int),
    )


CASSETTE_RECORDS = Codec(
    "cassette", 1, CassetteRecord, _encode_record, _decode_record
)


class CassetteStore(TieredCache):
    """Cassette entries keyed by :func:`cassette_key`."""

    codec = CASSETTE_RECORDS
    layer = "llm"


def cassette_key(
    op: str,
    model: str,
    role: str,
    messages: list[ChatMessage],
    params: SamplingParams,
    ordinal: int,
) -> str:
    """Content hash of one gateway request.

    ``op`` separates ``complete`` from ``sample`` (same conversation,
    different return shape); the ordinal distinguishes the Nth repeat
    of an identical request, mirroring how a live stochastic backend
    would answer each repeat independently.
    """
    parts: list[str] = ["llm-cassette", op, model, role]
    for message in messages:
        parts.append(message.role)
        parts.append(message.content)
    parts.extend(
        (
            repr(params.temperature),
            repr(params.top_p),
            str(params.n),
            repr(params.seed),
            str(ordinal),
        )
    )
    return _digest(tuple(parts))


# Process-local store registry, mirroring the worker-side cache
# registries in :mod:`repro.runtime.workers`: every cell in a worker
# process that targets the same cassette directory shares one store
# (one in-memory LRU).
_STORES: dict = {}
_STORES_LOCK = threading.Lock()


def cassette_store(directory: str | None) -> CassetteStore:
    """The process-shared store for one cassette directory."""
    with _STORES_LOCK:
        store = _STORES.get(directory)
        if store is None:
            store = _STORES[directory] = CassetteStore(directory=directory)
        return store
