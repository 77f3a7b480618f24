"""The gateway client: retry, fallback, rate limiting, record/replay.

:class:`Gateway` implements :class:`~repro.llm.interface.LLMClient`, so
agents cannot tell it from a direct provider.  Around each call it adds
the operational layer a real multi-provider deployment needs:

- a fallback chain of :mod:`~repro.llm.gateway.backends`, each tried
  with bounded retries and exponential backoff before falling over;
- a shared token-bucket limiter metering outbound backend calls;
- per-call accounting (token usage, deterministic cost) emitted as
  :class:`~repro.core.events.GatewayCall` events into whichever run's
  stream is ambient, and aggregated process-wide in
  :data:`GATEWAY_STATS` for the service ``StatsReply``;
- cassette record/replay through
  :mod:`~repro.llm.gateway.cassette` -- ``record`` stores every live
  exchange, ``replay`` serves only from the store and raises
  :class:`CassetteMiss` otherwise.

Determinism: a gateway over the ``sim`` backend is bit-identical to the
bare :class:`~repro.llm.simllm.SimLLM` (the backend delegates without
touching the client's RNG state), and a ``replay`` run re-emits the
recording run's completions *and accounting events* exactly.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.core.events import GatewayCall, emit_ambient
from repro.llm.gateway.backends import (
    BackendError,
    BackendResult,
    GatewayBackend,
    TransientBackendError,
    build_backend,
)
from repro.llm.gateway.cassette import (
    CassetteMiss,
    CassetteRecord,
    CassetteStore,
    cassette_key,
    cassette_store,
)
from repro.llm.gateway.limiter import TokenBucket
from repro.llm.gateway.settings import GatewaySettings
from repro.llm.genome import GenomeRegistry
from repro.llm.interface import ChatMessage, LLMClient, SamplingParams
from repro.llm.simllm import SimLLM


class GatewayExhausted(RuntimeError):
    """Every backend in the chain failed transiently, retries included."""


# USD per 1k tokens (prompt, completion), longest-prefix matched on the
# model name.  The table exists so cost accounting is *deterministic* --
# record and replay compute the identical figure -- not to be current.
_PRICES: dict[str, tuple[float, float]] = {
    "gpt-4o-mini": (0.00015, 0.0006),
    "gpt-4o": (0.0025, 0.01),
    "claude-3.5-sonnet": (0.003, 0.015),
    "claude-3-haiku": (0.00025, 0.00125),
    "claude-3-opus": (0.015, 0.075),
}


def model_cost(model: str, prompt_tokens: int, completion_tokens: int) -> float:
    """Deterministic cost of one exchange (0.0 for unpriced models)."""
    for prefix in sorted(_PRICES, key=len, reverse=True):
        if model.startswith(prefix):
            prompt_price, completion_price = _PRICES[prefix]
            return (
                prompt_tokens * prompt_price
                + completion_tokens * completion_price
            ) / 1000.0
    return 0.0


class GatewayStats:
    """Process-wide gateway counters (thread-safe).

    Deliberately *not* part of the event stream: wall-clock retries and
    rate-limit waits differ between a record run and its replay, so
    they live here -- where the service ``stats`` report reads them --
    and the bit-identical per-call facts travel as events.
    """

    _FIELDS = (
        "calls",
        "completions",
        "retries",
        "fallbacks",
        "failures",
        "rate_limit_waits",
        "cassette_hits",
        "cassette_misses",
        "recorded",
        "replayed",
        "prompt_tokens",
        "completion_tokens",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._FIELDS}
        self._cost = 0.0

    def add(self, cost: float = 0.0, **fields: int) -> None:
        with self._lock:
            for name, amount in fields.items():
                self._counts[name] += amount
            self._cost += cost

    def snapshot(self) -> dict:
        with self._lock:
            report = dict(self._counts)
            report["cost"] = self._cost
            return report

    def reset(self) -> None:
        with self._lock:
            for name in self._counts:
                self._counts[name] = 0
            self._cost = 0.0


GATEWAY_STATS = GatewayStats()


class Gateway:
    """Multi-backend LLM client (see module docstring).

    One instance serves one (model, role); :meth:`for_role` hands out
    per-role siblings when ``settings.stage_models`` routes roles to
    different models.  Siblings share the genome registry (the debug
    agent must find genomes the RTL agent minted), the rate limiter
    (one outbound budget), and the process-wide stats.
    """

    def __init__(
        self,
        model: str,
        settings: GatewaySettings,
        role: str = "",
        inner: LLMClient | None = None,
        registry: GenomeRegistry | None = None,
        limiter: TokenBucket | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.model = model
        self.settings = settings
        self.role = role
        self._sleep = sleep
        if registry is None:
            registry = getattr(inner, "registry", None) or GenomeRegistry()
        self.registry = registry
        sim_client = inner
        if sim_client is None and any(
            spec == "sim" or spec.startswith("flaky")
            for spec in settings.backends
        ):
            sim_client = SimLLM(model=model, registry=registry)
        self._sim_client = sim_client
        self._backends: list[GatewayBackend] = [
            build_backend(spec, sim_client) for spec in settings.backends
        ]
        self._limiter = (
            limiter
            if limiter is not None
            else TokenBucket(settings.rate, settings.burst)
        )
        # Repeat-count per request identity: the Nth identical request
        # gets its own cassette slot (see :func:`cassette_key`).
        self._ordinals: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # LLMClient interface
    # ------------------------------------------------------------------

    @property
    def model_name(self) -> str:
        # Defer to the sim client where one exists so transcripts show
        # the resolved profile name exactly as a bare SimLLM would.
        if self._sim_client is not None:
            return self._sim_client.model_name
        return self.model

    def complete(
        self, messages: list[ChatMessage], params: SamplingParams
    ) -> str:
        return self._request("complete", messages, params)[0]

    def sample(
        self, messages: list[ChatMessage], params: SamplingParams
    ) -> list[str]:
        return list(self._request("sample", messages, params))

    # ------------------------------------------------------------------
    # Per-role routing
    # ------------------------------------------------------------------

    def for_role(self, role: str) -> "Gateway":
        """The client a named agent role should talk to.

        Without routing every role shares this instance (single model,
        single RNG stream -- bit-identical to an unrouted run).  With
        ``stage_models`` set, each role gets its own sibling gateway on
        its routed model, sharing registry, limiter, and stats.
        """
        if not self.settings.stage_models:
            return self
        return Gateway(
            model=self.settings.model_for(role, self.model),
            settings=self.settings,
            role=role,
            registry=self.registry,
            limiter=self._limiter,
            sleep=self._sleep,
        )

    # ------------------------------------------------------------------
    # The call path
    # ------------------------------------------------------------------

    def _store(self) -> CassetteStore:
        return cassette_store(self.settings.cassette_dir)

    def _next_key(
        self, op: str, messages: list[ChatMessage], params: SamplingParams
    ) -> str:
        with self._lock:
            # Ordinal -1 is the grouping identity (the request minus its
            # repeat count); real entries use ordinals 0, 1, 2, ...
            base = cassette_key(op, self.model, self.role, messages, params, -1)
            ordinal = self._ordinals.get(base, 0)
            self._ordinals[base] = ordinal + 1
        return cassette_key(op, self.model, self.role, messages, params, ordinal)

    def _emit(self, result: BackendResult | CassetteRecord, backend: str) -> None:
        n = len(result.completions)
        cost = model_cost(
            self.model, result.prompt_tokens, result.completion_tokens
        )
        emit_ambient(
            GatewayCall(
                model=self.model,
                backend=backend,
                role=self.role,
                n=n,
                prompt_tokens=result.prompt_tokens,
                completion_tokens=result.completion_tokens,
                cost=cost,
            )
        )
        GATEWAY_STATS.add(
            calls=1,
            completions=n,
            prompt_tokens=result.prompt_tokens,
            completion_tokens=result.completion_tokens,
        )

    def _request(
        self, op: str, messages: list[ChatMessage], params: SamplingParams
    ) -> tuple[str, ...]:
        key = self._next_key(op, messages, params)
        if self.settings.mode == "replay":
            return self._replay(key)
        backend, result = self._call_chain(op, messages, params)
        if self.settings.mode == "record":
            self._store().put(
                key,
                CassetteRecord(
                    completions=result.completions,
                    backend=backend.name,
                    prompt_tokens=result.prompt_tokens,
                    completion_tokens=result.completion_tokens,
                ),
            )
            GATEWAY_STATS.add(recorded=1)
        self._emit(result, backend.name)
        # Real money moved only on this, the live path.
        GATEWAY_STATS.add(
            cost=model_cost(
                self.model, result.prompt_tokens, result.completion_tokens
            )
        )
        return result.completions

    def _replay(self, key: str) -> tuple[str, ...]:
        record = self._store().get(key)
        if record is None:
            GATEWAY_STATS.add(cassette_misses=1)
            raise CassetteMiss(
                f"no cassette entry for model {self.model!r} "
                f"(key {key[:12]}...); re-run in --record mode"
            )
        GATEWAY_STATS.add(cassette_hits=1, replayed=1)
        self._emit(record, record.backend)
        return record.completions

    def _call_chain(
        self, op: str, messages: list[ChatMessage], params: SamplingParams
    ) -> tuple[GatewayBackend, BackendResult]:
        last_error: Exception | None = None
        for index, backend in enumerate(self._backends):
            for attempt in range(self.settings.retries):
                if attempt > 0:
                    delay = min(
                        self.settings.backoff_cap,
                        self.settings.backoff_base * (2 ** (attempt - 1)),
                    )
                    if delay > 0:
                        self._sleep(delay)
                    GATEWAY_STATS.add(retries=1)
                waited = self._limiter.acquire()
                if waited > 0:
                    GATEWAY_STATS.add(rate_limit_waits=1)
                call = backend.complete if op == "complete" else backend.sample
                try:
                    return backend, call(self.model, messages, params)
                except TransientBackendError as exc:
                    last_error = exc
                except BackendError:
                    # Permanent (auth, bad request): retrying elsewhere
                    # cannot help and only burns quota.
                    GATEWAY_STATS.add(failures=1)
                    raise
            if index + 1 < len(self._backends):
                GATEWAY_STATS.add(fallbacks=1)
        GATEWAY_STATS.add(failures=1)
        chain = ", ".join(b.describe() for b in self._backends)
        raise GatewayExhausted(
            f"all backends failed for model {self.model!r} "
            f"(chain: {chain}; {self.settings.retries} attempts each)"
        ) from last_error

    # ------------------------------------------------------------------
    # Pickling: runs checkpoint their states, and states hold agents
    # holding this client.  Locks and the shared limiter do not pickle;
    # both rebuild from settings on restore.  The cassette store is
    # never held (resolved per call from the process-local registry).
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_limiter"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._limiter = TokenBucket(self.settings.rate, self.settings.burst)
