"""Gateway configuration: backends, retry policy, cassette mode, routing.

Like :class:`~repro.runtime.config.RuntimeConfig`, everything resolves
three ways in priority order: explicit arguments (CLI flags), then
environment variables, then defaults.  Environment variables:

- ``REPRO_GATEWAY``           ``1``/``0`` route LLM traffic through the gateway
- ``REPRO_GATEWAY_MODE``      ``live`` | ``record`` | ``replay``
- ``REPRO_CASSETTE_DIR``      on-disk cassette tier (record/replay store)
- ``REPRO_GATEWAY_BACKENDS``  comma-separated fallback chain, tried in
                              order (``sim``, ``openai[:base_url]``,
                              ``anthropic[:base_url]``, ``down``,
                              ``flaky@N``)
- ``REPRO_STAGE_MODELS``      per-role model routing, e.g.
                              ``rtl=claude-3-haiku,judge=claude-3.5-sonnet``
- ``REPRO_GATEWAY_RETRIES``   attempts per backend before falling over
- ``REPRO_GATEWAY_BACKOFF``   base backoff seconds (doubles per retry)
- ``REPRO_GATEWAY_RATE``      token-bucket refill (calls/second; 0 = off)
- ``REPRO_GATEWAY_BURST``     token-bucket capacity

The env spelling is what makes the gateway ambient: worker processes
and service workers all resolve the same settings without threading
them through every call signature (they *also* ride along explicitly
on :class:`~repro.runtime.workers.EvalCell`, which wins when set).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.runtime.config import _env_flag, _env_int

AGENT_ROLES = ("tb", "rtl", "judge", "debug")

_MODES = ("live", "record", "replay")


def _env_float(name: str, fallback: float) -> float:
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        return float(value)
    except ValueError:
        return fallback


def parse_backends(text: str) -> tuple[str, ...]:
    """Parse a comma-separated backend chain (empty -> default chain)."""
    chain = tuple(part.strip() for part in text.split(",") if part.strip())
    return chain or ("sim",)


def parse_stage_models(text: str) -> tuple[tuple[str, str], ...]:
    """Parse ``role=model`` pairs; unknown roles are rejected loudly."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        role, sep, model = part.partition("=")
        role, model = role.strip(), model.strip()
        if not sep or not role or not model:
            raise ValueError(
                f"bad stage-model mapping {part!r}; expected role=model"
            )
        if role not in AGENT_ROLES:
            raise ValueError(
                f"unknown agent role {role!r}; "
                f"choose from {', '.join(AGENT_ROLES)}"
            )
        pairs.append((role, model))
    return tuple(pairs)


@dataclass(frozen=True)
class GatewaySettings:
    """Resolved gateway settings (see module docstring for env vars)."""

    enabled: bool = False
    mode: str = "live"  # live | record | replay
    cassette_dir: str | None = None
    backends: tuple[str, ...] = ("sim",)
    stage_models: tuple[tuple[str, str], ...] = ()
    retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    rate: float = 0.0  # calls/second through the token bucket (0 = off)
    burst: int = 8

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"bad gateway mode {self.mode!r}; "
                f"choose from {', '.join(_MODES)}"
            )
        if not self.backends:
            raise ValueError("gateway needs at least one backend")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        for role, _model in self.stage_models:
            if role not in AGENT_ROLES:
                raise ValueError(
                    f"unknown agent role {role!r}; "
                    f"choose from {', '.join(AGENT_ROLES)}"
                )

    def model_for(self, role: str, default: str) -> str:
        """The model a role routes to (``default`` without an override)."""
        for mapped_role, model in self.stage_models:
            if mapped_role == role:
                return model
        return default

    def fingerprint(self) -> str | None:
        """Stable identity of everything that can change a run's *output*.

        The backend chain and per-role routing select which model
        answers, so they enter solve-cell fingerprints; the cassette
        mode and directory only change where completions come *from*
        (record and replay are bit-identical by contract), so they stay
        out -- a replay run shares the recording run's solve cells.
        None when the gateway is off: fingerprints must not change for
        existing non-gateway caches.
        """
        if not self.enabled:
            return None
        chain = ",".join(self.backends)
        routing = ",".join(f"{role}={model}" for role, model in self.stage_models)
        return f"gateway(backends=[{chain}],stage_models=[{routing}])"

    def to_env(self) -> dict[str, str]:
        """The env-var spelling of these settings (empty = unset).

        The CLI materialises flags through ``os.environ`` so worker
        processes, service workers, and lazily built runtime contexts
        all resolve the same gateway without plumbing.
        """
        return {
            "REPRO_GATEWAY": "1" if self.enabled else "",
            "REPRO_GATEWAY_MODE": self.mode if self.mode != "live" else "",
            "REPRO_CASSETTE_DIR": self.cassette_dir or "",
            "REPRO_GATEWAY_BACKENDS": (
                ",".join(self.backends) if self.backends != ("sim",) else ""
            ),
            "REPRO_STAGE_MODELS": ",".join(
                f"{role}={model}" for role, model in self.stage_models
            ),
        }

    @staticmethod
    def from_env(
        enabled: bool | None = None,
        mode: str | None = None,
        cassette_dir: str | None = None,
        backends: tuple[str, ...] | list[str] | None = None,
        stage_models: tuple[tuple[str, str], ...] | None = None,
        retries: int | None = None,
        backoff_base: float | None = None,
        rate: float | None = None,
        burst: int | None = None,
    ) -> "GatewaySettings":
        """Resolve settings: explicit args beat env vars beat defaults."""
        return GatewaySettings(
            enabled=(
                enabled
                if enabled is not None
                else _env_flag("REPRO_GATEWAY", False)
            ),
            mode=(
                mode
                if mode is not None
                else os.environ.get("REPRO_GATEWAY_MODE") or "live"
            ),
            cassette_dir=(
                cassette_dir
                if cassette_dir is not None
                else os.environ.get("REPRO_CASSETTE_DIR") or None
            ),
            backends=(
                tuple(backends)
                if backends is not None
                else parse_backends(os.environ.get("REPRO_GATEWAY_BACKENDS") or "")
            ),
            stage_models=(
                tuple(stage_models)
                if stage_models is not None
                else parse_stage_models(os.environ.get("REPRO_STAGE_MODELS") or "")
            ),
            retries=(
                retries
                if retries is not None
                else _env_int("REPRO_GATEWAY_RETRIES", 3)
            ),
            backoff_base=(
                backoff_base
                if backoff_base is not None
                else _env_float("REPRO_GATEWAY_BACKOFF", 0.05)
            ),
            rate=rate if rate is not None else _env_float("REPRO_GATEWAY_RATE", 0.0),
            burst=burst if burst is not None else _env_int("REPRO_GATEWAY_BURST", 8),
        )


def resolve_gateway_settings() -> GatewaySettings:
    """The settings active for new LLM constructions.

    The ambient runtime context wins when it carries explicit settings
    (batch cells and service workers pin theirs there); otherwise the
    environment decides -- which is also what worker processes inherit.
    """
    try:
        from repro.runtime.context import get_runtime

        settings = get_runtime().gateway
    except Exception:  # noqa: BLE001 -- context layer absent or mid-import
        settings = None
    if settings is not None:
        return settings
    return GatewaySettings.from_env()


def active_gateway_fingerprint() -> str | None:
    """Fingerprint fragment of the active gateway (None when disabled)."""
    return resolve_gateway_settings().fingerprint()
