"""Runtime configuration: how much parallelism, which backend, caching.

Everything is selectable three ways, in priority order: explicit
arguments (CLI flags), environment variables, and defaults.

Environment variables:

- ``REPRO_JOBS``             worker count (default 1 = serial)
- ``REPRO_EXECUTOR``         ``auto`` | ``serial`` | ``thread`` | ``process``
- ``REPRO_SIM_CACHE``        ``1``/``0`` to enable/disable the simulation cache
- ``REPRO_SIM_CACHE_DIR``    directory for the optional on-disk simulation cache
- ``REPRO_SOLVE_CACHE``      ``1``/``0`` to enable the solve-cell cache
                             (whole-run memoization; default off)
- ``REPRO_SOLVE_CACHE_DIR``  directory for the on-disk solve-cell cache

A cache directory is unbounded; ``repro cache --clear`` empties it.

The LLM gateway adds its own ``REPRO_GATEWAY*`` family, documented in
:mod:`repro.llm.gateway.settings`.  Those stay live: an env-derived
config leaves ``gateway`` as None so gateway settings re-resolve from
the environment at each LLM construction (a long-lived process can
flip record -> replay without rebuilding its runtime context); only
explicitly passed :class:`GatewaySettings` are pinned.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover -- annotation-only import
    from repro.llm.gateway.settings import GatewaySettings

_EXECUTOR_KINDS = ("auto", "serial", "thread", "process")


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        return int(value)
    except ValueError:
        return fallback


def default_jobs() -> int:
    """Worker count when nobody asked: ``REPRO_JOBS``, else every core.

    The explicit-config default stays 1 (serial unless asked), but
    surfaces that *size* a machine -- the ``--jobs`` CLI default --
    saturate the hardware instead of pretending it has one core.
    """
    return _env_int("REPRO_JOBS", os.cpu_count() or 1)


def _env_flag(name: str, fallback: bool) -> bool:
    value = os.environ.get(name)
    if value is None or value == "":
        return fallback
    return value.strip().lower() not in ("0", "false", "no", "off")


@dataclass(frozen=True)
class RuntimeConfig:
    """Resolved runtime settings (see module docstring for env vars)."""

    jobs: int = 1
    executor: str = "auto"  # auto | serial | thread | process
    cache: bool = True
    cache_dir: str | None = None
    solve_cache: bool = False
    solve_cache_dir: str | None = None
    # None = resolve lazily from the environment at each use, so
    # long-lived processes see env flips (record -> replay) without a
    # context rebuild.  Only an explicit argument pins settings here.
    gateway: "GatewaySettings | None" = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.executor not in _EXECUTOR_KINDS:
            raise ValueError(
                f"bad executor kind {self.executor!r}; "
                f"choose from {', '.join(_EXECUTOR_KINDS)}"
            )

    @staticmethod
    def from_env(
        jobs: int | None = None,
        executor: str | None = None,
        cache: bool | None = None,
        cache_dir: str | None = None,
        solve_cache: bool | None = None,
        solve_cache_dir: str | None = None,
        gateway: "GatewaySettings | None" = None,
    ) -> "RuntimeConfig":
        """Resolve settings: explicit args beat env vars beat defaults.

        ``gateway`` is deliberately *not* snapshotted from the
        environment here: an env-derived config leaves it None so
        :func:`repro.llm.gateway.settings.resolve_gateway_settings`
        reads the live environment on every LLM construction.  Pass
        explicit settings to pin them.
        """
        return RuntimeConfig(
            jobs=jobs if jobs is not None else _env_int("REPRO_JOBS", 1),
            executor=(
                executor
                if executor is not None
                else os.environ.get("REPRO_EXECUTOR", "auto")
            ),
            cache=(
                cache if cache is not None else _env_flag("REPRO_SIM_CACHE", True)
            ),
            cache_dir=(
                cache_dir
                if cache_dir is not None
                else os.environ.get("REPRO_SIM_CACHE_DIR") or None
            ),
            solve_cache=(
                solve_cache
                if solve_cache is not None
                else _env_flag("REPRO_SOLVE_CACHE", False)
            ),
            solve_cache_dir=(
                solve_cache_dir
                if solve_cache_dir is not None
                else os.environ.get("REPRO_SOLVE_CACHE_DIR") or None
            ),
            gateway=gateway,
        )
