"""Ambient runtime context: which executor and cache the engine uses.

The engine's hot paths (candidate scoring in Step 4, trial scoring in
Step 5, judge scorings everywhere) reach their cache through
:func:`get_runtime` rather than threading it through every call
signature.  Resolution order:

1. a thread-local override (pushed by :func:`runtime_session`, or by a
   grid cell pinning itself to a serial inner runtime);
2. the process-global context, lazily built from
   :class:`RuntimeConfig` env vars on first use.

Every grid cell runs under a serial inner context, so ``--jobs N``
parallelises the problems x runs grid and nothing inside a cell.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.cache import SimulationCache, SolveCellCache
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import Executor, create_executor

if TYPE_CHECKING:  # pragma: no cover -- annotation-only import
    from repro.llm.gateway.settings import GatewaySettings


@dataclass
class RuntimeContext:
    """One resolved runtime: an executor plus caches (None = disabled).

    ``solve_cache`` memoizes whole evaluation cells (off by default;
    see ``REPRO_SOLVE_CACHE``).  ``gateway`` carries the LLM gateway
    settings new clients resolve ambiently (None = fall back to the
    environment; see
    :func:`repro.llm.gateway.settings.resolve_gateway_settings`).
    """

    executor: Executor
    cache: SimulationCache | None
    solve_cache: SolveCellCache | None = None
    gateway: "GatewaySettings | None" = None

    def describe(self) -> str:
        cache = "cache=off" if self.cache is None else "cache=on"
        solve = "" if self.solve_cache is None else " solve-cache=on"
        gateway = (
            ""
            if self.gateway is None or not self.gateway.enabled
            else f" gateway={self.gateway.mode}"
        )
        return f"{self.executor.describe()} {cache}{solve}{gateway}"


_GLOBAL: RuntimeContext | None = None
_GLOBAL_LOCK = threading.Lock()
_LOCAL = threading.local()


def _build(config: RuntimeConfig, executor: Executor | None = None) -> RuntimeContext:
    return RuntimeContext(
        executor=(
            executor
            if executor is not None
            else create_executor(config.jobs)
        ),
        cache=(
            SimulationCache(config.cache_dir)
            if config.cache
            else None
        ),
        solve_cache=(
            SolveCellCache(config.solve_cache_dir)
            if config.solve_cache
            else None
        ),
        gateway=config.gateway,
    )


def get_runtime() -> RuntimeContext:
    """The active context: thread-local override, else the global one."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = _build(RuntimeConfig.from_env())
    return _GLOBAL


@contextmanager
def runtime_session(
    jobs: int | None = None,
    executor: Executor | None = None,
    cache: bool | None = None,
    cache_dir: str | None = None,
    solve_cache: bool | None = None,
    solve_cache_dir: str | None = None,
    gateway: "GatewaySettings | None" = None,
    context: RuntimeContext | None = None,
):
    """Thread-local context override, restored on exit.

    Executors created here (not passed in ready-made) are shut down when
    the session closes.
    """
    owns_executor = executor is None and context is None
    if context is None:
        config = RuntimeConfig.from_env(
            jobs=jobs,
            cache=cache,
            cache_dir=cache_dir,
            solve_cache=solve_cache,
            solve_cache_dir=solve_cache_dir,
            gateway=gateway,
        )
        context = _build(config, executor)
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(context)
    try:
        yield context
    finally:
        stack.pop()
        if owns_executor:
            context.executor.shutdown()
