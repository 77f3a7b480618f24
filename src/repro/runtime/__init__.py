"""``repro.runtime``: parallel execution + content-addressed simulation cache.

The scaling layer under the MAGE engine and the evaluation harness:

- :mod:`repro.runtime.executor` -- the serial executor and the process
  pool behind one ``submit`` API; the worker count picks one;
- :mod:`repro.runtime.cache` -- the caches: two
  content-addressed memoizers (``run_testbench`` keyed by
  ``hash(design_source, testbench, top_module)``, whole solve cells
  keyed by ``hash(config, problem, seed)`` -- source + typed event
  stream), each a :class:`TieredCache`: an in-memory LRU over an
  optional disk directory, with read-through promotion, write-through
  stores, and one row of hit/miss counters;
- :mod:`repro.runtime.context` -- the ambient (executor, caches) set the
  engine's hot paths pick up without signature threading;
- :mod:`repro.runtime.batch` -- ``evaluate_many``, fanning the Eq. 7
  ``problems x runs`` grid across worker processes with progress
  callbacks, streaming per-cell events, and timing/throughput stats.

Parallelism is applied at one level only: whole evaluation cells (fresh
system instance each, no shared state).  Everything inside a cell --
LLM calls and candidate scoring alike -- runs serially, so ``--jobs N``
reproduces ``--jobs 1`` exactly for fixed seeds.
"""

from repro.runtime.batch import BatchReport, evaluate_many
from repro.runtime.cache import (
    CacheStats,
    DiskCacheInfo,
    DiskTier,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    TieredCache,
    cached_run_testbench,
    clear_disk_cache,
    disk_cache_info,
    simulation_count,
    simulation_key,
    solve_cell_key,
    system_fingerprint,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import (
    RuntimeContext,
    get_runtime,
    runtime_session,
)
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    create_executor,
)

__all__ = [
    "BatchReport",
    "CacheStats",
    "DiskCacheInfo",
    "DiskTier",
    "Executor",
    "ProcessExecutor",
    "RuntimeConfig",
    "RuntimeContext",
    "SerialExecutor",
    "SimulationCache",
    "SolveCellCache",
    "SolveCellRecord",
    "TieredCache",
    "cached_run_testbench",
    "clear_disk_cache",
    "create_executor",
    "disk_cache_info",
    "evaluate_many",
    "get_runtime",
    "runtime_session",
    "simulation_count",
    "simulation_key",
    "solve_cell_key",
    "system_fingerprint",
]
