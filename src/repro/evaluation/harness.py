"""Suite-level evaluation harness.

Runs a system over a suite exactly the way VerilogEval scores
submissions: the system sees only the specification (never the golden
testbench); each returned module is simulated against the hidden golden
testbench; Pass@1 aggregates over ``runs`` evaluation runs per problem
(Eq. 7).

``REPRO_EVAL_RUNS`` overrides the default run count (the paper uses
n=20 for the high-temperature setting; benches default lower to keep
regeneration quick).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.baselines.registry import MAGESystem
from repro.core.config import MAGEConfig
from repro.evalsets.problem import Problem
from repro.evaluation.metrics import mean_pass_at_k, pass_at_k


def default_runs(fallback: int = 3) -> int:
    """Run count for sampled (nondeterministic) settings.

    A malformed ``REPRO_EVAL_RUNS`` falls back rather than raising,
    matching how the runtime treats its env knobs.
    """
    value = os.environ.get("REPRO_EVAL_RUNS")
    if not value:
        return fallback
    try:
        return int(value)
    except ValueError:
        return fallback


@dataclass
class ProblemOutcome:
    """Per-problem tally of evaluation runs."""

    problem_id: str
    difficulty: float
    runs: int = 0
    passes: int = 0
    scores: list[float] = field(default_factory=list)

    @property
    def pass_at_1(self) -> float:
        return pass_at_k(self.runs, self.passes, 1)


@dataclass
class EvalResult:
    """Suite-level evaluation of one system."""

    system: str
    suite: str
    outcomes: list[ProblemOutcome] = field(default_factory=list)

    @property
    def pass_at_1(self) -> float:
        return mean_pass_at_k([(o.runs, o.passes) for o in self.outcomes], 1)

    @property
    def percent(self) -> float:
        return 100.0 * self.pass_at_1

    def failures(self) -> list[str]:
        return [o.problem_id for o in self.outcomes if o.passes < o.runs]

    def render_row(self) -> str:
        return f"{self.system:42s} {self.suite:22s} Pass@1 = {self.percent:5.1f}%"


def evaluate_system(
    system_factory: Callable[[], object],
    suite: str,
    runs: int = 1,
    seed0: int = 0,
    problems: list[Problem] | None = None,
    progress: Callable[[str], None] | None = None,
    name: str | None = None,
    executor=None,
    cache=None,
) -> EvalResult:
    """Evaluate ``system_factory()`` instances over a suite.

    A fresh system instance per run keeps conversation histories
    independent across runs, as separate API sessions would be.

    Execution routes through :func:`repro.runtime.batch.evaluate_many`:
    the ``problems x runs`` grid fans out across the ambient runtime's
    executor (or an explicit ``executor``), with results reassembled in
    deterministic grid order -- Pass@1 is identical at any worker count.

    ``name`` labels the result directly; without it, one throwaway
    ``system_factory()`` instance is built just to read ``.name``.
    ``cache`` overrides the ambient simulation-cache choice
    (:class:`~repro.runtime.cache.SimulationCache`, ``True``/``False``,
    or ``None`` to inherit).
    """
    from repro.runtime.batch import evaluate_many

    result, _report = evaluate_many(
        system_factory,
        suite,
        runs=runs,
        seed0=seed0,
        problems=problems,
        name=name,
        executor=executor,
        cache=cache,
        progress=progress,
    )
    return result


def evaluate_mage(
    config: MAGEConfig,
    suite: str,
    runs: int = 1,
    seed0: int = 0,
    problems: list[Problem] | None = None,
    progress: Callable[[str], None] | None = None,
    executor=None,
    cache=None,
) -> EvalResult:
    """Evaluate a MAGE configuration (convenience wrapper)."""
    return evaluate_system(
        partial(MAGESystem, config),
        suite,
        runs,
        seed0,
        problems,
        progress,
        executor=executor,
        cache=cache,
    )
