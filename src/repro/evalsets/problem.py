"""Problem definition and golden-testbench derivation.

A :class:`Problem` packages a natural-language spec, a golden Verilog
design, directed stimulus vectors, and a difficulty rating.  The golden
testbench is *derived*: directed vectors plus seeded pseudo-random
vectors are simulated against the golden design, and the observed
outputs become the expected values (with ``x`` bits acting as per-bit
don't-cares, so pre-reset unknowns never count as checks).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.hdl.compile import compile_design
from repro.hdl.design import Design
from repro.hdl.values import LogicVec
from repro.tb.runner import run_testbench
from repro.tb.stimulus import TbStep, Testbench

_REGISTRY: dict[str, "Problem"] = {}

# Distinct stimulus draws and probe testbenches a process keeps.  A cold
# verilogeval-v2 grid of 164 cells derives about 320 distinct testbenches.
DERIVATION_MEMO_SIZE = 1024
_STEPS: dict[tuple, tuple] = {}
_PROBES: dict[tuple, "Testbench"] = {}


def _remember(memo: dict, key, value) -> None:
    """Store into a bounded memo, dropping its oldest entry when full."""
    if len(memo) >= DERIVATION_MEMO_SIZE:
        memo.pop(next(iter(memo), None), None)
    memo[key] = value


@dataclass(frozen=True)
class Problem:
    """One benchmark problem.

    ``random_policy`` controls pseudo-random stimulus per input:
    an ``int`` holds the input constant, a ``float`` is the per-step
    probability of driving 1 (1-bit controls), and ``"any"`` (default)
    draws uniformly over the input's range.
    """

    id: str
    title: str
    category: str  # combinational | arithmetic | sequential | fsm | memory
    difficulty: float  # 0 (trivial) .. 1 (very hard)
    spec: str
    golden: str
    top: str
    kind: str  # "comb" | "clocked"
    clock: str | None = None
    directed: tuple[dict, ...] = ()
    random_policy: dict = field(default_factory=dict)
    n_random: int = 24

    def __post_init__(self) -> None:
        if not 0.0 <= self.difficulty <= 1.0:
            raise ValueError(f"{self.id}: difficulty must be in [0, 1]")
        if self.kind == "clocked" and not self.clock:
            raise ValueError(f"{self.id}: clocked problem needs a clock")

    def __reduce_ex__(self, protocol):
        # A registered problem crosses a process boundary as its id, so
        # a worker process gets its own registry object, and the memos
        # that only serve that object (``input_steps``) hit again.
        if _REGISTRY.get(self.id) is self:
            return get_problem, (self.id,)
        return super().__reduce_ex__(protocol)

    def design(self) -> Design:
        """The compiled golden design (shared, see :func:`compile_design`)."""
        return compile_design(self.golden, self.top)

    @property
    def data_inputs(self) -> tuple[str, ...]:
        """Input ports driven by the testbench (clock excluded)."""
        return tuple(
            name for name in self.design().inputs if name != self.clock
        )

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self.design().outputs)

    def seed_for(self, salt: int = 0) -> int:
        """Stable per-problem RNG seed."""
        return (zlib.crc32(self.id.encode()) + salt * 9973) & 0x7FFFFFFF


def register_problem(problem: Problem) -> Problem:
    """Add a problem to the global registry (id must be unique)."""
    if problem.id in _REGISTRY:
        raise ValueError(f"duplicate problem id {problem.id!r}")
    _REGISTRY[problem.id] = problem
    return problem


def get_problem(problem_id: str) -> Problem:
    _ensure_loaded()
    return _REGISTRY[problem_id]


def all_problems() -> list[Problem]:
    _ensure_loaded()
    return sorted(_REGISTRY.values(), key=lambda p: p.id)


def _ensure_loaded() -> None:
    # Problem modules register on import; pull them in lazily to avoid
    # import cycles.
    from repro.evalsets import (  # noqa: F401
        arithmetic,
        combinational,
        extra,
        fsm,
        memory,
        sequential,
    )


def input_steps(
    problem: Problem, n_random: int | None = None, seed: int = 0
) -> list[dict[str, int]]:
    """Directed vectors followed by seeded pseudo-random vectors.

    Memoized per (problem, ``n_random``, seed): testbench agents draw the
    same stimulus seed for a problem in many cells.  Each call returns a
    new list, but the step dicts are shared, so callers treat them as
    read-only.
    """
    count = problem.n_random if n_random is None else n_random
    key = (problem.id, count, seed)
    hit = _STEPS.get(key)
    if hit is not None and hit[0] is problem:
        return list(hit[1])
    steps = _draw_steps(problem, count, seed)
    _remember(_STEPS, key, (problem, tuple(steps)))
    return steps


def _draw_steps(problem: Problem, count: int, seed: int) -> list[dict[str, int]]:
    steps: list[dict[str, int]] = [dict(v) for v in problem.directed]
    if count <= 0:
        return steps
    rng = np.random.default_rng(problem.seed_for(seed))
    design = problem.design()
    names = problem.data_inputs
    for _ in range(count):
        step: dict[str, int] = {}
        for name in names:
            policy = problem.random_policy.get(name, "any")
            width = design.signals[name].width
            if isinstance(policy, bool) or isinstance(policy, int):
                value = int(policy)
            elif isinstance(policy, float):
                value = int(rng.random() < policy)
            else:  # "any"
                value = int(rng.integers(0, 1 << width))
            step[name] = value
        steps.append(step)
    return steps


def derive_testbench(
    source: str,
    top: str,
    kind: str,
    clock: str | None,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    steps: list[dict[str, int]],
    name: str = "tb",
) -> Testbench:
    """Build a testbench whose expectations come from simulating ``source``.

    Outputs that are wholly unknown at a step (e.g. registers before
    reset) are skipped; partially-unknown outputs keep their ``x`` bits
    as don't-cares.
    """
    probe = _probe(source, top, kind, clock, inputs, outputs, steps, name)
    # Probing is a deterministic simulation of a fixed source, so it is
    # served by the runtime's content-addressed cache; testbench agents
    # re-deriving expectations for the same design pay only once.  Every
    # derivation still makes its one (counted) lookup.
    # (Imported lazily: repro.runtime.batch imports this module.)
    from repro.runtime.cache import cached_run_testbench

    report = cached_run_testbench(source, probe, top)
    if report.error is not None:
        raise RuntimeError(
            f"golden design failed to simulate for {name}: {report.error}"
        )
    observed: dict[int, dict[str, LogicVec]] = {}
    for record in report.records:
        observed.setdefault(record.step, {})[record.signal] = record.actual
    final_steps = []
    for index, step in enumerate(steps):
        checks = {
            out: value
            for out, value in observed.get(index, {}).items()
            if value.xmask != (1 << value.width) - 1  # skip all-x
        }
        final_steps.append(TbStep(inputs=step, checks=checks))
    return Testbench(
        kind=kind,
        inputs=inputs,
        outputs=outputs,
        steps=tuple(final_steps),
        clock=clock,
        name=name,
    )


def _probe(
    source: str,
    top: str,
    kind: str,
    clock: str | None,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
    steps: list[dict[str, int]],
    name: str,
) -> Testbench:
    """The all-``x`` probe testbench for one derivation, memoized by
    content, so a repeated derivation reuses its rendering (memoized on
    the instance) for the simulation key.

    The key holds a hash of the steps, not the steps themselves (a tuple
    copy of every step would cost more memory than the probes); a hit
    compares the steps, so a hash collision only costs a rebuild.
    """
    steps_hash = hash(tuple(map(tuple, map(dict.items, steps))))
    key = (source, top, kind, clock, inputs, outputs, name, steps_hash)
    probe = _PROBES.get(key)
    if probe is not None and [step.inputs for step in probe.steps] == steps:
        return probe
    design = compile_design(source, top)
    probe_checks = {
        out: LogicVec.all_x(design.signals[out].width) for out in outputs
    }
    probe = Testbench(
        kind=kind,
        inputs=inputs,
        outputs=outputs,
        steps=tuple(TbStep(inputs=s, checks=dict(probe_checks)) for s in steps),
        clock=clock,
        name=name,
    )
    _remember(_PROBES, key, probe)
    return probe


def golden_testbench(
    problem: Problem, n_random: int | None = None, seed: int = 0
) -> Testbench:
    """The benchmark's hidden golden testbench for ``problem``."""
    steps = input_steps(problem, n_random, seed)
    return derive_testbench(
        problem.golden,
        problem.top,
        problem.kind,
        problem.clock,
        problem.data_inputs,
        problem.outputs,
        steps,
        name=f"golden_{problem.id}",
    )
