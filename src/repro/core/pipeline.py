"""Declarative staged pipelines: the one execution model for every
solve path.

A solve path is a list of :class:`Stage` objects over a mutable
:class:`RunState`.  The :class:`Pipeline` runner executes the stages in
order, once, and emits typed events (:mod:`repro.core.events`) at every
boundary -- including per-stage wall-clock and LLM-call accounting.
The event stream, not a saved state, is the record of a run.

Determinism contract: the runner adds no control flow of its own.  A
stage list executed by ``Pipeline.run`` issues exactly the calls the
stage functions issue, in order, so re-expressing an imperative solve
loop as stages is bit-identical at fixed seeds.

Stage functions receive ``(state, emit)`` and may return :data:`DONE`
to short-circuit the remaining stages (e.g. MAGE skipping Steps 4-5
when the initial candidate already passes).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import (
    Event,
    EventSink,
    StageFinished,
    StageStarted,
    ambient_sink,
    as_sink,
)


class StageClock:
    """Process-wide per-stage wall-clock accounting.

    Every :meth:`Pipeline.run` stage execution records its measured
    seconds here under ``"<pipeline>/<stage>"``.  The snapshot is the
    ``stages`` section of the service ``StatsReply`` and the ``stats``
    CLI report -- where the per-run event stream answers "how long did
    *this* run's step4 take", this answers "where does a whole server's
    wall-clock go".
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, list] = {}

    def record(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._stages.get(name)
            if entry is None:
                entry = self._stages[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += seconds

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {"runs": entry[0], "seconds": entry[1]}
                for name, entry in sorted(self._stages.items())
            }

    def merge(self, snapshot: dict) -> None:
        """Add another clock's :meth:`snapshot` (a service worker
        process's per-job delta) into this one."""
        with self._lock:
            for name, entry in snapshot.items():
                mine = self._stages.setdefault(name, [0, 0.0])
                mine[0] += entry["runs"]
                mine[1] += entry["seconds"]

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()


STAGE_CLOCK = StageClock()

# Sentinel a stage returns to stop the pipeline (the run is complete).
DONE = "__pipeline_done__"

StageFn = Callable[["RunState", Callable[[Event], None]], str | None]


@dataclass
class RunState:
    """Everything a run carries between stages: its seed, and in
    ``data`` the stage-to-stage values (agents, testbenches,
    candidates, ...)."""

    seed: int = 0
    data: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Stage:
    """One named step of a solve path."""

    name: str
    fn: StageFn


class Pipeline:
    """Executes a stage list over a :class:`RunState`.

    ``calls_probe(state)`` reads the cumulative LLM-call counter of the
    run (e.g. an agent team's total); the runner differences it across
    each stage for the :class:`~repro.core.events.StageFinished`
    accounting.
    """

    def __init__(
        self,
        name: str,
        stages: list[Stage],
        calls_probe: Callable[[RunState], int] | None = None,
    ):
        seen: set[str] = set()
        for stage in stages:
            if stage.name in seen:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
        self.name = name
        self.stages = list(stages)
        self.calls_probe = calls_probe

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def run(
        self,
        state: RunState,
        sink: EventSink | Callable[[Event], None] | None = None,
    ) -> RunState:
        """Execute every stage in order; a stage returning :data:`DONE`
        skips the rest."""
        emit = as_sink(sink).emit
        for index, stage in enumerate(self.stages):
            emit(StageStarted(stage=stage.name, index=index))
            calls_before = (
                self.calls_probe(state) if self.calls_probe is not None else 0
            )
            started = time.perf_counter()
            # The stage's emit doubles as the thread's ambient sink, so
            # layers without a sink in their signature (the LLM gateway
            # under the agents) narrate into this run's stream.
            with ambient_sink(emit):
                signal = stage.fn(state, emit)
            seconds = time.perf_counter() - started
            STAGE_CLOCK.record(f"{self.name}/{stage.name}", seconds)
            calls_after = (
                self.calls_probe(state) if self.calls_probe is not None else 0
            )
            emit(
                StageFinished(
                    stage=stage.name,
                    index=index,
                    seconds=seconds,
                    llm_calls=calls_after - calls_before,
                )
            )
            if signal == DONE:
                break
        return state
