"""Declarative staged pipelines: the one execution model for every
solve path.

A solve path is a list of :class:`Stage` objects over a mutable,
picklable :class:`RunState`.  The :class:`Pipeline` runner executes the
stages in order, emits typed events (:mod:`repro.core.events`) at every
boundary -- including per-stage wall-clock and LLM-call accounting --
and checkpoints the state after each stage so a run can be snapshotted,
shipped, and resumed from where it stopped.

Determinism contract: the runner adds no control flow of its own.  A
stage list executed by ``Pipeline.run`` issues exactly the calls the
stage functions issue, in order, so re-expressing an imperative solve
loop as stages is bit-identical at fixed seeds.

Stage functions receive ``(state, emit)`` and may return :data:`DONE`
to short-circuit the remaining stages (e.g. MAGE skipping Steps 4-5
when the initial candidate already passes).  They must be module-level
callables when states are checkpointed across processes.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import (
    Event,
    EventSink,
    NULL_SINK,
    RunStarted,
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
    """Everything a run carries between stages.

    ``data`` holds the stage-to-stage values (agents, testbenches,
    candidates, ...); ``next_stage`` is the resume cursor.  States are
    picklable whenever their ``data`` values are, which holds for every
    shipped solve path (SimLLM, agents, and conversations all pickle).
    """

    seed: int = 0
    next_stage: int = 0
    finished: bool = False
    data: dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> bytes:
        """Serialise for checkpointing (see :func:`restore_state`)."""
        return pickle.dumps(self)


def restore_state(blob: bytes) -> RunState:
    """Inverse of :meth:`RunState.snapshot`."""
    state = pickle.loads(blob)
    if not isinstance(state, RunState):
        raise TypeError(f"checkpoint did not hold a RunState: {type(state)!r}")
    return state


@dataclass(frozen=True)
class Stage:
    """One named step of a solve path."""

    name: str
    fn: StageFn

    def run(self, state: RunState, emit: Callable[[Event], None]) -> str | None:
        return self.fn(state, emit)


class Pipeline:
    """Executes a stage list over a :class:`RunState`.

    ``calls_probe(state)`` reads the cumulative LLM-call counter of the
    run (e.g. an agent team's total); the runner differences it across
    each stage for the :class:`~repro.core.events.StageFinished`
    accounting.  ``checkpoint(state)`` is invoked after every completed
    stage with the cursor already advanced, so restoring the latest
    checkpoint and calling :meth:`run` again continues the run exactly.
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
        stop_after: str | None = None,
        checkpoint: Callable[[RunState], None] | None = None,
    ) -> RunState:
        """Execute stages from ``state.next_stage`` onward.

        ``stop_after`` pauses the pipeline after the named stage (the
        state remains resumable); a stage returning :data:`DONE` marks
        the run finished and skips the rest.
        """
        if stop_after is not None and stop_after not in self.stage_names():
            raise ValueError(
                f"unknown stop_after stage {stop_after!r}; "
                f"stages: {', '.join(self.stage_names())}"
            )
        resolved = as_sink(sink) if sink is not None else NULL_SINK
        emit = resolved.emit
        if state.next_stage >= len(self.stages):
            # Nothing left to execute: an empty stage list, or a state
            # whose cursor already passed the last stage.  Mark it
            # finished rather than leaving a never-resumable state that
            # claims to be resumable (``stop_after`` equal to the final
            # stage must hand back a *finished* state -- see the
            # regression tests).
            state.finished = True
            if checkpoint is not None:
                checkpoint(state)
            return state
        for index in range(state.next_stage, len(self.stages)):
            if state.finished:
                break
            stage = self.stages[index]
            emit(StageStarted(stage=stage.name, index=index))
            calls_before = (
                self.calls_probe(state) if self.calls_probe is not None else 0
            )
            started = time.perf_counter()
            # The stage's emit doubles as the thread's ambient sink, so
            # layers without a sink in their signature (the LLM gateway
            # under the agents) narrate into this run's stream.
            with ambient_sink(emit):
                signal = stage.run(state, emit)
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
            state.next_stage = index + 1
            if signal == DONE or state.next_stage >= len(self.stages):
                state.finished = True
            if checkpoint is not None:
                checkpoint(state)
            if state.finished or stop_after == stage.name:
                break
        return state


@dataclass(frozen=True)
class ProgramSpec:
    """Picklable recipe for resuming a run state anywhere.

    Every solve path stores one of these in ``state.data["program"]``
    when it starts a run, so a checkpointed state carries everything
    another process needs to keep driving it: how to rebuild the
    pipeline and how to read the final source out of the finished state.

    All callables must be module-level functions or ``functools.partial``
    objects over them, so specs survive ``RunState.snapshot()`` round
    trips across process boundaries.
    """

    pipeline_factory: Callable[[], "Pipeline"]
    system: str
    task_name: str
    extractor: Callable[["RunState"], str]


@dataclass
class RunProgram:
    """A started run: the spec plus its live state.

    ``advance`` drives the state (optionally pausing via ``stop_after``)
    and is safe to call repeatedly until ``finished``; ``source`` reads
    the final RTL out of a finished state.
    """

    spec: ProgramSpec
    state: RunState

    def pipeline(self) -> Pipeline:
        return self.spec.pipeline_factory()

    @property
    def finished(self) -> bool:
        return self.state.finished

    def advance(
        self,
        sink: EventSink | Callable[[Event], None] | None = None,
        stop_after: str | None = None,
        checkpoint: Callable[[RunState], None] | None = None,
    ) -> RunState:
        resolved = as_sink(sink)
        if self.state.next_stage == 0 and not self.state.data.get("run_started"):
            self.state.data["run_started"] = True
            resolved.emit(
                RunStarted(
                    system=self.spec.system,
                    task_name=self.spec.task_name,
                    seed=self.state.seed,
                )
            )
        return self.pipeline().run(
            self.state, sink=resolved, stop_after=stop_after, checkpoint=checkpoint
        )

    def source(self) -> str:
        if not self.state.finished:
            raise ValueError(
                "run is not finished "
                f"(next stage index {self.state.next_stage})"
            )
        return self.spec.extractor(self.state)


def start_program(spec: ProgramSpec, state: RunState) -> RunProgram:
    """Bind a spec to a fresh state (and record it for later resumes)."""
    state.data["program"] = spec
    return RunProgram(spec=spec, state=state)


class MemoryCheckpointer:
    """Keeps the latest state snapshot in memory (tests, in-process
    pause/resume)."""

    def __init__(self) -> None:
        self.blob: bytes | None = None
        self.saves = 0

    def __call__(self, state: RunState) -> None:
        self.blob = state.snapshot()
        self.saves += 1

    def restore(self) -> RunState:
        if self.blob is None:
            raise ValueError("no checkpoint has been saved")
        return restore_state(self.blob)


class FileCheckpointer:
    """Persists the latest state snapshot to one file (atomic rename)."""

    def __init__(self, path: str):
        self.path = path
        self.saves = 0

    def __call__(self, state: RunState) -> None:
        import os
        import tempfile

        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(state.snapshot())
        os.replace(tmp_path, self.path)
        self.saves += 1

    def restore(self) -> RunState:
        with open(self.path, "rb") as handle:
            return restore_state(handle.read())
