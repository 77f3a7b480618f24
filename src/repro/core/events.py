"""Typed run events and pluggable sinks.

Every solve path (MAGE and the baselines) executes as a staged
:class:`~repro.core.pipeline.Pipeline` that narrates progress by
emitting the frozen dataclasses below -- stage boundaries, candidate
scorings, testbench arbitration, debug rounds, LLM-call and wall-clock
accounting -- instead of appending free-form transcript strings.
Consumers subscribe by passing any object with an ``emit(event)``
method (or a plain callable wrapped in :class:`CallbackSink`):

- :class:`~repro.core.transcript.TranscriptBuilder` folds the stream
  back into the legacy :class:`~repro.core.transcript.RunTranscript`
  (the paper-figure extractors read those fields);
- :class:`StreamSink` renders one human line per event for the CLI's
  live ``run``/``--progress`` modes;
- :class:`ListSink` records the stream verbatim (what the solve-cell
  cache stores next to the source).

Events are immutable and picklable: they cross process boundaries
inside cached solve cells and checkpointed run states.  They are also
JSON round-trippable (:meth:`Event.to_json` / :meth:`Event.from_json`):
the service wire protocol ships the exact event stream a local run
would produce, so a remote client rebuilds transcripts and figures
from frames alone -- no transcript parsing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Protocol, runtime_checkable

# kind -> concrete event class; populated as subclasses are defined.
EVENT_TYPES: dict[str, type["Event"]] = {}


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _from_jsonable(value: Any) -> Any:
    # Events carry no list fields; every JSON array was a tuple.
    if isinstance(value, list):
        return tuple(_from_jsonable(item) for item in value)
    return value


@dataclass(frozen=True)
class Event:
    """Base event: ``kind`` discriminates, ``render()`` humanises."""

    kind: ClassVar[str] = "event"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        EVENT_TYPES[cls.kind] = cls

    def render(self) -> str:
        pairs = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{self.kind}({pairs})"

    def to_json(self) -> dict:
        """JSON-ready payload: ``kind`` plus every field (tuples as lists)."""
        payload: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            payload[f.name] = _jsonable(getattr(self, f.name))
        return payload

    @staticmethod
    def from_json(payload: dict) -> "Event":
        """Rebuild the concrete event from a :meth:`to_json` payload.

        Unknown fields are ignored (forward compatibility) and a
        missing field falls back to its dataclass default, so old
        clients can read frames from newer servers and vice versa.
        Raises ``ValueError`` for an unknown kind or a payload missing
        a required (defaultless) field.
        """
        kind = payload.get("kind")
        cls = EVENT_TYPES.get(kind)
        if cls is None:
            raise ValueError(f"unknown event kind {kind!r}")
        kwargs = {
            f.name: _from_jsonable(payload[f.name])
            for f in fields(cls)
            if f.name in payload
        }
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"bad {kind!r} event payload: {exc}") from exc


# ----------------------------------------------------------------------
# Run-level events (one engine/baseline solve).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunStarted(Event):
    """A solve pipeline began on one task."""

    kind: ClassVar[str] = "run-started"
    system: str
    task_name: str
    seed: int

    def render(self) -> str:
        return f"run started: {self.system} on {self.task_name} (seed {self.seed})"


@dataclass(frozen=True)
class StageStarted(Event):
    kind: ClassVar[str] = "stage-started"
    stage: str
    index: int

    def render(self) -> str:
        return f"stage {self.stage} started"


@dataclass(frozen=True)
class StageFinished(Event):
    """Stage boundary with wall-clock and LLM-call accounting."""

    kind: ClassVar[str] = "stage-finished"
    stage: str
    index: int
    seconds: float
    llm_calls: int = 0  # completions consumed during this stage

    def render(self) -> str:
        return (
            f"stage {self.stage} finished in {self.seconds:.3f}s "
            f"({self.llm_calls} LLM calls)"
        )


@dataclass(frozen=True)
class TestbenchReady(Event):
    """Step 1 (or a Step-3 regeneration) produced a parseable testbench."""

    kind: ClassVar[str] = "testbench-ready"
    total_checks: int
    regen_index: int = 0  # 0 = the Step-1 original

    def render(self) -> str:
        origin = "regenerated" if self.regen_index else "generated"
        return f"testbench {origin}: {self.total_checks} checkpointed checks"


@dataclass(frozen=True)
class InitialGenerated(Event):
    """Step 2 produced the initial RTL candidate."""

    kind: ClassVar[str] = "initial-generated"
    clean: bool  # syntax loop converged within s=5 rounds

    def render(self) -> str:
        return "initial RTL generated" + (
            "" if self.clean else " (syntax errors remain)"
        )


@dataclass(frozen=True)
class CandidateScored(Event):
    """One candidate simulated against the optimized testbench."""

    kind: ClassVar[str] = "candidate-scored"
    origin: str  # "initial" | "sampled" | "debug"
    score: float
    passed: bool
    index: int = 0

    def render(self) -> str:
        return f"{self.origin} candidate {self.index} scored {self.score:.3f}"


@dataclass(frozen=True)
class TestbenchVerdict(Event):
    """Step 3: the judge reviewed the testbench."""

    kind: ClassVar[str] = "testbench-verdict"
    correct: bool
    rationale: str = ""

    def render(self) -> str:
        return (
            "judge upheld the testbench"
            if self.correct
            else f"judge rejected the testbench: {self.rationale}"
        )


@dataclass(frozen=True)
class TestbenchRegenerated(Event):
    """Step 3: a fresh testbench, with the initial candidate rescored."""

    kind: ClassVar[str] = "testbench-regenerated"
    regen_index: int
    rescored: float

    def render(self) -> str:
        return f"regenerated testbench; initial rescored {self.rescored:.3f}"


@dataclass(frozen=True)
class SamplingSummary(Event):
    """Step 4 outcome: the scored pool and the Top-K selection."""

    kind: ClassVar[str] = "sampling-summary"
    pool_scores: tuple[float, ...]
    selected_scores: tuple[float, ...]

    def render(self) -> str:
        best = max(self.pool_scores, default=0.0)
        return (
            f"sampled {len(self.pool_scores)} candidates; best {best:.3f}; "
            f"kept top-{len(self.selected_scores)}"
        )


@dataclass(frozen=True)
class DebugRound(Event):
    """Step 5: survivor scores after one accept/rollback round.

    Round 0 is the pre-debug selection (matching the leading entry of
    the legacy ``debug_round_scores``).
    """

    kind: ClassVar[str] = "debug-round"
    round_index: int
    scores: tuple[float, ...]

    def render(self) -> str:
        rendered = ", ".join(f"{s:.3f}" for s in self.scores)
        return f"debug round {self.round_index}: [{rendered}]"


@dataclass(frozen=True)
class DebugSummary(Event):
    kind: ClassVar[str] = "debug-summary"
    rounds: int
    best_score: float

    def render(self) -> str:
        return (
            f"debugging finished after {self.rounds} rounds; "
            f"best score {self.best_score:.3f}"
        )


@dataclass(frozen=True)
class EarlyFinish(Event):
    """The run short-circuited before later stages."""

    kind: ClassVar[str] = "early-finish"
    reason: str  # "initial-pass" | "sampled-pass"

    def render(self) -> str:
        if self.reason == "initial-pass":
            return "initial candidate passed; skipping steps 4-5"
        if self.reason == "sampled-pass":
            return "a sampled candidate passed; skipping step 5"
        return f"finished early: {self.reason}"


@dataclass(frozen=True)
class RunFinished(Event):
    """Terminal event: the winner plus total accounting."""

    kind: ClassVar[str] = "run-finished"
    score: float
    passed: bool
    llm_calls: int
    seconds: float
    stage: str = "done"

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"run finished: {verdict} score {self.score:.3f} "
            f"({self.llm_calls} LLM calls, {self.seconds:.3f}s)"
        )


@dataclass(frozen=True)
class GatewayCall(Event):
    """One LLM gateway call with token/cost accounting.

    Emitted by the :mod:`repro.llm.gateway` client for every completion
    request it serves -- live, recorded, or replayed from a cassette.
    The fields are deterministic functions of the request and the
    serving backend (no wall-clock, no attempt counts), so a cassette
    replay emits the *bit-identical* event the recording run emitted:
    transcripts, solve-cell records, and the parity matrix stay exact
    across record/replay.  Operational counters (retries, backend
    fallback hops, rate-limit waits) live in the gateway's
    process-global stats instead, surfaced through ``StatsReply`` and
    the ``stats`` CLI.
    """

    kind: ClassVar[str] = "gateway-call"
    model: str
    backend: str
    role: str = ""
    n: int = 1
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost: float = 0.0

    def render(self) -> str:
        role = f" [{self.role}]" if self.role else ""
        return (
            f"gateway {self.model}{role} via {self.backend}: "
            f"{self.n} completion(s), "
            f"{self.prompt_tokens}+{self.completion_tokens} tokens"
        )


# ----------------------------------------------------------------------
# Batch-level events (evaluate_many streaming).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellFinished(Event):
    """One (problem, run) evaluation cell completed (completion order)."""

    kind: ClassVar[str] = "cell-finished"
    problem_id: str
    run_index: int
    passed: bool
    score: float
    seconds: float
    solve_cached: bool = False

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        cached = " [cached]" if self.solve_cached else ""
        return (
            f"{self.problem_id} run {self.run_index}: {verdict} "
            f"score {self.score:.3f} ({self.seconds:.2f}s){cached}"
        )


@dataclass(frozen=True)
class BatchFinished(Event):
    """The whole evaluation grid completed."""

    kind: ClassVar[str] = "batch-finished"
    cells: int
    seconds: float

    def render(self) -> str:
        return f"batch finished: {self.cells} cells in {self.seconds:.2f}s"


# ----------------------------------------------------------------------
# Sinks.
# ----------------------------------------------------------------------


@runtime_checkable
class EventSink(Protocol):
    """Anything that can receive the event stream."""

    def emit(self, event: Event) -> None: ...


class NullSink:
    """Discards everything (the default when nobody subscribes)."""

    def emit(self, event: Event) -> None:
        pass


NULL_SINK = NullSink()


class ListSink:
    """Records the stream verbatim (tests, caching, figures)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)


class CallbackSink:
    """Adapts a plain callable to the sink protocol."""

    def __init__(self, fn: Callable[[Event], None]):
        self.fn = fn

    def emit(self, event: Event) -> None:
        self.fn(event)


class StreamSink:
    """Renders one line per event through ``write`` (CLI live streams).

    ``kinds`` filters the stream; None passes everything through.
    """

    def __init__(
        self,
        write: Callable[[str], None] = print,
        kinds: set[str] | None = None,
        prefix: str = "",
    ):
        self.write = write
        self.kinds = kinds
        self.prefix = prefix

    def emit(self, event: Event) -> None:
        if self.kinds is not None and event.kind not in self.kinds:
            return
        self.write(f"{self.prefix}{event.render()}")


class Broadcast:
    """Fans one stream out to several sinks, in order."""

    def __init__(self, *sinks: EventSink):
        self.sinks = [s for s in sinks if s is not None]

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)


def as_sink(
    target: EventSink | Callable[[Event], None] | None,
) -> EventSink:
    """Normalise a sink argument: sink, bare callable, or None."""
    if target is None:
        return NULL_SINK
    if hasattr(target, "emit"):
        return target
    return CallbackSink(target)


# ----------------------------------------------------------------------
# Ambient sink: how deep layers reach the run's event stream.
# ----------------------------------------------------------------------
#
# Stage functions receive ``emit`` explicitly, but code *below* them --
# the LLM gateway inside an agent inside a stage -- has no sink in its
# signature and must not grow one (the LLMClient protocol is
# deliberately sink-free).  The pipeline runner installs the active
# stage's emit as a thread-local ambient sink around every stage body;
# anything executing under it can narrate into the run's stream with
# :func:`emit_ambient`.  A stack (not a single slot) keeps nested runs
# sane, and thread-locality keeps concurrent cells' streams separate.

_AMBIENT = threading.local()


@contextmanager
def ambient_sink(target: EventSink | Callable[[Event], None] | None):
    """Install ``target`` as this thread's ambient event sink."""
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    stack.append(as_sink(target))
    try:
        yield
    finally:
        stack.pop()


def emit_ambient(event: Event) -> bool:
    """Emit into the innermost ambient sink; False when none is active."""
    stack = getattr(_AMBIENT, "stack", None)
    if not stack:
        return False
    stack[-1].emit(event)
    return True
