"""The MAGE engine: the five-step workflow (Fig. 1a) as a staged pipeline.

Step 1  testbench agent writes an optimized, checkpoint-logging
        testbench from the spec (plus golden hints when available);
Step 2  RTL agent writes the initial candidate (syntax loop, s=5);
Step 3  if the candidate fails, the judge reviews the testbench and
        orders regeneration when the testbench itself is wrong;
Step 4  high-temperature sampling of c candidates, simulation scoring,
        Top-K selection;
Step 5  checkpoint debugging with accept/rollback until s(r)=1 or the
        iteration cap.

Each step is a :class:`~repro.core.pipeline.Stage` over a
:class:`~repro.core.pipeline.RunState`, and :meth:`MAGE.solve` runs the
five of them in one pass.  Progress is narrated as typed events
(:mod:`repro.core.events`) from which the legacy
:class:`~repro.core.transcript.RunTranscript` is derived.  Because the
runner adds no control flow, the staged form issues exactly the same
LLM calls in the same order as the old imperative loop -- outputs are
bit-identical at fixed seeds.

The engine never sees the benchmark's golden testbench; final success
is judged externally (``repro.evaluation``) exactly like VerilogEval
scores submissions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.team import AgentTeam
from repro.core.config import MAGEConfig
from repro.core.debug_loop import debug_candidates
from repro.core.events import (
    Broadcast,
    CandidateScored,
    DebugRound,
    DebugSummary,
    EarlyFinish,
    Event,
    EventSink,
    InitialGenerated,
    ListSink,
    RunFinished,
    RunStarted,
    SamplingSummary,
    StageFinished,
    TestbenchReady,
    TestbenchRegenerated,
    TestbenchVerdict,
    as_sink,
)
from repro.core.pipeline import DONE, Pipeline, RunState, Stage
from repro.core.sampling import sample_and_rank
from repro.core.scoring import ScoredCandidate, best_candidate
from repro.core.task import DesignTask
from repro.core.transcript import RunTranscript, transcript_from_events
from repro.llm.factory import build_llm
from repro.llm.interface import LLMClient

_SINGLE_AGENT_PROMPT = (
    "You are a single engineering agent handling "
    "specification analysis, testbench writing, RTL "
    "design, scoring decisions, and debugging in one "
    "continuous conversation."
)


@dataclass
class MAGEResult:
    """Outcome of one engine run."""

    task: DesignTask
    source: str
    internal_score: float  # against the *optimized* testbench
    transcript: RunTranscript
    events: list[Event] = field(default_factory=list)

    @property
    def internal_pass(self) -> bool:
        return self.internal_score >= 1.0


# ----------------------------------------------------------------------
# Stage functions.  Everything they need lives in ``state.data``:
# config (seed-bound), team, task, golden_tb_hint, and the values
# earlier stages produced.
# ----------------------------------------------------------------------


def _stage_testbench(state: RunState, emit) -> None:
    """Step 1: optimized testbench."""
    data = state.data
    config: MAGEConfig = data["config"]
    team: AgentTeam = data["team"]
    tb_text, testbench = team.tb.generate(
        data["task"], config.judge_params, golden_hint=data["golden_tb_hint"]
    )
    data["tb_text"], data["testbench"] = tb_text, testbench
    emit(TestbenchReady(total_checks=testbench.total_checks))


def _stage_initial(state: RunState, emit) -> None:
    """Step 2: initial RTL (syntax loop inside), scored."""
    data = state.data
    config: MAGEConfig = data["config"]
    team: AgentTeam = data["team"]
    task: DesignTask = data["task"]
    source, clean = team.rtl.generate_initial(
        task, data["tb_text"], config.initial_generation
    )
    emit(InitialGenerated(clean=clean))
    initial = ScoredCandidate(
        source, team.judge.score(source, data["testbench"], task.top)
    )
    data["initial"] = initial
    emit(
        CandidateScored(
            origin="initial", score=initial.score, passed=initial.passed
        )
    )


def _stage_arbitrate(state: RunState, emit) -> str | None:
    """Step 3: testbench arbitration (and the direct-pass short-circuit)."""
    data = state.data
    config: MAGEConfig = data["config"]
    team: AgentTeam = data["team"]
    task: DesignTask = data["task"]
    initial: ScoredCandidate = data["initial"]
    regens = 0
    while not initial.passed and regens < config.max_tb_regens:
        verdict = team.judge.review_testbench(
            task, data["tb_text"], initial.report, config.judge_params
        )
        if verdict.correct:
            emit(TestbenchVerdict(correct=True, rationale=verdict.rationale))
            break
        regens += 1
        emit(TestbenchVerdict(correct=False, rationale=verdict.rationale))
        tb_text, testbench = team.tb.generate(
            task,
            config.judge_params,
            golden_hint=data["golden_tb_hint"],
            reason=verdict.rationale,
        )
        data["tb_text"], data["testbench"] = tb_text, testbench
        emit(TestbenchReady(total_checks=testbench.total_checks, regen_index=regens))
        initial = ScoredCandidate(
            initial.source, team.judge.score(initial.source, testbench, task.top)
        )
        data["initial"] = initial
        emit(TestbenchRegenerated(regen_index=regens, rescored=initial.score))
    data["tb_regens"] = regens
    if initial.passed:
        data["winner"] = initial
        emit(EarlyFinish(reason="initial-pass"))
        return DONE
    return None


def _stage_sample(state: RunState, emit) -> str | None:
    """Step 4: high-temperature sampling and ranking."""
    data = state.data
    config: MAGEConfig = data["config"]
    team: AgentTeam = data["team"]
    outcome = sample_and_rank(
        data["task"],
        data["tb_text"],
        data["testbench"],
        team.rtl,
        team.judge,
        config,
        extra=[data["initial"]],
    )
    for index, candidate in enumerate(outcome.candidates[1:]):
        emit(
            CandidateScored(
                origin="sampled",
                score=candidate.score,
                passed=candidate.passed,
                index=index,
            )
        )
    emit(
        SamplingSummary(
            pool_scores=tuple(outcome.scores),
            selected_scores=tuple(c.score for c in outcome.selected),
        )
    )
    data["selected"] = outcome.selected
    if any(c.passed for c in outcome.selected):
        data["winner"] = best_candidate(outcome.selected)
        emit(EarlyFinish(reason="sampled-pass"))
        return DONE
    return None


def _stage_debug(state: RunState, emit) -> None:
    """Step 5: checkpoint debugging with rollback."""
    data = state.data
    config: MAGEConfig = data["config"]
    team: AgentTeam = data["team"]

    def on_round(index: int, scores: list[float]) -> None:
        emit(DebugRound(round_index=index, scores=tuple(scores)))

    outcome = debug_candidates(
        data["task"],
        data["testbench"],
        data["selected"],
        team.debug,
        team.judge,
        config,
        on_round=on_round,
    )
    winner = outcome.best
    data["winner"] = winner
    emit(
        DebugSummary(
            rounds=len(outcome.round_scores) - 1, best_score=winner.score
        )
    )


def _team_calls(state: RunState) -> int:
    return state.data["team"].llm_calls


def mage_pipeline() -> Pipeline:
    """The five-step workflow as a declarative stage list."""
    return Pipeline(
        "mage",
        [
            Stage("step1", _stage_testbench),
            Stage("step2", _stage_initial),
            Stage("step3", _stage_arbitrate),
            Stage("step4", _stage_sample),
            Stage("step5", _stage_debug),
        ],
        calls_probe=_team_calls,
    )


class MAGE:
    """The multi-agent engine.

    ``single_agent=True`` in the config reproduces the Table III
    ablation: all four roles share one conversation history and the
    model profile is pollution-penalised.
    """

    def __init__(self, config: MAGEConfig | None = None, llm: LLMClient | None = None):
        self.config = config or MAGEConfig()
        self.llm = build_llm(
            self.config.model, llm=llm, merged_history=self.config.single_agent
        )
        self.team = AgentTeam.build(
            self.llm,
            shared_prompt=(
                _SINGLE_AGENT_PROMPT if self.config.single_agent else None
            ),
        )
        # Role aliases (the pre-pipeline attribute names).
        self.tb_agent = self.team.tb
        self.rtl_agent = self.team.rtl
        self.judge = self.team.judge
        self.debug_agent = self.team.debug

    # ------------------------------------------------------------------

    def solve(
        self,
        task: DesignTask,
        golden_tb_hint: str | None = None,
        seed: int = 0,
        sink: EventSink | None = None,
    ) -> MAGEResult:
        """Run the five-step workflow on one task.

        ``sink`` subscribes to the typed event stream (stage
        boundaries, candidate scorings, debug rounds, accounting); the
        same events are kept on the returned :class:`MAGEResult`.
        """
        state = RunState(
            seed=seed,
            data={
                "config": self.config.with_seed(seed),
                "team": self.team,
                "task": task,
                "golden_tb_hint": golden_tb_hint,
            },
        )
        recorded = ListSink()
        emit = Broadcast(recorded, as_sink(sink)).emit
        emit(
            RunStarted(
                system=f"mage[{self.config.model}]",
                task_name=task.name,
                seed=seed,
            )
        )
        mage_pipeline().run(state, sink=emit)
        winner: ScoredCandidate = state.data["winner"]
        seconds = sum(
            e.seconds for e in recorded.events if isinstance(e, StageFinished)
        )
        emit(
            RunFinished(
                score=winner.score,
                passed=winner.passed,
                llm_calls=self.team.llm_calls,
                seconds=seconds,
            )
        )
        return MAGEResult(
            task=task,
            source=winner.source,
            internal_score=winner.score,
            transcript=transcript_from_events(recorded.events, task_name=task.name),
            events=recorded.events,
        )
