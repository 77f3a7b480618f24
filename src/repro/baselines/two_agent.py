"""AIVRIL-style two-agent baseline: coder + reviewer.

A basic division of labour (paper Sec. II-A): one *coder* agent writes
both the testbench and the RTL in a single shared conversation -- so it
still pays the synthesizable/non-synthesizable context switch -- and a
*reviewer* agent runs the simulator and reports aggregate pass-rate
feedback (no state checkpoints, no candidate sampling, no testbench
arbitration).

Runs as a staged :class:`~repro.core.pipeline.Pipeline`: testbench,
initial RTL, then one unrolled review stage per iteration.  Reviewer
simulations go through the runtime's content-addressed cache
(:func:`~repro.runtime.cache.cached_run_testbench`) exactly like the
MAGE judge path -- previously the final ``run_testbench`` bypassed it.
"""

from __future__ import annotations

from repro.agents.team import AgentTeam
from repro.core.events import (
    CandidateScored,
    EventSink,
    InitialGenerated,
    RunStarted,
    TestbenchReady,
    as_sink,
)
from repro.core.pipeline import DONE, Pipeline, RunState, Stage
from repro.core.task import DesignTask
from repro.llm.factory import build_llm
from repro.llm.interface import SamplingParams
from repro.runtime.cache import cached_run_testbench

_CODER_PROMPT = (
    "You are an engineering agent writing both testbenches and "
    "RTL for each request in one continuous conversation."
)


def _stage_testbench(state: RunState, emit) -> None:
    data = state.data
    team: AgentTeam = data["team"]
    tb_text, testbench = team.tb.generate(data["task"], data["gen_params"])
    data["tb_text"], data["testbench"] = tb_text, testbench
    emit(TestbenchReady(total_checks=testbench.total_checks))


def _stage_initial(state: RunState, emit) -> None:
    data = state.data
    team: AgentTeam = data["team"]
    code, clean = team.rtl.generate_initial(
        data["task"], data["tb_text"], data["gen_params"]
    )
    data["code"] = code
    emit(InitialGenerated(clean=clean))


def _stage_review(state: RunState, emit) -> str | None:
    """One reviewer iteration: simulate, stop on pass, else debug."""
    data = state.data
    team: AgentTeam = data["team"]
    task: DesignTask = data["task"]
    report = cached_run_testbench(data["code"], data["testbench"], task.top)
    iteration = data["iteration"] = data.get("iteration", 0) + 1
    emit(
        CandidateScored(
            origin="review",
            score=report.score,
            passed=report.passed,
            index=iteration - 1,
        )
    )
    if report.passed:
        return DONE
    # Reviewer feedback is aggregate-only (no checkpoints).
    data["code"] = team.debug.debug(
        task, data["code"], report, data["fix_params"], use_checkpoints=False
    )
    return None


def two_agent_pipeline(iterations: int) -> Pipeline:
    stages = [
        Stage("testbench", _stage_testbench),
        Stage("initial", _stage_initial),
    ]
    stages += [
        Stage(f"review-{index + 1}", _stage_review)
        for index in range(iterations)
    ]
    return Pipeline("two-agent", stages, calls_probe=_team_calls)


def _team_calls(state: RunState) -> int:
    return state.data["team"].llm_calls


class TwoAgentSystem:
    """Coder (RTL + testbench, shared history) plus simulator-reviewer."""

    def __init__(
        self,
        model: str = "claude-3.5-sonnet",
        iterations: int = 2,
        coder_pollution: tuple[float, float, float] = (1.35, 0.75, 2.2),
    ):
        self.llm = build_llm(model, pollution=coder_pollution)
        self.iterations = iterations
        self.name = f"two-agent[{model}]"

    def solve(
        self, task: DesignTask, seed: int = 0, sink: EventSink | None = None
    ) -> str:
        # One shared conversation for everything the coder does.
        team = AgentTeam.build(self.llm, shared_prompt=_CODER_PROMPT)
        state = RunState(
            seed=seed,
            data={
                "task": task,
                "team": team,
                "gen_params": SamplingParams(
                    temperature=0.0, top_p=0.01, n=1, seed=seed
                ),
                "fix_params": SamplingParams(
                    temperature=0.4, top_p=0.95, n=1, seed=seed
                ),
            },
        )
        live = as_sink(sink)
        live.emit(RunStarted(system=self.name, task_name=task.name, seed=seed))
        two_agent_pipeline(self.iterations).run(state, sink=live)
        return state.data["code"]
