"""Step 5: RTL debugging with the state-checkpoint mechanism.

For each selected candidate r*, run debug trials D(r*) and keep the
better of {D(r*), r*} by score -- the Eq. 4 accept/rollback update --
until some candidate reaches s(r) = 1 or the iteration limit.
Feedback is the Eq. 5/6 checkpoint window (or the aggregate log in the
ablated configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.agents.debug_agent import DebugAgent
from repro.agents.judge_agent import JudgeAgent
from repro.core.config import MAGEConfig
from repro.core.scoring import ScoredCandidate, best_candidate, better
from repro.core.task import DesignTask
from repro.tb.stimulus import Testbench


@dataclass
class DebugOutcome:
    """Step-5 record: the surviving candidates and per-round mean scores."""

    survivors: list[ScoredCandidate] = field(default_factory=list)
    round_scores: list[list[float]] = field(default_factory=list)

    @property
    def best(self) -> ScoredCandidate:
        return best_candidate(self.survivors)


def draw_trials(
    task: DesignTask,
    survivors: list[ScoredCandidate],
    debug_agent: DebugAgent,
    config: MAGEConfig,
) -> list[tuple[int, str]]:
    """Phase 1 of one debug round: draw one trial per active incumbent.

    Serial on purpose -- LLM-call ordering is part of the
    reproducibility contract, so trials are never reordered by worker
    count.  Incumbents that already pass, or whose report carries a
    compile/elaboration error (no signal to debug against), are
    skipped, exactly as the inline loop does.
    """
    trials: list[tuple[int, str]] = []
    for index, incumbent in enumerate(survivors):
        if incumbent.passed or incumbent.report.error is not None:
            continue
        trial_source = debug_agent.debug(
            task,
            incumbent.source,
            incumbent.report,
            config.debug_params,
            use_checkpoints=config.use_checkpoints,
            window=config.checkpoint_window,
        )
        trials.append((index, trial_source))
    return trials


def apply_round(
    survivors: list[ScoredCandidate],
    trials: list[tuple[int, str]],
    reports: list,
) -> list[ScoredCandidate]:
    """Phase 2 of one debug round: the Eq. 4 accept/rollback update.

    ``reports`` are the trial scorings in ``trials`` order.
    """
    updated = list(survivors)
    for (index, trial_source), report in zip(trials, reports):
        trial = ScoredCandidate(trial_source, report)
        updated[index] = better(survivors[index], trial)
    return updated


def debug_candidates(
    task: DesignTask,
    testbench: Testbench,
    selected: list[ScoredCandidate],
    debug_agent: DebugAgent,
    judge: JudgeAgent,
    config: MAGEConfig,
    on_round: Callable[[int, list[float]], None] | None = None,
) -> DebugOutcome:
    """Iteratively refine the Top-K candidate set.

    ``on_round(index, scores)`` streams each appended row of
    ``round_scores`` as it happens (round 0 is the pre-debug selection),
    so event sinks see debugging progress live.
    """
    outcome = DebugOutcome(survivors=list(selected))
    outcome.round_scores.append([c.score for c in outcome.survivors])
    if on_round is not None:
        on_round(0, outcome.round_scores[0])
    for _round in range(config.debug_iterations):
        if any(c.passed for c in outcome.survivors):
            break
        trials = draw_trials(task, outcome.survivors, debug_agent, config)
        reports = [
            judge.score(source, testbench, task.top) for _, source in trials
        ]
        outcome.survivors = apply_round(outcome.survivors, trials, reports)
        outcome.round_scores.append([c.score for c in outcome.survivors])
        if on_round is not None:
            on_round(len(outcome.round_scores) - 1, outcome.round_scores[-1])
    return outcome
