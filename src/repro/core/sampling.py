"""Step 4: high-temperature RTL candidate sampling and ranking.

Implements Sec. III-B: sample c candidates from
P_T(r | p_sys, SP_i, TB_i) (Eq. 1), score each with the optimized
testbench (Eq. 2), and keep the Top-K (Eq. 3).  The key mechanism is
order statistics: temperature raises per-sample variance, and
simulation-based scoring harvests the right tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.judge_agent import JudgeAgent
from repro.agents.rtl_agent import RTLAgent
from repro.core.config import MAGEConfig
from repro.core.scoring import ScoredCandidate, select_top_k
from repro.core.task import DesignTask
from repro.tb.stimulus import Testbench


@dataclass
class SamplingOutcome:
    """Everything Step 4 produced (kept for figures and transcripts)."""

    candidates: list[ScoredCandidate] = field(default_factory=list)
    selected: list[ScoredCandidate] = field(default_factory=list)

    @property
    def scores(self) -> list[float]:
        return [c.score for c in self.candidates]

    @property
    def best_score(self) -> float:
        return max((c.score for c in self.candidates), default=0.0)


def generate_candidates(
    task: DesignTask,
    tb_text: str,
    rtl_agent: RTLAgent,
    config: MAGEConfig,
) -> list[str]:
    """The LLM half of Step 4: draw the c high-temperature candidates.

    Always called in the run's own LLM-call order (the determinism
    contract pins per-run call ordering).
    """
    count = config.candidates if config.use_sampling else 0
    if count <= 0:
        return []
    return rtl_agent.sample_candidates(task, tb_text, config.generation, count)


def rank_candidates(
    sources: list[str],
    reports: list,
    config: MAGEConfig,
    extra: list[ScoredCandidate] | None = None,
) -> SamplingOutcome:
    """The pure half of Step 4: pool the scored candidates, keep Top-K.

    ``reports[i]`` must be the simulation report of ``sources[i]``; the
    pairing (and therefore the ranking) is order-sensitive, which is why
    every scoring path returns reports in source order.
    """
    outcome = SamplingOutcome()
    if extra:
        outcome.candidates.extend(extra)
    for source, report in zip(sources, reports):
        outcome.candidates.append(ScoredCandidate(source, report))
    outcome.selected = select_top_k(outcome.candidates, config.top_k)
    return outcome


def sample_and_rank(
    task: DesignTask,
    tb_text: str,
    testbench: Testbench,
    rtl_agent: RTLAgent,
    judge: JudgeAgent,
    config: MAGEConfig,
    extra: list[ScoredCandidate] | None = None,
) -> SamplingOutcome:
    """Sample c candidates, score them, select the Top-K.

    ``extra`` carries already-scored candidates (the Step-2 initial RTL)
    into the ranking pool so sampling can only improve on them.
    """
    sources = generate_candidates(task, tb_text, rtl_agent, config)
    reports = [judge.score(source, testbench, task.top) for source in sources]
    return rank_candidates(sources, reports, config, extra=extra)
