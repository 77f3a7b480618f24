"""Ablation configurations (paper Table III and the Fig. 3/4 switches)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro.baselines.registry import MAGESystem
from repro.baselines.single_agent import SingleAgentPipeline
from repro.baselines.vanilla import VanillaLLM
from repro.core.config import MAGEConfig
from repro.llm.interface import SamplingParams


@dataclass(frozen=True)
class AblationArm:
    """One row of Table III."""

    key: str
    label: str
    factory: Callable[[], object]


def _vanilla() -> VanillaLLM:
    return VanillaLLM(
        "claude-3.5-sonnet", SamplingParams(temperature=0.0, top_p=0.01, n=1)
    )


def _single_agent() -> SingleAgentPipeline:
    return SingleAgentPipeline("claude-3.5-sonnet", MAGEConfig.low_temperature())


TABLE3_ARMS: list[AblationArm] = [
    AblationArm("vanilla", "Vanilla LLM", _vanilla),
    AblationArm("single-agent", "Single-Agent", _single_agent),
    AblationArm(
        "multi-agent",
        "Multi-Agent",
        partial(
            MAGESystem,
            MAGEConfig.low_temperature(),
            name="multi-agent[claude-3.5-sonnet,T=0]",
        ),
    ),
]


def checkpoint_ablation_configs() -> dict[str, MAGEConfig]:
    """MAGE with and without the state-checkpoint mechanism (Fig. 3)."""
    base = MAGEConfig.high_temperature()
    return {
        "with-checkpoints": base,
        "without-checkpoints": replace(base, use_checkpoints=False),
    }


def sampling_ablation_configs() -> dict[str, MAGEConfig]:
    """MAGE with and without Step-4 sampling (Fig. 4a)."""
    base = MAGEConfig.high_temperature()
    return {
        "with-sampling": base,
        "without-sampling": replace(base, use_sampling=False),
    }
