"""Vanilla baseline: one-pass generation, no verification loop.

Even the single-stage system runs as a :class:`~repro.core.pipeline.
Pipeline`, so every solve path in the repo shares one execution model
(typed events, per-stage accounting, solve-cell caching).
"""

from __future__ import annotations

from repro.core.events import EventSink, RunStarted, as_sink
from repro.core.pipeline import Pipeline, RunState, Stage
from repro.core.task import DesignTask
from repro.llm.factory import build_llm
from repro.llm.interface import ChatMessage, LLMClient, SamplingParams
from repro.llm.simllm import extract_code_block

_SYSTEM_PROMPT = (
    "You are an expert RTL design engineer. You write clean, "
    "synthesizable Verilog-2001 that matches specifications exactly."
)


def _stage_generate(state: RunState, emit) -> None:
    data = state.data
    task: DesignTask = data["task"]
    params: SamplingParams = data["params"]
    messages = [
        ChatMessage("system", _SYSTEM_PROMPT),
        ChatMessage(
            "user",
            "Write a synthesizable Verilog module that implements the "
            "specification. Answer with a single ```verilog fenced "
            f"block.\n\n## Specification\n{task.spec}\n\n"
            f"Top module name: {task.top}.",
        ),
    ]
    reply = data["llm"].complete(messages, params)
    data["llm_calls"] = data.get("llm_calls", 0) + 1
    data["source"] = extract_code_block(reply) or ""


def _state_calls(state: RunState) -> int:
    return state.data.get("llm_calls", 0)


def vanilla_pipeline() -> Pipeline:
    return Pipeline(
        "vanilla", [Stage("generate", _stage_generate)], calls_probe=_state_calls
    )


class VanillaLLM:
    """Single-pass spec-to-RTL generation (Table II "Generic LLM" rows)."""

    def __init__(
        self,
        model: str = "claude-3.5-sonnet",
        params: SamplingParams | None = None,
        llm: LLMClient | None = None,
    ):
        self.llm = build_llm(model, llm=llm)
        self.params = params or SamplingParams(temperature=0.0, top_p=0.01, n=1)
        self.name = f"vanilla[{self.llm.model_name}]"

    def solve(
        self, task: DesignTask, seed: int = 0, sink: EventSink | None = None
    ) -> str:
        params = SamplingParams(
            temperature=self.params.temperature,
            top_p=self.params.top_p,
            n=1,
            seed=seed,
        )
        state = RunState(
            seed=seed,
            data={"task": task, "params": params, "llm": self.llm},
        )
        live = as_sink(sink)
        live.emit(RunStarted(system=self.name, task_name=task.name, seed=seed))
        vanilla_pipeline().run(state, sink=live)
        return state.data["source"]
