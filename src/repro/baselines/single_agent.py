"""Single-agent baselines.

Two families from the literature the paper compares against:

- :class:`SelfReflection` (OriGen-style): the model criticises and
  revises its own output from compiler feedback only -- no simulation.
- :class:`SingleAgentPipeline` (VeriAssist/AutoVCoder-style, and the
  Table III "Single-Agent" ablation): the full generate -> testbench ->
  simulate -> fix loop executed by ONE agent with ONE conversation
  history, paying the context-pollution penalty of Sec. II-A; feedback
  is an aggregate pass-rate log, not state checkpoints.

Both run as staged pipelines, in one pass per solve:
:class:`SelfReflection` is a generate stage plus one unrolled reflection
stage per round (a clean lint returns ``DONE`` and skips the rest), and
:class:`SingleAgentPipeline` is the MAGE stage list executed with a
merged-history configuration.
"""

from __future__ import annotations

from repro.core.config import MAGEConfig
from repro.core.engine import MAGE, MAGEResult
from repro.core.events import EventSink, InitialGenerated, RunStarted, as_sink
from repro.core.pipeline import DONE, Pipeline, RunState, Stage
from repro.core.task import DesignTask
from repro.hdl.lint import lint
from repro.llm.factory import build_llm
from repro.llm.interface import ChatMessage, LLMClient, SamplingParams
from repro.llm.simllm import extract_code_block


def _stage_generate(state: RunState, emit) -> None:
    data = state.data
    task: DesignTask = data["task"]
    messages = [
        ChatMessage(
            "system",
            "You are an RTL engineer improving your own code through "
            "self-reflection.",
        ),
        ChatMessage(
            "user",
            "Write a synthesizable Verilog module that implements the "
            f"specification.\n\n## Specification\n{task.spec}\n\n"
            f"Top module name: {task.top}.",
        ),
    ]
    reply = data["llm"].complete(messages, data["params"])
    data["llm_calls"] = data.get("llm_calls", 0) + 1
    data["messages"] = messages
    data["reply"] = reply
    data["code"] = extract_code_block(reply) or ""
    emit(InitialGenerated(clean=lint(data["code"], task.top).ok))


def _stage_reflect(state: RunState, emit) -> str | None:
    """One self-reflection round on compiler feedback only."""
    data = state.data
    task: DesignTask = data["task"]
    code = data["code"]
    report = lint(code, task.top)
    if report.ok:
        return DONE
    messages = data["messages"]
    messages.append(ChatMessage("assistant", data["reply"]))
    messages.append(
        ChatMessage(
            "user",
            "The code fails to compile. Fix the syntax errors.\n\n"
            f"## Compiler diagnostics\n{report.render()}\n\n"
            f"## Current code\n```verilog\n{code}```",
        )
    )
    reply = data["reply"] = data["llm"].complete(messages, data["params"])
    data["llm_calls"] = data.get("llm_calls", 0) + 1
    data["code"] = extract_code_block(reply) or code
    return None


def _state_calls(state: RunState) -> int:
    return state.data.get("llm_calls", 0)


def self_reflection_pipeline(rounds: int) -> Pipeline:
    stages = [Stage("generate", _stage_generate)]
    stages += [
        Stage(f"reflect-{index + 1}", _stage_reflect) for index in range(rounds)
    ]
    return Pipeline("self-reflection", stages, calls_probe=_state_calls)


class SelfReflection:
    """OriGen-style self-reflection on compiler feedback."""

    def __init__(
        self,
        model: str = "deepseek-coder-7b-lora",
        rounds: int = 2,
        llm: LLMClient | None = None,
    ):
        self.llm = build_llm(model, llm=llm)
        self.rounds = rounds
        self.name = f"self-reflection[{self.llm.model_name}]"

    def solve(
        self, task: DesignTask, seed: int = 0, sink: EventSink | None = None
    ) -> str:
        state = RunState(
            seed=seed,
            data={
                "task": task,
                "llm": self.llm,
                "params": SamplingParams(
                    temperature=0.0, top_p=0.01, n=1, seed=seed
                ),
            },
        )
        live = as_sink(sink)
        live.emit(RunStarted(system=self.name, task_name=task.name, seed=seed))
        self_reflection_pipeline(self.rounds).run(state, sink=live)
        return state.data["code"]


class SingleAgentPipeline:
    """The whole MAGE workflow collapsed into one agent/history.

    Implements the Table III "Single-Agent" configuration: same steps,
    shared conversation, pollution-penalised profile, and log-only
    debug feedback (a single agent has no checkpoint-emitting testbench
    specialist).
    """

    def __init__(self, model: str = "claude-3.5-sonnet", config: MAGEConfig | None = None):
        base = config or MAGEConfig.low_temperature()
        self.config = MAGEConfig(
            model=model,
            candidates=base.candidates,
            top_k=base.top_k,
            debug_iterations=base.debug_iterations,
            max_tb_regens=base.max_tb_regens,
            checkpoint_window=base.checkpoint_window,
            use_checkpoints=False,
            use_sampling=base.use_sampling,
            single_agent=True,
            generation=base.generation,
            debug_params=base.debug_params,
            judge_params=base.judge_params,
        )
        self.name = f"single-agent[{model}]"

    def solve(
        self, task: DesignTask, seed: int = 0, sink: EventSink | None = None
    ) -> str:
        return self.solve_full(task, seed, sink=sink).source

    def solve_full(
        self, task: DesignTask, seed: int = 0, sink: EventSink | None = None
    ) -> MAGEResult:
        engine = MAGE(self.config)
        return engine.solve(task, seed=seed, sink=sink)
