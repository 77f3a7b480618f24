"""Testbench generation agent (paper Step 1 / Step 3 regeneration).

Produces optimized testbenches in the textual waveform-output format,
from the natural-language spec (plus the golden testbench when the
benchmark provides one).  Responses are parsed and re-requested on
format errors, mirroring the syntax-fix loop on the RTL side.
"""

from __future__ import annotations

from repro.agents.base import Agent
from repro.agents.messages import SpecMessage
from repro.core.task import DesignTask
from repro.llm.interface import SamplingParams
from repro.llm.simllm import extract_tb_block
from repro.tb.stimulus import Testbench, TestbenchFormatError, parse_testbench

_MAX_FORMAT_RETRIES = 3


class TestbenchAgent(Agent):
    __test__ = False  # a project type, not a pytest test class

    role = "testbench"
    system_prompt = (
        "You are a hardware verification specialist. You write optimized "
        "testbenches that log a state checkpoint (inputs, DUT outputs, "
        "expected outputs) at every clock edge, in the textual TESTBENCH "
        "format, so downstream agents can localise the earliest mismatch."
    )

    def generate(
        self,
        task: DesignTask,
        params: SamplingParams,
        golden_hint: str | None = None,
        reason: str | None = None,
    ) -> tuple[str, Testbench]:
        """Generate (testbench text, parsed testbench) for a task.

        ``reason`` carries the judge's complaint when this is a Step-3
        regeneration; ``golden_hint`` carries benchmark-provided golden
        testbench text when available (VerilogEval v1 ships one).
        """
        spec = SpecMessage(task.spec, task.top, task.kind, task.clock)
        prompt_parts = [
            "Write a testbench for the design below. Produce an optimized "
            "testbench that records a state checkpoint at every checked "
            "step, in the TESTBENCH text format inside a ```testbench "
            "fence.",
            spec.render(),
        ]
        if golden_hint is not None:
            prompt_parts.append(
                "## Golden testbench (reference stimulus)\n"
                f"```testbench\n{golden_hint}```"
            )
        if reason is not None:
            prompt_parts.append(
                f"## Review feedback\nThe previous testbench was judged "
                f"incorrect: {reason} Regenerate an improved testbench."
            )
        prompt = "\n\n".join(prompt_parts)
        last_error = "no testbench block found"
        for _ in range(_MAX_FORMAT_RETRIES):
            reply = self.ask(prompt, params)
            text = extract_tb_block(reply)
            if text is not None:
                try:
                    tb = parse_testbench(text, name=f"tb_{task.name}")
                    return text, tb
                except TestbenchFormatError as exc:
                    last_error = str(exc)
            prompt = (
                "The previous answer was not a valid TESTBENCH block "
                f"({last_error}). Write a testbench again, as a single "
                "```testbench fenced block in the TESTBENCH text format."
                f"\n\n{spec.render()}"
            )
        raise RuntimeError(
            f"testbench agent failed to produce a parseable testbench: {last_error}"
        )
