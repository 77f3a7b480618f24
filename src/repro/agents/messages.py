"""The design-context communication protocol (paper Sec. III-A).

Agents do not read each other's conversations; they exchange these
typed messages through the engine.  Each message renders itself into
the prompt fragment the receiving agent embeds -- keeping the protocol
textual (LLM-adaptable) while staying structured in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tb.runner import TestReport


@dataclass(frozen=True)
class SpecMessage:
    """The natural-language specification plus interface contract."""

    spec: str
    top: str
    kind: str
    clock: str | None

    def render(self) -> str:
        iface = f"Top module name: {self.top}. "
        if self.kind == "clocked":
            iface += f"Synchronous design, clock input '{self.clock}'."
        else:
            iface += "Purely combinational design."
        return f"## Specification\n{self.spec}\n\n{iface}"


@dataclass(frozen=True)
class TestbenchMessage:
    """A generated testbench travelling from the testbench agent."""

    __test__ = False  # a project type, not a pytest test class

    text: str

    def render(self) -> str:
        return f"## Optimized testbench\n```testbench\n{self.text}```"


@dataclass(frozen=True)
class CandidateMessage:
    """RTL code travelling between agents."""

    source: str

    def render(self) -> str:
        return f"## Current code\n```verilog\n{self.source}```"


@dataclass(frozen=True)
class ScoreMessage:
    """Judge-side summary of one simulation run."""

    score: float
    mismatches: int
    total_checks: int
    error: str | None

    @staticmethod
    def from_report(report: TestReport) -> "ScoreMessage":
        return ScoreMessage(
            score=report.score,
            mismatches=report.mismatches,
            total_checks=report.total_checks,
            error=report.error,
        )

    def render(self) -> str:
        if self.error is not None:
            return f"## Simulation result\ncompile/runtime failure: {self.error}"
        return (
            "## Simulation result\n"
            f"score s(r) = {self.score:.3f} "
            f"({self.mismatches} mismatches over {self.total_checks} checks)"
        )


@dataclass(frozen=True)
class VerdictMessage:
    """Judge verdict on a testbench review."""

    correct: bool
    rationale: str

    def render(self) -> str:
        status = "correct" if self.correct else "incorrect"
        return f"VERDICT: {status} - {self.rationale}"
