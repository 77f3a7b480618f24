"""Candidate genomes: the simulated LLM's internal account of its output.

A *genome* records what is wrong with a piece of generated text -- which
faults a candidate RTL module carries, or which expectations of a
testbench were corrupted.  The registry maps emitted text back to its
genome so that, when an agent sends code back for debugging, the
behavioural model knows what bugs are actually present (the analogue of
a real LLM re-reading its own code).

Genomes never leak to the agents: agents see only text, simulators see
only Verilog, and reports are computed from real simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.mutation import FaultInstance


@dataclass(frozen=True)
class CandidateGenome:
    """Fault content of one generated RTL candidate."""

    problem_id: str
    faults: tuple[FaultInstance, ...] = ()
    syntax_error: str | None = None  # description of the syntax-level flaw

    @property
    def is_clean(self) -> bool:
        return not self.faults and self.syntax_error is None

    def without_syntax_error(self) -> "CandidateGenome":
        return CandidateGenome(self.problem_id, self.faults, None)

    def with_faults(self, faults: tuple[FaultInstance, ...]) -> "CandidateGenome":
        return CandidateGenome(self.problem_id, faults, self.syntax_error)


@dataclass(frozen=True)
class TestbenchGenome:
    """Corruption content of one generated testbench.

    ``corrupted`` holds (step_index, output_name) pairs whose expected
    values were altered from the true golden behaviour.
    """

    __test__ = False  # a project type, not a pytest test class

    problem_id: str
    corrupted: tuple[tuple[int, str], ...] = ()

    @property
    def is_clean(self) -> bool:
        return not self.corrupted


def _normalise(text: str) -> str:
    return " ".join(text.split())


@dataclass
class GenomeRegistry:
    """Maps emitted text (whitespace-normalised) back to genomes."""

    code: dict[str, CandidateGenome] = field(default_factory=dict)
    testbenches: dict[str, TestbenchGenome] = field(default_factory=dict)

    def remember_code(self, source: str, genome: CandidateGenome) -> None:
        self.code[_normalise(source)] = genome

    def lookup_code(self, source: str) -> CandidateGenome | None:
        return self.code.get(_normalise(source))

    def remember_tb(self, text: str, genome: TestbenchGenome) -> None:
        self.testbenches[_normalise(text)] = genome

    def lookup_tb(self, text: str) -> TestbenchGenome | None:
        return self.testbenches.get(_normalise(text))
