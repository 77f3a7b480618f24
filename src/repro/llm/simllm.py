"""``SimLLM``: a behavioural model of a code LLM, behind the standard
:class:`~repro.llm.interface.LLMClient` interface.

SimLLM answers the agents' *actual prompt text*.  It recognises the
task from natural phrasing, locates the benchmark problem by matching
the specification embedded in the prompt, and produces:

- RTL candidates: the golden design with a sampled set of injected
  faults (count ~ Poisson with difficulty/capability/temperature-driven
  mean, log-normal dispersion at temperature -- see
  :mod:`repro.llm.profiles`), possibly carrying a syntax-level flaw;
- testbenches: derived from real golden simulation, with a fraction of
  expectations corrupted for "misunderstood spec" runs;
- syntax fixes: the same candidate re-rendered without its syntax flaw
  (succeeding per ``syntax_fix_rate``);
- debug trials: faults removed with probability conditioned on how well
  the feedback *exposes* them -- a fault is exposed when the mismatching
  output named in the feedback lies in the fault's cone of influence
  (computed from the real dependency graph).  Checkpoint feedback fixes
  exposed faults at ``fix_exposed``; aggregate log-only feedback only
  reaches ``fix_named``; unexposed faults sit at ``fix_blind``.
- testbench verdicts for the judge agent.

Determinism: output depends only on (model profile, sampling params,
prompt text, sample index).  At temperature 0 the run seed is ignored,
so T=0 is reproducible across runs exactly like a real T=0 API call.
"""

from __future__ import annotations

import functools
import re
import zlib

import numpy as np

from repro.evalsets.problem import (
    Problem,
    all_problems,
    derive_testbench,
    input_steps,
)
from repro.hdl import ast_nodes as ast
from repro.hdl.deps import outputs_in_cone
from repro.hdl.parser import parse_module
from repro.hdl.unparse import unparse_module
from repro.hdl.values import LogicVec
from repro.llm.genome import CandidateGenome, GenomeRegistry, TestbenchGenome
from repro.llm.interface import ChatMessage, SamplingParams
from repro.llm.mutation import (
    FaultInstance,
    MutationSite,
    apply_faults,
    collect_sites,
    corrupt_syntax,
    sample_faults,
)
from repro.llm.profiles import ModelProfile, get_profile
from repro.tb.stimulus import Testbench, render_testbench

_CODE_FENCE = re.compile(r"```(?:verilog|systemverilog)?\n(.*?)```", re.DOTALL)
_TB_FENCE = re.compile(r"```testbench\n(.*?)```", re.DOTALL)

# Misconceptions are traits of a (model, problem) pair, not of one client
# instance; shared so every agent talking to the same model sees them.
_MISCONCEPTIONS: dict[tuple[str, str], tuple] = {}

# Golden-module parses and cone-of-influence sets depend only on the
# problem registry; shared across instances (apply_faults is pure, so
# handing the same AST to every client is safe).  Values are
# deterministic, so racing writers at worst duplicate work.
_PARSED_GOLDENS: dict[str, tuple[ast.Module, list[MutationSite]]] = {}
_CONE_CACHE: dict[tuple[str, str], frozenset[str]] = {}


def extract_code_block(text: str) -> str | None:
    """Last fenced Verilog block in a message, if any."""
    matches = _CODE_FENCE.findall(text)
    for match in reversed(matches):
        if "TESTBENCH" not in match:
            return match.strip() + "\n"
    return None


def extract_tb_block(text: str) -> str | None:
    """Last fenced testbench block in a message, if any."""
    matches = _TB_FENCE.findall(text)
    if matches:
        return matches[-1].strip() + "\n"
    return None


def _normalise(text: str) -> str:
    return " ".join(text.split())


def _normalise_conversation(messages: list[ChatMessage]) -> str:
    r"""``_normalise`` of the ``"\n"``-joined conversation.

    ``"\n"`` is whitespace, so that is the non-empty normalised messages
    joined by spaces.  Each message is normalised once and the result
    memoized on the (immutable) instance: a conversation resends every
    earlier turn on each call.
    """
    parts = []
    for message in messages:
        memo = getattr(message, "_normalised", None)
        if memo is None:
            memo = _normalise(message.content)
            object.__setattr__(message, "_normalised", memo)  # frozen memo slot
        if memo:
            parts.append(memo)
    return " ".join(parts)


@functools.cache
def _spec_index() -> tuple[tuple[str, Problem], ...]:
    """Normalised specs, longest first: a pure function of the problem
    registry, built once per process rather than once per client."""
    return tuple(
        sorted(
            ((_normalise(p.spec), p) for p in all_problems()),
            key=lambda pair: -len(pair[0]),
        )
    )


class SimLLM:
    """Simulated LLM provider (see module docstring)."""

    def __init__(
        self,
        model: str = "claude-3.5-sonnet",
        profile: ModelProfile | None = None,
        registry: GenomeRegistry | None = None,
    ):
        self.profile = profile if profile is not None else get_profile(model)
        self.registry = registry if registry is not None else GenomeRegistry()
        # Parsed goldens and influence cones are pure functions of the
        # problem registry, shared across client instances (a fresh
        # SimLLM per evaluation run must not mean a fresh parse).
        self._module_cache = _PARSED_GOLDENS
        self._cone_cache = _CONE_CACHE
        self.calls = 0  # for cost accounting in transcripts

    @property
    def model_name(self) -> str:
        return self.profile.name

    # ------------------------------------------------------------------
    # LLMClient interface
    # ------------------------------------------------------------------

    def complete(self, messages: list[ChatMessage], params: SamplingParams) -> str:
        return self.sample(messages, params)[0]

    def sample(
        self, messages: list[ChatMessage], params: SamplingParams
    ) -> list[str]:
        self.calls += 1
        text = "\n".join(m.content for m in messages)
        last_user = next(
            (m.content for m in reversed(messages) if m.role == "user"), text
        )
        task = self._classify(last_user)
        # The conversation is normalised once: problem lookup and every
        # completion's seed share it.
        normalised = _normalise_conversation(messages)
        problem = self._find_problem(normalised)
        outputs = []
        for index in range(params.n):
            rng = self._rng(params, normalised, index)
            outputs.append(self._dispatch(task, problem, text, params, rng))
        return outputs

    # ------------------------------------------------------------------
    # Request understanding
    # ------------------------------------------------------------------

    @staticmethod
    def _classify(last_user: str) -> str:
        lowered = last_user.lower()
        if "fix the syntax" in lowered or "fails to compile" in lowered:
            return "fix_syntax"
        if "review the testbench" in lowered:
            return "judge_tb"
        if "write a testbench" in lowered or "optimized testbench" in lowered:
            return "gen_tb"
        if (
            "fails functional checks" in lowered
            or "corrected version" in lowered
            or "state checkpoint log" in lowered
        ):
            return "debug"
        return "gen_rtl"

    @staticmethod
    def _find_problem(normalised: str) -> Problem | None:
        """The problem whose spec the normalised conversation embeds."""
        for spec, problem in _spec_index():
            if spec in normalised:
                return problem
        return None

    def _rng(
        self, params: SamplingParams, normalised: str, index: int
    ) -> np.random.Generator:
        """Seed a generator for one completion.

        The salt is the *entire conversation*, normalised (a real LLM
        conditions on all of it).  At T=0 that is the only entropy
        source, so identical conversations reproduce identical outputs
        -- including ``n > 1`` requests returning ``n`` copies, like a
        real T=0 API.  At T>0
        each completion draws fresh entropy (run seed, sample index,
        and a per-client call counter), so retrying the same prompt
        yields a different sample, as real sampling does.
        """
        if params.temperature > 0:
            entropy = f"{params.seed}|{index}|{self.calls}"
        else:
            entropy = "deterministic"
        key = (
            f"{self.profile.name}|{params.temperature:.3f}|{params.top_p:.3f}"
            f"|{entropy}|{normalised}"
        )
        return np.random.default_rng(zlib.crc32(key.encode()) & 0x7FFFFFFF)

    def _golden(self, problem: Problem) -> tuple[ast.Module, list[MutationSite]]:
        cached = self._module_cache.get(problem.id)
        if cached is None:
            module = parse_module(problem.golden, problem.top)
            cached = (module, collect_sites(module))
            self._module_cache[problem.id] = cached
        return cached

    def _cone_outputs(self, problem: Problem, signal: str) -> frozenset[str]:
        key = (problem.id, signal)
        if key not in self._cone_cache:
            self._cone_cache[key] = outputs_in_cone(problem.design(), signal)
        return self._cone_cache[key]

    # ------------------------------------------------------------------
    # Task handlers
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        task: str,
        problem: Problem | None,
        text: str,
        params: SamplingParams,
        rng: np.random.Generator,
    ) -> str:
        if problem is None:
            return (
                "I could not match this request to a known specification; "
                "please include the full problem description."
            )
        if task == "gen_rtl":
            return self._generate_rtl(problem, params, rng)
        if task == "gen_tb":
            return self._generate_tb(problem, params, rng)
        if task == "fix_syntax":
            return self._fix_syntax(problem, text, params, rng)
        if task == "debug":
            return self._debug(problem, text, params, rng)
        if task == "judge_tb":
            return self._judge_tb(problem, text, rng)
        raise AssertionError(f"unknown task {task}")

    # -- RTL generation ------------------------------------------------

    def _misconception(self, problem: Problem) -> tuple[FaultInstance, ...]:
        """Persistent per-(model, problem) spec misreading (cached).

        Seeded by model and problem only, so it recurs in every sample at
        every temperature -- the way a model that misreads a spec keeps
        producing the same wrong behaviour.  The sampled fault set is
        validated to actually diverge from the golden behaviour (a
        misconception that changes nothing observable is no
        misconception at all).
        """
        cache_key = (self.profile.name, problem.id)
        if cache_key not in _MISCONCEPTIONS:
            key = f"misconception|{self.profile.name}|{problem.id}"
            rng = np.random.default_rng(zlib.crc32(key.encode()) & 0x7FFFFFFF)
            faults: tuple[FaultInstance, ...] = ()
            if rng.random() < self.profile.misconception_p(problem.difficulty):
                faults = self._harmful_faults(problem, rng)
            _MISCONCEPTIONS[cache_key] = faults
        return _MISCONCEPTIONS[cache_key]

    def _harmful_faults(
        self, problem: Problem, rng: np.random.Generator
    ) -> tuple[FaultInstance, ...]:
        """Sample a fault set that observably breaks the golden design."""
        from repro.evalsets.problem import golden_testbench
        from repro.tb.runner import run_testbench

        module, sites = self._golden(problem)
        tb = golden_testbench(problem)
        for _attempt in range(8):
            count = 1 + int(rng.random() < 0.3)
            faults = sample_faults(module, count, rng, sites)
            if not faults:
                continue
            source = unparse_module(apply_faults(module, faults))
            report = run_testbench(source, tb, problem.top)
            if report.error is None and not report.passed:
                return faults
        return ()

    @staticmethod
    def _merge_faults(
        persistent: tuple[FaultInstance, ...],
        incidental: tuple[FaultInstance, ...],
    ) -> tuple[FaultInstance, ...]:
        """Union fault sets, dropping incidental faults whose paths clash."""
        merged = list(persistent)
        for fault in incidental:
            clash = False
            for kept in merged:
                shorter, longer = sorted((fault.path, kept.path), key=len)
                if longer[: len(shorter)] == shorter:
                    clash = True
                    break
            if not clash:
                merged.append(fault)
        return tuple(merged)

    def _sample_genome(
        self, problem: Problem, params: SamplingParams, rng: np.random.Generator
    ) -> CandidateGenome:
        module, sites = self._golden(problem)
        lam = self.profile.lam(problem.difficulty, params.temperature)
        sigma = self.profile.dispersion(params.temperature)
        if sigma > 0:
            lam *= float(rng.lognormal(mean=-(sigma**2) / 2.0, sigma=sigma))
        count = int(rng.poisson(lam))
        persistent = self._misconception(problem)
        if persistent and params.temperature > 0:
            # Temperature lets individual samples escape the modal
            # misreading -- the mechanism that makes high-temperature
            # sampling worth its noise (Sec. III-B).
            escape = self.profile.misconception_escape * params.temperature
            if rng.random() < escape:
                persistent = ()
        faults = self._merge_faults(
            persistent, sample_faults(module, count, rng, sites)
        )
        syntax_error = None
        p_syntax = self.profile.syntax_rate * (1.0 + 1.5 * params.temperature)
        if rng.random() < p_syntax:
            syntax_error = "pending"
        return CandidateGenome(problem.id, faults, syntax_error)

    def _render_candidate(
        self, problem: Problem, genome: CandidateGenome, rng: np.random.Generator
    ) -> str:
        module, _ = self._golden(problem)
        mutated = apply_faults(module, genome.faults)
        source = unparse_module(mutated)
        if genome.syntax_error is not None:
            source, description = corrupt_syntax(source, rng)
            genome = CandidateGenome(genome.problem_id, genome.faults, description)
        self.registry.remember_code(source, genome)
        return source

    def _generate_rtl(
        self, problem: Problem, params: SamplingParams, rng: np.random.Generator
    ) -> str:
        if params.temperature == 0:
            # A T=0 model's (mis)understanding of a spec is a stable trait:
            # cosmetic prompt changes do not grant an independent redraw.
            key = f"modal|{self.profile.name}|{problem.id}"
            rng = np.random.default_rng(zlib.crc32(key.encode()) & 0x7FFFFFFF)
        genome = self._sample_genome(problem, params, rng)
        source = self._render_candidate(problem, genome, rng)
        return (
            f"Here is a synthesizable implementation of {problem.top}:\n"
            f"```verilog\n{source}```\n"
        )

    # -- Testbench generation -------------------------------------------

    def _generate_tb(
        self, problem: Problem, params: SamplingParams, rng: np.random.Generator
    ) -> str:
        seed = int(rng.integers(1 << 30))
        steps = input_steps(problem, seed=seed)
        tb = derive_testbench(
            problem.golden,
            problem.top,
            problem.kind,
            problem.clock,
            problem.data_inputs,
            problem.outputs,
            steps,
            name=f"tb_{problem.id}",
        )
        corrupted: list[tuple[int, str]] = []
        p_bad = min(
            0.9,
            (0.05 + 0.40 * problem.difficulty)
            * self.profile.pollution_tb
            * (1.0 + 0.3 * params.temperature),
        )
        if rng.random() < p_bad:
            tb, corrupted = self._corrupt_tb(tb, rng)
        text = render_testbench(tb)
        self.registry.remember_tb(text, TestbenchGenome(problem.id, tuple(corrupted)))
        return (
            "Here is an optimized testbench with per-edge state checkpoints:\n"
            f"```testbench\n{text}```\n"
        )

    def _corrupt_tb(
        self, tb: Testbench, rng: np.random.Generator
    ) -> tuple[Testbench, list[tuple[int, str]]]:
        """Corrupt a handful of expected values (a misread of the spec)."""
        slots = [
            (i, name)
            for i, step in enumerate(tb.steps)
            for name in step.checks
        ]
        if not slots:
            return tb, []
        frac = float(rng.uniform(0.04, 0.15))
        count = max(1, int(len(slots) * frac))
        picks = rng.choice(len(slots), size=min(count, len(slots)), replace=False)
        chosen = {slots[int(i)] for i in picks}
        new_steps = []
        corrupted = []
        for i, step in enumerate(tb.steps):
            checks = dict(step.checks)
            for name in list(checks):
                if (i, name) in chosen:
                    old = checks[name]
                    flip = 1 << int(rng.integers(old.width))
                    checks[name] = LogicVec(
                        old.width, old.val ^ flip, old.xmask, old.signed
                    )
                    corrupted.append((i, name))
            new_steps.append(step.__class__(inputs=step.inputs, checks=checks))
        return tb.with_steps(tuple(new_steps)), corrupted

    # -- Syntax fixing ----------------------------------------------------

    def _fix_syntax(
        self,
        problem: Problem,
        text: str,
        params: SamplingParams,
        rng: np.random.Generator,
    ) -> str:
        code = extract_code_block(text)
        genome = self.registry.lookup_code(code) if code else None
        if genome is None:
            # Unknown code: start over from the spec.
            return self._generate_rtl(problem, params, rng)
        if rng.random() < self.profile.syntax_fix_rate:
            fixed = genome.without_syntax_error()
        else:
            fixed = genome  # still carries a (new) syntax flaw
        source = self._render_candidate(problem, fixed, rng)
        return f"Corrected the compile errors:\n```verilog\n{source}```\n"

    # -- Debugging --------------------------------------------------------

    @staticmethod
    def _feedback_mode(text: str) -> str:
        if "State checkpoint log" in text:
            return "checkpoint"
        if "has" in text and "mismatch" in text:
            return "log"
        return "none"

    @staticmethod
    def _mismatch_signals(text: str) -> set[str]:
        signals = set(re.findall(r"Got (\w+)=", text))
        signals.update(re.findall(r"Output '(\w+)' has \d+ mismatch", text))
        return signals

    def _debug(
        self,
        problem: Problem,
        text: str,
        params: SamplingParams,
        rng: np.random.Generator,
    ) -> str:
        code = extract_code_block(text)
        genome = self.registry.lookup_code(code) if code else None
        if genome is None:
            return self._generate_rtl(problem, params, rng)
        mode = self._feedback_mode(text)
        named = self._mismatch_signals(text)
        misconception_keys = {f.key() for f in self._misconception(problem)}
        kept: list[FaultInstance] = []
        fixed_descriptions: list[str] = []
        for fault in genome.faults:
            exposed = any(
                named & self._cone_outputs(problem, signal)
                for signal in fault.affected
            )
            if mode == "checkpoint" and exposed:
                fault_mode, p_fixable = "checkpoint", self.profile.fix_exposed
            elif mode == "log" and exposed:
                fault_mode, p_fixable = "log", self.profile.fix_named
            else:
                fault_mode, p_fixable = "blind", self.profile.fix_blind
            p_fixable *= self.profile.pollution_fix * self.profile.fix_scale()
            if fault.key() in misconception_keys:
                # The model believes this behaviour is what the spec asks
                # for; feedback rarely dislodges it.
                p_fixable *= self.profile.misconception_resist
            if self._fixable(problem, fault, fault_mode, p_fixable) and (
                rng.random() < self.profile.fix_round
            ):
                fixed_descriptions.append(fault.description)
            else:
                kept.append(fault)
        p_new = self.profile.new_fault_rate * (1.0 + params.temperature)
        p_new *= 2.0 - self.profile.pollution_fix  # pollution makes botches likelier
        if rng.random() < p_new:
            module, sites = self._golden(problem)
            taken = {f.path for f in kept}
            extra = [
                f
                for f in sample_faults(module, 1, rng, sites)
                if f.path not in taken
            ]
            kept.extend(extra)
        new_genome = CandidateGenome(problem.id, tuple(kept), None)
        source = self._render_candidate(problem, new_genome, rng)
        if fixed_descriptions:
            analysis = "Identified and fixed: " + "; ".join(fixed_descriptions)
        else:
            analysis = "Revised the implementation based on the reported mismatches."
        return f"{analysis}\n```verilog\n{source}```\n"

    def inject_candidate(
        self, problem: Problem, faults: tuple[FaultInstance, ...]
    ) -> str:
        """Register a hand-picked faulty candidate as if this model wrote it.

        Used by controlled experiments (the Fig. 3 case study) and tests
        to study debugging behaviour on a *known* bug.
        """
        genome = CandidateGenome(problem.id, faults, None)
        module, _ = self._golden(problem)
        source = unparse_module(apply_faults(module, faults))
        self.registry.remember_code(source, genome)
        return source

    def _fixable(
        self, problem: Problem, fault: FaultInstance, mode: str, p: float
    ) -> bool:
        """Latent per-(model, problem, fault, feedback-mode) fixability.

        Drawn once and cached by seed: an agent that cannot diagnose a
        bug from a given quality of feedback will not suddenly diagnose
        it on the next identical attempt (correlated failures, the
        plateau in Fig. 4b).
        """
        key = (
            f"fixable|{self.profile.name}|{problem.id}|{fault.op}"
            f"|{fault.path}|{mode}"
        )
        latent = np.random.default_rng(zlib.crc32(key.encode()) & 0x7FFFFFFF)
        return bool(latent.random() < p)

    # -- Testbench review ---------------------------------------------------

    def _judge_tb(
        self, problem: Problem, text: str, rng: np.random.Generator
    ) -> str:
        tb_text = extract_tb_block(text)
        genome = self.registry.lookup_tb(tb_text) if tb_text else None
        if genome is not None and not genome.is_clean:
            if rng.random() < self.profile.judge_detect_rate:
                return (
                    "VERDICT: incorrect - some expected values contradict the "
                    "specification; the testbench should be regenerated."
                )
            return "VERDICT: correct - the expectations follow the specification."
        if rng.random() < self.profile.judge_false_alarm:
            return "VERDICT: incorrect - the stimulus coverage looks insufficient."
        return "VERDICT: correct - the expectations follow the specification."
