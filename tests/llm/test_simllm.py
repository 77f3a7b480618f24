"""SimLLM behaviour: determinism, task routing, quality distributions."""

import pytest

from repro.evalsets import get_problem, golden_testbench
from repro.llm import ChatMessage, SamplingParams, SimLLM
from repro.llm.genome import GenomeRegistry
from repro.llm.interface import create_llm
from repro.llm.profiles import get_profile
from repro.llm.simllm import (
    _normalise,
    _normalise_conversation,
    extract_code_block,
    extract_tb_block,
)
from repro.tb.runner import run_testbench
from repro.tb.stimulus import parse_testbench

LOW = SamplingParams(temperature=0.0, top_p=0.01, n=1)
HIGH = SamplingParams(temperature=0.85, top_p=0.95, n=4, seed=1)


def gen_prompt(problem):
    return [
        ChatMessage("system", "You are an expert RTL engineer."),
        ChatMessage(
            "user",
            "Write a synthesizable Verilog module that implements the "
            f"specification.\n\n## Specification\n{problem.spec}\n",
        ),
    ]


def tb_prompt(problem):
    return [
        ChatMessage(
            "user",
            "Write a testbench in the TESTBENCH format.\n\n"
            f"## Specification\n{problem.spec}\n",
        )
    ]


class TestExtraction:
    def test_extract_code_block(self):
        text = "intro\n```verilog\nmodule m; endmodule\n```\ntail"
        assert "module m" in extract_code_block(text)

    def test_extract_last_code_block(self):
        text = (
            "```verilog\nmodule a; endmodule\n```\n"
            "```verilog\nmodule b; endmodule\n```"
        )
        assert "module b" in extract_code_block(text)

    def test_extract_skips_testbench_blocks(self):
        text = "```testbench\nTESTBENCH comb\n```"
        assert extract_code_block(text) is None
        assert "TESTBENCH" in extract_tb_block(text)

    def test_no_block(self):
        assert extract_code_block("plain text") is None


class TestNormalisation:
    def test_per_message_memo_equals_normalising_the_joined_text(self):
        messages = [
            ChatMessage("system", "  You are\ta designer.  "),
            ChatMessage("user", ""),
            ChatMessage("user", " \n "),
            ChatMessage("assistant", "line one\nline   two\n"),
            ChatMessage("user", "last"),
        ]
        joined = _normalise("\n".join(m.content for m in messages))
        assert _normalise_conversation(messages) == joined
        assert _normalise_conversation(messages) == joined  # from the memos


class TestDeterminism:
    def test_t0_identical_across_seeds_and_calls(self):
        problem = get_problem("fs_seq_det_1011")
        llm = SimLLM("claude-3.5-sonnet")
        a = llm.complete(gen_prompt(problem), LOW)
        b = llm.complete(gen_prompt(problem), SamplingParams(0.0, 0.01, 1, seed=99))
        assert a == b

    def test_t0_n_copies_identical(self):
        problem = get_problem("cb_mux4")
        llm = SimLLM("claude-3.5-sonnet")
        outs = llm.sample(gen_prompt(problem), SamplingParams(0.0, 0.01, 4))
        assert len(set(outs)) == 1

    def test_t0_modal_across_prompt_variations(self):
        # Cosmetic prompt changes must not grant an independent redraw.
        problem = get_problem("fs_vending")
        llm = SimLLM("claude-3.5-sonnet")
        a = extract_code_block(llm.complete(gen_prompt(problem), LOW))
        msgs = gen_prompt(problem)
        msgs.insert(1, ChatMessage("user", "Please be extra careful."))
        b = extract_code_block(llm.complete(msgs, LOW))
        assert a == b

    def test_high_t_samples_differ(self):
        problem = get_problem("fs_vending")
        llm = SimLLM("claude-3.5-sonnet")
        outs = llm.sample(gen_prompt(problem), HIGH)
        assert len(set(outs)) > 1

    def test_high_t_reproducible_with_same_seed(self):
        problem = get_problem("fs_vending")
        a = SimLLM("claude-3.5-sonnet").sample(gen_prompt(problem), HIGH)
        b = SimLLM("claude-3.5-sonnet").sample(gen_prompt(problem), HIGH)
        assert a == b


class TestGenerationQuality:
    def test_weak_model_generates_more_faults(self):
        problem = get_problem("fs_arbiter2")
        strong = SimLLM("claude-3.5-sonnet")
        weak = SimLLM("itertl-ft")
        tb = golden_testbench(problem)

        def mean_score(llm, runs=12):
            total = 0.0
            for seed in range(runs):
                params = SamplingParams(0.7, 0.95, 1, seed=seed)
                code = extract_code_block(llm.complete(gen_prompt(problem), params))
                total += run_testbench(code, tb, problem.top).score
            return total / runs

        assert mean_score(strong) > mean_score(weak)

    def test_generated_code_is_registered(self):
        problem = get_problem("cb_mux4")
        llm = SimLLM("claude-3.5-sonnet")
        code = extract_code_block(llm.complete(gen_prompt(problem), LOW))
        assert llm.registry.lookup_code(code) is not None

    def test_unknown_spec_degrades_gracefully(self):
        llm = SimLLM("claude-3.5-sonnet")
        reply = llm.complete(
            [ChatMessage("user", "Write a synthesizable Verilog module for my pet idea.")],
            LOW,
        )
        assert "could not match" in reply


class TestTestbenchGeneration:
    def test_tb_parses_and_runs(self):
        problem = get_problem("sq_counter_ud")
        llm = SimLLM("claude-3.5-sonnet")
        reply = llm.complete(tb_prompt(problem), LOW)
        tb = parse_testbench(extract_tb_block(reply))
        assert tb.kind == "clocked"
        report = run_testbench(problem.golden, tb, problem.top)
        assert report.error is None

    def test_tb_registered_with_genome(self):
        problem = get_problem("sq_counter_ud")
        llm = SimLLM("claude-3.5-sonnet")
        reply = llm.complete(tb_prompt(problem), LOW)
        genome = llm.registry.lookup_tb(extract_tb_block(reply))
        assert genome is not None and genome.problem_id == problem.id


class TestJudgeVerdicts:
    def test_clean_tb_usually_upheld(self):
        problem = get_problem("cb_mux2")  # easy: corruption unlikely
        llm = SimLLM("claude-3.5-sonnet")
        reply = llm.complete(tb_prompt(problem), LOW)
        tb_text = extract_tb_block(reply)
        genome = llm.registry.lookup_tb(tb_text)
        verdict = llm.complete(
            [
                ChatMessage(
                    "user",
                    "Review the testbench against the specification.\n\n"
                    f"## Specification\n{problem.spec}\n\n"
                    f"```testbench\n{tb_text}```",
                )
            ],
            LOW,
        )
        if genome.is_clean:
            assert "VERDICT:" in verdict


class TestSharedRegistry:
    def test_registry_shared_between_clients(self):
        registry = GenomeRegistry()
        problem = get_problem("cb_mux4")
        a = SimLLM("claude-3.5-sonnet", registry=registry)
        b = SimLLM("claude-3.5-sonnet", registry=registry)
        code = extract_code_block(a.complete(gen_prompt(problem), LOW))
        assert b.registry.lookup_code(code) is not None

    def test_create_llm_falls_back_to_simllm(self):
        llm = create_llm("gpt-4o")
        assert isinstance(llm, SimLLM)

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            create_llm("martian-13b")


class TestProfiles:
    def test_lambda_monotone_in_difficulty(self):
        profile = get_profile("claude-3.5-sonnet")
        assert profile.lam(0.9) > profile.lam(0.1)

    def test_temperature_raises_lambda(self):
        profile = get_profile("claude-3.5-sonnet")
        assert profile.lam(0.5, 0.85) > profile.lam(0.5, 0.0)

    def test_dispersion_zero_at_t0(self):
        assert get_profile("claude-3.5-sonnet").dispersion(0.0) == 0.0

    def test_polluted_profile(self):
        base = get_profile("claude-3.5-sonnet")
        bad = base.polluted()
        assert bad.pollution_lambda > 1.0
        assert bad.pollution_fix < 1.0
        assert bad.lam(0.5) > base.lam(0.5)

    def test_misconception_probability_shape(self):
        profile = get_profile("claude-3.5-sonnet")
        assert profile.misconception_p(0.1) == 0.0
        assert profile.misconception_p(0.9) > profile.misconception_p(0.5)

    def test_capability_ordering(self):
        assert (
            get_profile("claude-3.5-sonnet").capability
            > get_profile("gpt-4o").capability
            > get_profile("itertl-ft").capability
        )
