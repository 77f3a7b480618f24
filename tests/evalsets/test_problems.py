"""Benchmark-suite integrity: every golden design must earn a perfect
score on its own golden testbench, and suites must be well-formed."""

import pickle
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.evalsets import (
    all_problems,
    get_problem,
    get_suite,
    golden_testbench,
    input_steps,
    suite_names,
)
from repro.evalsets.problem import Problem, _draw_steps, derive_testbench
from repro.hdl.lint import lint
from repro.runtime import runtime_session
from repro.tb.runner import run_testbench
from repro.tb.stimulus import render_testbench


class TestRegistry:
    def test_problem_count(self, problems):
        assert len(problems) >= 40

    def test_unique_ids(self, problems):
        ids = [p.id for p in problems]
        assert len(ids) == len(set(ids))

    def test_categories_covered(self, problems):
        categories = {p.category for p in problems}
        assert categories == {
            "combinational",
            "arithmetic",
            "sequential",
            "fsm",
            "memory",
        }

    def test_difficulty_spread(self, problems):
        difficulties = [p.difficulty for p in problems]
        assert min(difficulties) < 0.1 and max(difficulties) > 0.8

    def test_get_problem(self):
        assert get_problem("cb_mux4").id == "cb_mux4"

    def test_get_unknown_problem(self):
        with pytest.raises(KeyError):
            get_problem("nonexistent")

    def test_registered_problem_unpickles_as_the_registry_object(self):
        problem = get_problem("cb_mux4")
        assert pickle.loads(pickle.dumps(problem)) is problem

    def test_unregistered_problem_pickles_by_value(self):
        variant = replace(get_problem("cb_mux4"), title="a variant")
        copy = pickle.loads(pickle.dumps(variant))
        assert copy == variant and copy is not variant

    def test_difficulty_validation(self):
        with pytest.raises(ValueError):
            Problem(
                id="bad",
                title="t",
                category="fsm",
                difficulty=2.0,
                spec="s",
                golden="module m (input a); endmodule",
                top="m",
                kind="comb",
            )


class TestSuites:
    def test_suite_names(self):
        assert suite_names() == [
            "rtllm-like",
            "verilogeval-human-v1",
            "verilogeval-v2",
        ]

    def test_v2_is_superset(self):
        v1 = {p.id for p in get_suite("verilogeval-human-v1")}
        v2 = {p.id for p in get_suite("verilogeval-v2")}
        assert v1 < v2

    def test_v1_excludes_memory(self):
        assert all(p.category != "memory" for p in get_suite("verilogeval-human-v1"))

    def test_calibrated_suites_frozen(self):
        # Adding library problems must never change the paper suites.
        v2 = [p.id for p in get_suite("verilogeval-v2")]
        assert len(v2) == 41
        assert not any(pid.startswith("ex_") for pid in v2)

    def test_rtllm_suite_disjoint_from_core(self):
        extra = {p.id for p in get_suite("rtllm-like")}
        core = {p.id for p in get_suite("verilogeval-v2")}
        assert extra and not (extra & core)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            get_suite("verilogeval-v99")

    def test_readme_suites_resolve(self):
        """Every suite on README's "Suites:" line is a registered name."""
        readme = Path(__file__).resolve().parents[2] / "README.md"
        line = next(
            line
            for line in readme.read_text().splitlines()
            if line.startswith("Suites:")
        )
        names = re.findall(r"`([^`]+)`", line)
        assert names
        for name in names:
            assert get_suite(name), name


class TestGoldenIntegrity:
    def test_all_goldens_lint_clean(self, problems):
        for problem in problems:
            assert lint(problem.golden, problem.top).ok, problem.id

    def test_all_goldens_pass_their_testbench(self, problems):
        for problem in problems:
            tb = golden_testbench(problem)
            report = run_testbench(problem.golden, tb, problem.top)
            assert report.passed, (
                f"{problem.id}: {report.mismatches}/{report.total_checks}"
            )

    def test_testbenches_have_enough_checks(self, problems):
        for problem in problems:
            tb = golden_testbench(problem)
            assert tb.total_checks >= 10, problem.id

    def test_specs_are_substantive(self, problems):
        for problem in problems:
            assert len(problem.spec) > 60, problem.id

    def test_ports_derivable(self, problems):
        for problem in problems:
            assert problem.outputs, problem.id
            assert problem.data_inputs, problem.id
            if problem.kind == "clocked":
                assert problem.clock in problem.design().inputs


class TestStimulus:
    def test_input_steps_deterministic(self):
        problem = get_problem("sq_counter_ud")
        assert input_steps(problem, seed=1) == input_steps(problem, seed=1)

    def test_input_steps_vary_with_seed(self):
        problem = get_problem("sq_counter_ud")
        assert input_steps(problem, seed=1) != input_steps(problem, seed=2)

    def test_directed_prefix_preserved(self):
        problem = get_problem("sq_counter_ud")
        steps = input_steps(problem, seed=3)
        assert steps[: len(problem.directed)] == [dict(v) for v in problem.directed]

    def test_random_policy_respected(self):
        problem = get_problem("sq_dff_ar")  # areset probability 0.1
        steps = input_steps(problem, n_random=200, seed=5)
        random_part = steps[len(problem.directed):]
        reset_rate = sum(s["areset"] for s in random_part) / len(random_part)
        assert 0.02 < reset_rate < 0.25

    def test_n_random_zero(self):
        problem = get_problem("cb_mux2")
        steps = input_steps(problem, n_random=0)
        assert len(steps) == len(problem.directed)

    def test_memoized_draw_matches_a_fresh_one(self):
        problem = get_problem("sq_counter_ud")
        steps = input_steps(problem, seed=11)
        again = input_steps(problem, seed=11)
        assert again == steps == _draw_steps(problem, problem.n_random, 11)
        assert again is not steps  # a new list per call

    def test_memo_serves_only_the_problem_it_drew_for(self):
        problem = get_problem("sq_dff_ar")
        input_steps(problem, seed=12)
        held = replace(problem, random_policy={"areset": 1})
        steps = input_steps(held, seed=12)
        assert steps == _draw_steps(held, held.n_random, 12)
        assert all(step["areset"] == 1 for step in steps[len(held.directed):])


class TestDeriveTestbench:
    def test_expected_values_match_simulation(self):
        problem = get_problem("cb_mux2")
        steps = [{"a": 1, "b": 2, "sel": 0}, {"sel": 1}]
        tb = derive_testbench(
            problem.golden,
            problem.top,
            "comb",
            None,
            problem.data_inputs,
            problem.outputs,
            steps,
        )
        assert tb.steps[0].checks["out"].to_uint() == 1
        assert tb.steps[1].checks["out"].to_uint() == 2

    def test_all_x_outputs_skipped(self):
        problem = get_problem("sq_tff")
        # No reset applied: q stays x for a while; those checks vanish.
        steps = [{"reset": 0, "t": 0}] * 3
        tb = derive_testbench(
            problem.golden,
            problem.top,
            "clocked",
            "clk",
            problem.data_inputs,
            problem.outputs,
            steps,
        )
        assert tb.total_checks == 0

    def test_repeat_reuses_the_probe_and_still_looks_it_up(self):
        problem = get_problem("sq_counter_ud")
        args = (
            problem.golden,
            problem.top,
            problem.kind,
            problem.clock,
            problem.data_inputs,
            problem.outputs,
        )
        with runtime_session(jobs=1, cache=True) as runtime:
            first = derive_testbench(*args, input_steps(problem, seed=13))
            second = derive_testbench(*args, input_steps(problem, seed=13))
            stats = runtime.cache.stats
        assert render_testbench(first) == render_testbench(second)
        # One counted lookup per derivation: a miss, then a hit.
        assert (stats.lookups, stats.hits) == (2, 1)

    def test_broken_golden_raises(self):
        from repro.hdl.errors import HdlError

        with pytest.raises((RuntimeError, HdlError)):
            derive_testbench(
                "module broken (", "broken", "comb", None, ("a",), ("y",), [{"a": 1}]
            )
