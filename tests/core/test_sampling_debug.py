"""Unit tests for the Step-4 sampler and Step-5 debug loop in isolation."""

from repro.agents.debug_agent import DebugAgent
from repro.agents.judge_agent import JudgeAgent
from repro.agents.rtl_agent import RTLAgent
from repro.core.config import MAGEConfig
from repro.core.debug_loop import debug_candidates
from repro.core.sampling import sample_and_rank
from repro.core.scoring import ScoredCandidate
from repro.core.task import DesignTask
from repro.evalsets import get_problem, golden_testbench
from repro.llm import SimLLM
from repro.runtime import runtime_session


def record_scores(judge):
    """Wrap ``judge.score`` to log each scored source, in call order."""
    scored = []
    score = judge.score

    def recording(source, *args):
        scored.append(source)
        return score(source, *args)

    judge.score = recording
    return scored


def make_agents(model="claude-3.5-sonnet"):
    llm = SimLLM(model)
    return llm, RTLAgent(llm), JudgeAgent(llm), DebugAgent(llm)


class TestSampler:
    def test_pool_size_and_selection(self):
        problem = get_problem("fs_vending")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        _, rtl, judge, _ = make_agents()
        config = MAGEConfig.high_temperature().with_seed(3)
        outcome = sample_and_rank(task, None, tb, rtl, judge, config)
        assert len(outcome.candidates) == config.candidates
        assert len(outcome.selected) == config.top_k
        assert outcome.best_score == max(outcome.scores)

    def test_extra_candidates_join_the_pool(self):
        problem = get_problem("fs_vending")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        _, rtl, judge, _ = make_agents()
        config = MAGEConfig.high_temperature().with_seed(1)
        seeded = ScoredCandidate(
            problem.golden, judge.score(problem.golden, tb, problem.top)
        )
        outcome = sample_and_rank(
            task, None, tb, rtl, judge, config, extra=[seeded]
        )
        assert len(outcome.candidates) == config.candidates + 1
        # A perfect extra candidate must always survive selection.
        assert any(c.source == problem.golden for c in outcome.selected)

    def test_scores_in_source_order_off_the_runtime_pool(self):
        problem = get_problem("fs_vending")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        _, rtl, judge, _ = make_agents()
        scored = record_scores(judge)
        config = MAGEConfig.high_temperature().with_seed(3)
        with runtime_session(jobs=2) as runtime:
            outcome = sample_and_rank(task, None, tb, rtl, judge, config)
            assert runtime.executor._pool is None  # scoring never submitted
        assert scored == [c.source for c in outcome.candidates]

    def test_sampling_disabled(self):
        problem = get_problem("fs_vending")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        _, rtl, judge, _ = make_agents()
        from dataclasses import replace

        config = replace(MAGEConfig.high_temperature(), use_sampling=False)
        seeded = ScoredCandidate(
            problem.golden, judge.score(problem.golden, tb, problem.top)
        )
        outcome = sample_and_rank(task, None, tb, rtl, judge, config, extra=[seeded])
        assert len(outcome.candidates) == 1


class TestDebugLoop:
    def _failing_selection(self, llm, judge, problem, tb, seeds=40):
        from repro.llm.interface import SamplingParams
        from repro.llm.simllm import extract_code_block
        from repro.llm.interface import ChatMessage

        for seed in range(seeds):
            params = SamplingParams(0.85, 0.95, 1, seed=seed)
            reply = llm.complete(
                [
                    ChatMessage(
                        "user",
                        "Write a synthesizable Verilog module that implements "
                        f"the specification.\n\n## Specification\n{problem.spec}\n",
                    )
                ],
                params,
            )
            code = extract_code_block(reply)
            report = judge.score(code, tb, problem.top)
            if report.error is None and 0 < report.score < 1:
                return [ScoredCandidate(code, report)]
        return []

    def test_rounds_never_regress(self):
        problem = get_problem("cb_kmap_mux")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        llm, _, judge, debug = make_agents()
        selected = self._failing_selection(llm, judge, problem, tb)
        if not selected:
            return  # no buggy candidate under these seeds
        config = MAGEConfig.high_temperature().with_seed(0)
        outcome = debug_candidates(task, tb, selected, debug, judge, config)
        means = [sum(r) / len(r) for r in outcome.round_scores if r]
        for earlier, later in zip(means, means[1:]):
            assert later >= earlier - 1e-9  # Eq. 4 rollback guarantee

    def test_trials_score_off_the_runtime_pool(self):
        problem = get_problem("cb_kmap_mux")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        llm, _, judge, debug = make_agents()
        selected = self._failing_selection(llm, judge, problem, tb)
        assert selected
        scored = record_scores(judge)
        config = MAGEConfig.high_temperature().with_seed(0)
        with runtime_session(jobs=2) as runtime:
            outcome = debug_candidates(task, tb, selected, debug, judge, config)
            assert runtime.executor._pool is None  # scoring never submitted
        assert len(outcome.round_scores) > 1  # at least one round scored
        assert scored

    def test_stops_early_on_success(self):
        problem = get_problem("cb_mux2")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        llm, _, judge, debug = make_agents()
        perfect = ScoredCandidate(
            problem.golden, judge.score(problem.golden, tb, problem.top)
        )
        config = MAGEConfig.high_temperature().with_seed(0)
        outcome = debug_candidates(task, tb, [perfect], debug, judge, config)
        assert len(outcome.round_scores) == 1  # no rounds executed
        assert outcome.best.passed

    def test_error_candidates_skipped(self):
        problem = get_problem("cb_mux2")
        task = DesignTask.from_problem(problem)
        tb = golden_testbench(problem)
        llm, _, judge, debug = make_agents()
        broken = ScoredCandidate(
            "module broken (", judge.score("module broken (", tb, problem.top)
        )
        config = MAGEConfig.high_temperature().with_seed(0)
        outcome = debug_candidates(task, tb, [broken], debug, judge, config)
        assert outcome.best.report.error is not None
