"""Staged pipeline runner: ordering, short-circuit, per-stage accounting,
and the run-level events every solve path wraps around it."""

from dataclasses import fields

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core.config import MAGEConfig
from repro.core.engine import MAGE, mage_pipeline
from repro.core.events import (
    EarlyFinish,
    GatewayCall,
    ListSink,
    RunFinished,
    RunStarted,
    StageFinished,
    StageStarted,
    emit_ambient,
)
from repro.core.pipeline import DONE, STAGE_CLOCK, Pipeline, RunState, Stage
from repro.core.task import DesignTask
from repro.evalsets import get_problem


def _record(name):
    def fn(state, emit):
        state.data.setdefault("trace", []).append(name)

    return fn


def _stop(state, emit):
    state.data.setdefault("trace", []).append("stop")
    return DONE


def _call(state, emit):
    state.data["calls"] = state.data.get("calls", 0) + 3


class TestRunner:
    def test_stages_run_in_order(self):
        pipe = Pipeline("p", [Stage("a", _record("a")), Stage("b", _record("b"))])
        state = pipe.run(RunState())
        assert state.data["trace"] == ["a", "b"]

    def test_done_short_circuits(self):
        pipe = Pipeline(
            "p",
            [Stage("a", _record("a")), Stage("s", _stop), Stage("c", _record("c"))],
        )
        state = pipe.run(RunState())
        assert state.data["trace"] == ["a", "stop"]

    def test_done_stage_finishes_and_skipped_stages_emit_nothing(self):
        sink = ListSink()
        pipe = Pipeline(
            "p",
            [Stage("a", _record("a")), Stage("s", _stop), Stage("c", _record("c"))],
        )
        pipe.run(RunState(), sink=sink)
        assert [(type(e).__name__, e.stage, e.index) for e in sink.events] == [
            ("StageStarted", "a", 0),
            ("StageFinished", "a", 0),
            ("StageStarted", "s", 1),
            ("StageFinished", "s", 1),
        ]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            Pipeline("p", [Stage("a", _record("a")), Stage("a", _record("a"))])

    def test_stage_boundary_events(self):
        sink = ListSink()
        pipe = Pipeline("p", [Stage("a", _record("a")), Stage("b", _record("b"))])
        pipe.run(RunState(), sink=sink)
        kinds = [type(e).__name__ for e in sink.events]
        assert kinds == [
            "StageStarted",
            "StageFinished",
            "StageStarted",
            "StageFinished",
        ]
        assert [e.stage for e in sink.events if isinstance(e, StageStarted)] == [
            "a",
            "b",
        ]
        assert all(
            e.seconds >= 0 for e in sink.events if isinstance(e, StageFinished)
        )

    def test_empty_pipeline_finishes_immediately(self):
        sink = ListSink()
        state = RunState(seed=4)
        assert Pipeline("p", []).run(state, sink=sink) is state
        assert sink.events == []

    def test_calls_probe_is_differenced_per_stage(self):
        sink = ListSink()
        pipe = Pipeline(
            "p",
            [Stage("a", _call), Stage("b", _record("b")), Stage("c", _call)],
            calls_probe=lambda state: state.data.get("calls", 0),
        )
        pipe.run(RunState(), sink=sink)
        assert [
            e.llm_calls for e in sink.events if isinstance(e, StageFinished)
        ] == [3, 0, 3]

    def test_stage_clock_records_every_stage(self):
        def runs(name):
            return STAGE_CLOCK.snapshot().get(name, {"runs": 0})["runs"]

        names = ["clocked/a", "clocked/s", "clocked/c"]
        before = [runs(name) for name in names]
        pipe = Pipeline(
            "clocked",
            [Stage("a", _record("a")), Stage("s", _stop), Stage("c", _record("c"))],
        )
        pipe.run(RunState())
        pipe.run(RunState())
        assert [runs(name) - b for name, b in zip(names, before)] == [2, 2, 0]

    def test_stage_emit_is_the_ambient_sink(self):
        """Layers below a stage (the LLM gateway) narrate into the run's
        stream through the ambient sink the runner installs."""
        event = GatewayCall(model="m", backend="sim", role="rtl")

        def narrate(state, emit):
            state.data["ambient"] = emit_ambient(event)

        sink = ListSink()
        state = Pipeline("p", [Stage("a", narrate)]).run(RunState(), sink=sink)
        assert state.data["ambient"] is True
        assert sink.events[1] is event
        assert not emit_ambient(event)  # uninstalled after the stage

    def test_bare_callable_sink(self):
        seen = []
        Pipeline("p", [Stage("a", _record("a"))]).run(RunState(), sink=seen.append)
        assert [e.kind for e in seen] == ["stage-started", "stage-finished"]

    def test_run_state_carries_only_seed_and_data(self):
        assert [f.name for f in fields(RunState)] == ["seed", "data"]


def _mage_solve(problem_id, seed):
    sink = ListSink()
    task = DesignTask.from_problem(get_problem(problem_id))
    result = MAGE(MAGEConfig.high_temperature()).solve(task, seed=seed, sink=sink)
    return result, sink.events


class TestMagePipeline:
    def test_stage_names_follow_paper(self):
        assert mage_pipeline().stage_names() == [
            "step1",
            "step2",
            "step3",
            "step4",
            "step5",
        ]

    def test_solve_records_events_on_result(self):
        engine = MAGE(MAGEConfig.high_temperature())
        task = DesignTask.from_problem(get_problem("cb_mux2"))
        result = engine.solve(task, seed=0)
        kinds = {e.kind for e in result.events}
        assert "run-started" in kinds
        assert "run-finished" in kinds
        assert "stage-finished" in kinds

    def test_caller_sink_sees_exactly_the_result_events(self):
        result, streamed = _mage_solve("fs_vending", 2)
        assert streamed == result.events
        assert isinstance(streamed[0], RunStarted)
        assert isinstance(streamed[-1], RunFinished)
        assert sum(isinstance(e, RunStarted) for e in streamed) == 1
        assert sum(isinstance(e, RunFinished) for e in streamed) == 1
        assert streamed[0].system == "mage[claude-3.5-sonnet]"
        assert (streamed[0].task_name, streamed[0].seed) == ("fs_vending", 2)

    def test_run_finished_totals_the_stages(self):
        result, streamed = _mage_solve("fs_vending", 2)
        finished = streamed[-1]
        stages = [e for e in streamed if isinstance(e, StageFinished)]
        assert finished.seconds == sum(e.seconds for e in stages)
        assert finished.llm_calls == sum(e.llm_calls for e in stages)
        assert finished.score == result.internal_score
        assert finished.passed == result.internal_pass

    @pytest.mark.parametrize(
        "problem_id,last_stage,reasons",
        [
            ("cb_and_or_gate", "step3", ["initial-pass"]),
            ("fs_vending", "step4", ["sampled-pass"]),
            ("ar_addsub8", "step5", []),
        ],
        ids=["initial-pass", "sampled-pass", "debugged"],
    )
    def test_early_finish_skips_the_remaining_steps(
        self, problem_id, last_stage, reasons
    ):
        _, streamed = _mage_solve(problem_id, 2)
        started = [e.stage for e in streamed if isinstance(e, StageStarted)]
        names = mage_pipeline().stage_names()
        assert started == names[: names.index(last_stage) + 1]
        assert [e.reason for e in streamed if isinstance(e, EarlyFinish)] == reasons


class TestBaselineRuns:
    """Baselines open their stream with one ``RunStarted`` and close it
    with the last stage: no ``RunFinished``."""

    @pytest.mark.parametrize("key", ["vanilla-claude", "origen", "aivril"])
    def test_run_started_once_first_and_no_run_finished(self, key):
        system = SYSTEMS[key].factory()
        sink = ListSink()
        system.solve(
            DesignTask.from_problem(get_problem("fs_vending")), seed=5, sink=sink
        )
        first = sink.events[0]
        assert isinstance(first, RunStarted)
        assert (first.system, first.task_name, first.seed) == (
            system.name,
            "fs_vending",
            5,
        )
        assert sum(isinstance(e, RunStarted) for e in sink.events) == 1
        assert not any(isinstance(e, RunFinished) for e in sink.events)
        assert isinstance(sink.events[-1], StageFinished)

    @pytest.mark.parametrize("key", ["vanilla-claude", "origen", "aivril"])
    def test_solve_without_sink_matches_streamed_solve(self, key):
        task = DesignTask.from_problem(get_problem("ar_addsub8"))
        quiet = SYSTEMS[key].factory().solve(task, seed=2)
        streamed = SYSTEMS[key].factory().solve(task, seed=2, sink=ListSink())
        assert quiet == streamed
