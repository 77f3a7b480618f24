"""Staged pipeline runner: ordering, short-circuit, checkpoint/resume."""

import pickle

import pytest

from repro.core.config import MAGEConfig
from repro.core.engine import MAGE, mage_pipeline, mage_result, run_mage_state
from repro.core.events import ListSink, StageFinished, StageStarted
from repro.core.pipeline import (
    DONE,
    FileCheckpointer,
    MemoryCheckpointer,
    Pipeline,
    ProgramSpec,
    RunProgram,
    RunState,
    Stage,
    restore_state,
    start_program,
)
from repro.core.task import DesignTask
from repro.evalsets import get_problem


def _record(name):
    def fn(state, emit):
        state.data.setdefault("trace", []).append(name)

    return fn


def _stop(state, emit):
    state.data.setdefault("trace", []).append("stop")
    return DONE


class TestRunner:
    def test_stages_run_in_order(self):
        pipe = Pipeline("p", [Stage("a", _record("a")), Stage("b", _record("b"))])
        state = pipe.run(RunState())
        assert state.data["trace"] == ["a", "b"]
        assert state.finished
        assert state.next_stage == 2

    def test_done_short_circuits(self):
        pipe = Pipeline(
            "p",
            [Stage("a", _record("a")), Stage("s", _stop), Stage("c", _record("c"))],
        )
        state = pipe.run(RunState())
        assert state.data["trace"] == ["a", "stop"]
        assert state.finished

    def test_stop_after_pauses_resumably(self):
        pipe = Pipeline(
            "p", [Stage("a", _record("a")), Stage("b", _record("b"))]
        )
        state = pipe.run(RunState(), stop_after="a")
        assert state.data["trace"] == ["a"]
        assert not state.finished
        pipe.run(state)
        assert state.data["trace"] == ["a", "b"]
        assert state.finished

    def test_unknown_stop_after_rejected(self):
        pipe = Pipeline("p", [Stage("a", _record("a"))])
        with pytest.raises(ValueError):
            pipe.run(RunState(), stop_after="zz")

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

    def test_checkpoint_called_per_stage(self):
        ck = MemoryCheckpointer()
        pipe = Pipeline("p", [Stage("a", _record("a")), Stage("b", _record("b"))])
        pipe.run(RunState(), checkpoint=ck)
        assert ck.saves == 2
        assert restore_state(ck.blob).finished

    def test_snapshot_roundtrip(self):
        state = RunState(seed=7, data={"x": [1, 2]})
        clone = restore_state(state.snapshot())
        assert clone.seed == 7 and clone.data == {"x": [1, 2]}
        assert clone is not state

    def test_restore_rejects_non_state(self):
        with pytest.raises(TypeError):
            restore_state(pickle.dumps("not a state"))

    def test_stop_after_final_stage_marks_finished(self):
        """Regression: pausing "after" the last stage is not a pause --
        there is nothing left to resume, so the state must come back
        finished, not claiming to be resumable."""
        pipe = Pipeline(
            "p", [Stage("a", _record("a")), Stage("b", _record("b"))]
        )
        state = pipe.run(RunState(), stop_after="b")
        assert state.finished
        assert state.next_stage == 2
        # Resuming a finished state is a no-op, not a re-run.
        pipe.run(state)
        assert state.data["trace"] == ["a", "b"]

    def test_stop_after_final_stage_after_resume_marks_finished(self):
        pipe = Pipeline(
            "p", [Stage("a", _record("a")), Stage("b", _record("b"))]
        )
        state = pipe.run(RunState(), stop_after="a")
        assert not state.finished
        pipe.run(state, stop_after="b")
        assert state.finished

    def test_empty_pipeline_finishes_immediately(self):
        """A stage list with nothing to run can never leave a state
        pretending to be resumable."""
        state = Pipeline("p", []).run(RunState())
        assert state.finished

    def test_state_cursor_past_end_marks_finished(self):
        pipe = Pipeline("p", [Stage("a", _record("a"))])
        stale = RunState(next_stage=1, finished=False)
        ck = MemoryCheckpointer()
        pipe.run(stale, checkpoint=ck)
        assert stale.finished
        assert restore_state(ck.blob).finished

    def test_file_checkpointer_roundtrip(self, tmp_path):
        ck = FileCheckpointer(str(tmp_path / "ckpt" / "run.ckpt"))
        pipe = Pipeline("p", [Stage("a", _record("a")), Stage("b", _record("b"))])
        pipe.run(RunState(), stop_after="a", checkpoint=ck)
        restored = ck.restore()
        assert restored.data["trace"] == ["a"]
        pipe.run(restored)
        assert restored.data["trace"] == ["a", "b"]


def _program_pipeline():
    return Pipeline("p", [Stage("a", _record("a")), Stage("b", _record("b"))])


def _program_extract(state):
    return ",".join(state.data["trace"])


class TestRunProgram:
    def _spec(self):
        return ProgramSpec(
            pipeline_factory=_program_pipeline,
            system="prog",
            task_name="task",
            extractor=_program_extract,
        )

    def test_advance_emits_run_started_once(self):
        from repro.core.events import ListSink

        program = start_program(self._spec(), RunState(seed=3))
        sink = ListSink()
        program.advance(sink=sink, stop_after="a")
        program.advance(sink=sink)
        kinds = [e.kind for e in sink.events]
        assert kinds.count("run-started") == 1
        assert kinds[0] == "run-started"
        assert sink.events[0].seed == 3
        assert program.finished
        assert program.source() == "a,b"

    def test_source_requires_finished_state(self):
        program = start_program(self._spec(), RunState())
        program.advance(stop_after="a")
        with pytest.raises(ValueError):
            program.source()

    def test_spec_travels_with_the_pickled_state(self):
        program = start_program(self._spec(), RunState())
        program.advance(stop_after="a")
        restored = restore_state(program.state.snapshot())
        resumed = RunProgram(spec=restored.data["program"], state=restored)
        resumed.advance()
        assert resumed.source() == "a,b"


class TestMagePipeline:
    def test_stage_names_follow_paper(self):
        assert mage_pipeline().stage_names() == [
            "step1",
            "step2",
            "step3",
            "step4",
            "step5",
        ]

    @pytest.mark.parametrize("stop", ["step1", "step2", "step3"])
    def test_resume_from_checkpoint_is_deterministic(self, stop):
        """Pause after any early stage, pickle, restore, resume: the
        final result must be bit-identical to an uninterrupted run."""
        problem = get_problem("fs_vending")  # enters Steps 4-5 at seed 2
        task = DesignTask.from_problem(problem)
        full = MAGE(MAGEConfig.high_temperature()).solve(task, seed=2)

        engine = MAGE(MAGEConfig.high_temperature())
        ck = MemoryCheckpointer()
        state = engine.start_state(task, seed=2)
        run_mage_state(state, stop_after=stop, checkpoint=ck)
        assert not ck.restore().finished

        resumed = ck.restore()  # fresh objects via pickle round-trip
        run_mage_state(resumed)
        result = mage_result(resumed)
        assert result.source == full.source
        assert result.internal_score == full.internal_score
        assert result.transcript.render() == full.transcript.render()
        assert result.transcript.llm_calls == full.transcript.llm_calls

    def test_resume_direct_pass_short_circuit(self):
        """A run that finishes in step3 resumes to the same early finish."""
        problem = get_problem("cb_mux2")
        task = DesignTask.from_problem(problem)
        full = MAGE(MAGEConfig.high_temperature()).solve(task, seed=0)

        engine = MAGE(MAGEConfig.high_temperature())
        ck = MemoryCheckpointer()
        state = engine.start_state(task, seed=0)
        run_mage_state(state, stop_after="step2", checkpoint=ck)
        resumed = ck.restore()
        run_mage_state(resumed)
        result = mage_result(resumed)
        assert result.source == full.source
        assert result.transcript.stage_reached == full.transcript.stage_reached

    def test_unfinished_state_has_no_result(self):
        engine = MAGE(MAGEConfig.high_temperature())
        task = DesignTask.from_problem(get_problem("fs_vending"))
        state = engine.start_state(task, seed=2)
        run_mage_state(state, stop_after="step1")
        with pytest.raises(ValueError):
            mage_result(state)

    def test_solve_records_events_on_result(self):
        engine = MAGE(MAGEConfig.high_temperature())
        task = DesignTask.from_problem(get_problem("cb_mux2"))
        result = engine.solve(task, seed=0)
        kinds = {e.kind for e in result.events}
        assert "run-started" in kinds
        assert "run-finished" in kinds
        assert "stage-finished" in kinds
