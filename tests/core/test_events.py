"""Typed events, sinks, and transcript/figure parity with the legacy
string-based records."""

import json
import pickle

import pytest

from repro.core.config import MAGEConfig
from repro.core.engine import MAGE
from repro.core.events import (
    EVENT_TYPES,
    Broadcast,
    CandidateScored,
    CellFinished,
    DebugRound,
    EarlyFinish,
    Event,
    ListSink,
    SamplingSummary,
    StageFinished,
    StreamSink,
    TestbenchReady,
    as_sink,
)
from repro.core.task import DesignTask
from repro.core.transcript import transcript_from_events
from repro.evaluation.figures import ScoreSeries
from repro.evalsets import get_problem


def _solve(pid, seed):
    task = DesignTask.from_problem(get_problem(pid))
    return MAGE(MAGEConfig.high_temperature()).solve(task, seed=seed)


class TestEvents:
    def test_events_are_picklable(self):
        events = [
            TestbenchReady(total_checks=4),
            CandidateScored(origin="initial", score=0.5, passed=False),
            DebugRound(round_index=1, scores=(0.5, 0.7)),
            CellFinished(
                problem_id="p", run_index=0, passed=True, score=1.0, seconds=0.1
            ),
        ]
        assert pickle.loads(pickle.dumps(events)) == events

    def test_render_lines_are_human(self):
        assert "testbench generated: 4" in TestbenchReady(total_checks=4).render()
        assert "skipping steps 4-5" in EarlyFinish(reason="initial-pass").render()
        assert "3 candidates" in SamplingSummary(
            pool_scores=(0.1, 0.9, 0.5), selected_scores=(0.9, 0.5)
        ).render()

    def test_sinks(self):
        lines = []
        collected = ListSink()
        stream = StreamSink(write=lines.append, kinds={"testbench-ready"})
        both = Broadcast(collected, stream)
        both.emit(TestbenchReady(total_checks=2))
        both.emit(EarlyFinish(reason="initial-pass"))  # filtered from stream
        assert len(collected.events) == 2
        assert len(lines) == 1 and "testbench" in lines[0]

    def test_as_sink_wraps_callables(self):
        seen = []
        as_sink(seen.append).emit(TestbenchReady(total_checks=1))
        assert len(seen) == 1
        assert as_sink(None).emit(TestbenchReady(total_checks=1)) is None


def _all_event_classes(root=Event):
    found = set()
    for cls in root.__subclasses__():
        found.add(cls)
        found |= _all_event_classes(cls)
    return found


def _sample_value(type_text: str):
    if "tuple" in type_text:
        return (0.25, 0.75)
    return {
        "str": "sample",
        "int": 3,
        "float": 0.625,
        "bool": True,
    }[type_text]


def _sample_instance(cls):
    import dataclasses

    return cls(
        **{
            f.name: _sample_value(f.type)
            for f in dataclasses.fields(cls)
        }
    )


class TestJsonRoundTrip:
    """to_json/from_json must cover every event type, bit-exactly."""

    def test_registry_covers_every_event_class(self):
        assert _all_event_classes() == set(EVENT_TYPES.values())

    @pytest.mark.parametrize(
        "kind", sorted(EVENT_TYPES), ids=sorted(EVENT_TYPES)
    )
    def test_every_event_type_round_trips(self, kind):
        event = _sample_instance(EVENT_TYPES[kind])
        payload = json.loads(json.dumps(event.to_json()))
        rebuilt = Event.from_json(payload)
        assert rebuilt == event
        assert type(rebuilt) is type(event)

    def test_defaulted_fields_round_trip(self):
        event = CellFinished(
            problem_id="p", run_index=1, passed=False, score=0.5, seconds=0.1
        )
        assert Event.from_json(event.to_json()) == event

    def test_missing_optional_field_uses_default(self):
        payload = TestbenchReady(total_checks=4, regen_index=2).to_json()
        del payload["regen_index"]
        assert Event.from_json(payload) == TestbenchReady(total_checks=4)

    def test_unknown_fields_are_ignored(self):
        payload = EarlyFinish(reason="initial-pass").to_json()
        payload["added_in_v2"] = "whatever"
        assert Event.from_json(payload) == EarlyFinish(reason="initial-pass")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            Event.from_json({"kind": "no-such-event"})

    @pytest.mark.parametrize("kind", ["wave-scheduled", "speculation-outcome"])
    def test_scheduler_telemetry_kinds_are_unknown(self, kind):
        assert kind not in EVENT_TYPES
        with pytest.raises(ValueError, match="unknown event kind"):
            Event.from_json({"kind": kind})

    def test_missing_required_field_raises_value_error(self):
        with pytest.raises(ValueError, match="bad 'run-started'"):
            Event.from_json({"kind": "run-started", "system": "mage"})

    def test_live_solve_stream_round_trips(self):
        """A real run's whole event stream survives the JSON boundary."""
        result = _solve("fs_vending", 2)
        wire = json.dumps([e.to_json() for e in result.events])
        rebuilt = [Event.from_json(p) for p in json.loads(wire)]
        assert rebuilt == list(result.events)

    def test_transcript_from_deserialized_events_is_byte_identical(self):
        """The satellite parity contract: a transcript rebuilt from
        JSON-round-tripped events renders byte-identically to one built
        from the live stream."""
        for pid, seed in [("cb_mux2", 0), ("fs_vending", 2), ("fs_traffic", 4)]:
            result = _solve(pid, seed)
            wire = [json.loads(json.dumps(e.to_json())) for e in result.events]
            rebuilt_events = [Event.from_json(p) for p in wire]
            live = transcript_from_events(result.events, task_name=pid)
            rebuilt = transcript_from_events(rebuilt_events, task_name=pid)
            assert rebuilt.render() == live.render()
            assert rebuilt.render() == result.transcript.render()


class TestTranscriptParity:
    """The event-derived transcript must match the legacy engine's
    string log byte-for-byte (the Fig. 2/4 extractors and the CLI read
    it)."""

    def test_rebuild_from_events_matches_solve_transcript(self):
        for pid, seed in [("cb_mux2", 0), ("fs_vending", 2), ("fs_traffic", 4)]:
            result = _solve(pid, seed)
            rebuilt = transcript_from_events(result.events, task_name=pid)
            assert rebuilt.render() == result.transcript.render()
            assert rebuilt.initial_score == result.transcript.initial_score
            assert rebuilt.candidate_scores == result.transcript.candidate_scores
            assert rebuilt.selected_scores == result.transcript.selected_scores
            assert (
                rebuilt.debug_round_scores
                == result.transcript.debug_round_scores
            )
            assert rebuilt.tb_regens == result.transcript.tb_regens
            assert rebuilt.llm_calls == result.transcript.llm_calls
            assert rebuilt.stage_reached == result.transcript.stage_reached

    def test_legacy_note_formats(self):
        """Exact legacy note strings, stage tags included."""
        result = _solve("fs_vending", 2)
        text = result.transcript.render()
        assert "[step1] testbench generated:" in text
        assert "checkpointed checks" in text
        assert "[step2] initial RTL generated" in text
        assert "[step2] initial candidate score" in text

    def test_llm_call_accounting_matches_stage_events(self):
        result = _solve("fs_vending", 2)
        per_stage = sum(
            e.llm_calls for e in result.events if isinstance(e, StageFinished)
        )
        assert per_stage == result.transcript.llm_calls > 0


class TestFigureParity:
    """ScoreSeries.fold_events must extract exactly what the legacy
    field-based extractor read off the transcript."""

    def test_fold_events_matches_transcript_fields(self):
        for pid, seed in [("fs_vending", 2), ("fs_traffic", 4), ("cb_mux2", 0)]:
            result = _solve(pid, seed)
            from_events = ScoreSeries()
            from_events.fold_events(result.events)

            legacy = ScoreSeries()
            transcript = result.transcript
            if transcript.initial_score is not None and transcript.candidate_scores:
                legacy.initial_scores.append(transcript.initial_score)
                legacy.sampled_best_scores.append(
                    max(transcript.candidate_scores)
                )
            for index, scores in enumerate(transcript.debug_round_scores):
                legacy.add_round(index, scores)

            assert from_events.initial_scores == legacy.initial_scores
            assert from_events.sampled_best_scores == legacy.sampled_best_scores
            assert from_events.rounds == legacy.rounds

    def test_direct_pass_contributes_nothing(self):
        result = _solve("cb_kmap_mux", 0)  # passes before Step 4
        series = ScoreSeries()
        series.fold_events(result.events)
        assert series.initial_scores == []
        assert series.rounds == []
