from __future__ import annotations

import dataclasses
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from prefbench.da_model import DAParams
from prefbench.errors import BackendError, SessionError, ValidationError
from prefbench.harness.backends import MockDecisionBackend
from prefbench.harness.prompts import RETRY_REMINDER, Treatment, TreatmentKind
from prefbench.harness.sessions import (
    TranscriptWriter,
    load_transcript,
    reusable_transcript,
    run_decision_session,
    run_recommendation_session,
    transcript_to_dataset,
)
from prefbench.rationality import ccei
from prefbench.simulation import evaluation_schedule, generate_budgets, simulate_subject

# A format 1 transcript (every record stores all its messages), written before
# format 2 existed by ``run_decision_session`` with
# ``FlakyBackend(MockDecisionBackend(DAParams(0.1, 0.6)))`` on the evaluation
# schedule, session "s1": round 1 is answered on its second attempt.
GOLDEN_V1 = Path(__file__).parent / "golden" / "decision_transcript_v1.jsonl"


@dataclass
class StubbornBackend:
    """Returns the same useless text for every request."""

    text: str = "I cannot help with that."
    calls: int = 0

    def send(self, messages):
        self.calls += 1
        return self.text


@dataclass
class FlakyBackend:
    """Garbles the first attempt of one round, then behaves like the mock."""

    inner: MockDecisionBackend
    bad_round_text: str = "hmm let me think"
    failures_left: int = 1

    def send(self, messages):
        if self.failures_left > 0:
            self.failures_left -= 1
            return self.bad_round_text
        return self.inner.send(messages)


class CrashingBackend:
    def send(self, messages):
        raise BackendError("boom")


class TestDecisionSession:
    def test_mock_end_to_end_is_fully_consistent(self):
        schedule = evaluation_schedule()
        params = DAParams(0.1, 0.6)
        transcript = run_decision_session(MockDecisionBackend(params), schedule, "d1")
        parsed = transcript.parsed_rounds()
        assert len(parsed) == 25
        assert all(a.ok for a in parsed)
        dataset = transcript_to_dataset(transcript, schedule, "d1")
        assert ccei(dataset).ccei == 1.0
        # the harness reproduces the direct simulation path exactly
        direct = simulate_subject(params, schedule, "d1").dataset
        assert dataset.tokens == pytest.approx(direct.tokens, abs=1e-12)

    def test_request_k_carries_k_minus_1_answers(self):
        schedule = evaluation_schedule()
        transcript = run_decision_session(MockDecisionBackend(DAParams(0.0, 1.0)), schedule)
        for k, record in enumerate(transcript.records, start=1):
            answers = [m for m in record.messages if m.role == "assistant"][1:]
            assert len(answers) == k - 1
            assert record.messages[-1].role == "user"
        # round 2's prompt quotes round 1's answer verbatim
        second = transcript.records[1]
        assert transcript.records[0].response.strip() in [m.content for m in second.messages]

    def test_unparseable_backend_flags_every_round(self):
        schedule = evaluation_schedule()
        backend = StubbornBackend()
        transcript = run_decision_session(backend, schedule, "bad")
        parsed = transcript.parsed_rounds()
        assert len(parsed) == 25
        assert all(not a.ok for a in parsed)
        assert backend.calls == 50  # one retry per round
        with pytest.raises(ValidationError, match="no usable rounds"):
            transcript_to_dataset(transcript, schedule, "bad")

    def test_failed_round_retried_once_with_reminder(self):
        schedule = evaluation_schedule()
        backend = FlakyBackend(MockDecisionBackend(DAParams(0.0, 1.0)))
        transcript = run_decision_session(backend, schedule, "flaky")
        first_round = [r for r in transcript.records if r.round == 1]
        assert [r.attempt for r in first_round] == [1, 2]
        assert "exactly in the form" in first_round[1].messages[-1].content
        assert all(a.ok for a in transcript.parsed_rounds())

    def test_backend_failure_persists_partial_transcript(self, tmp_path):
        schedule = evaluation_schedule()
        writer = TranscriptWriter(tmp_path / "t.jsonl")
        with pytest.raises(SessionError) as excinfo:
            run_decision_session(CrashingBackend(), schedule, "crash", writer)
        assert excinfo.value.transcript is not None
        assert excinfo.value.transcript.records == []

    def test_wrong_schedule_length_rejected(self):
        with pytest.raises(ValidationError):
            run_decision_session(MockDecisionBackend(DAParams(0.0, 1.0)), generate_budgets(1, 10))


class TestRecommendationSession:
    def test_mock_multi_round_parse(self):
        schedule = evaluation_schedule()
        treatment = Treatment(TreatmentKind.RECOMMENDATION)
        transcript = run_recommendation_session(
            MockDecisionBackend(DAParams(0.3, 0.8)), treatment, schedule, "r1"
        )
        assert len(transcript.records) == 1
        parsed = transcript.parsed_rounds()
        assert len(parsed) == 25 and all(a.ok for a in parsed)
        dataset = transcript_to_dataset(transcript, schedule, "r1")
        assert ccei(dataset).ccei == 1.0

    def test_personalized_session_provenance(self):
        schedule = evaluation_schedule()
        sample = simulate_subject(DAParams(0.2, 0.5), schedule, "h").dataset
        treatment = Treatment(
            TreatmentKind.PERSONALIZED_RECOMMENDATION, sample_data=sample, sample_size=10
        )
        transcript = run_recommendation_session(
            MockDecisionBackend(DAParams(0.2, 0.5)), treatment, schedule, "pr"
        )
        dataset = transcript_to_dataset(transcript, schedule, "pr")
        assert "participate in 10 rounds" in transcript.records[0].messages[1].content

    def test_sessions_are_stateless_and_identical(self):
        schedule = evaluation_schedule()
        treatment = Treatment(TreatmentKind.RECOMMENDATION)
        backend = MockDecisionBackend(DAParams(0.0, 1.0))
        a = run_recommendation_session(backend, treatment, schedule, "s")
        b = run_recommendation_session(backend, treatment, schedule, "s")
        assert a.records[0].messages == b.records[0].messages
        assert a.records[0].response == b.records[0].response

    def test_decision_treatment_rejected(self):
        with pytest.raises(ValidationError):
            run_recommendation_session(
                MockDecisionBackend(DAParams(0.0, 1.0)),
                Treatment(TreatmentKind.DECISION),
                evaluation_schedule(),
            )


class TestCompleteness:
    def test_clean_sessions_are_complete(self):
        backend = MockDecisionBackend(DAParams(0.1, 0.6))
        schedule = evaluation_schedule()
        assert run_decision_session(backend, schedule).complete()
        treatment = Treatment(TreatmentKind.RECOMMENDATION)
        assert run_recommendation_session(backend, treatment, schedule).complete()

    def test_a_repaired_round_counts_as_done(self):
        backend = FlakyBackend(MockDecisionBackend(DAParams(0.0, 1.0)))
        assert run_decision_session(backend, evaluation_schedule()).complete()

    def test_flagged_missing_or_unparsed_rounds_are_not_done(self):
        schedule = evaluation_schedule()
        transcript = run_decision_session(MockDecisionBackend(DAParams(0.0, 1.0)), schedule)
        del transcript.records[-1]
        assert not transcript.complete()  # round 25 missing
        assert not run_decision_session(StubbornBackend(), schedule).complete()
        treatment = Treatment(TreatmentKind.RECOMMENDATION)
        assert not run_recommendation_session(StubbornBackend(), treatment, schedule).complete()


class TestTranscriptPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        schedule = evaluation_schedule()
        path = tmp_path / "session.jsonl"
        transcript = run_decision_session(
            MockDecisionBackend(DAParams(0.1, 0.9)), schedule, "persist", TranscriptWriter(path)
        )
        loaded = load_transcript(path)
        assert loaded.session_id == transcript.session_id
        assert loaded.treatment == transcript.treatment
        assert loaded.records == transcript.records

    def test_one_json_object_per_request_with_timestamps(self, tmp_path):
        schedule = evaluation_schedule()
        path = tmp_path / "session.jsonl"
        run_decision_session(
            MockDecisionBackend(DAParams(0.0, 1.0)), schedule, "ts", TranscriptWriter(path)
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 25
        for line in lines:
            obj = json.loads(line)
            assert "T" in obj["started_at"] and obj["started_at"].endswith("+00:00")

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        transcript = run_decision_session(
            MockDecisionBackend(DAParams(0.1, 0.9)), evaluation_schedule(), "killed",
            TranscriptWriter(path),
        )
        complete = path.read_text(encoding="utf-8")
        last = complete.splitlines(keepends=True)[-1]
        assert json.loads(last)["format"] == 2
        path.write_text(complete + last[: len(last) // 2], encoding="utf-8")
        assert load_transcript(path).records == transcript.records
        path.write_text(complete[: len(complete) - len(last) // 2], encoding="utf-8")
        assert load_transcript(path).records == transcript.records[:-1]

    @pytest.mark.parametrize("where", ["middle", "last_with_newline"])
    def test_other_malformed_lines_rejected(self, tmp_path, where):
        path = tmp_path / "bad.jsonl"
        run_decision_session(
            MockDecisionBackend(DAParams(0.1, 0.9)), evaluation_schedule(), "bad",
            TranscriptWriter(path),
        )
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        index = 12 if where == "middle" else -1
        lines[index] = lines[index][: len(lines[index]) // 2] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        line_num = 13 if where == "middle" else len(lines)
        with pytest.raises(ValidationError, match=f"bad.jsonl:{line_num}: invalid JSON"):
            load_transcript(path)

    def test_records_store_the_messages_after_the_shared_prefix(self, tmp_path):
        path = tmp_path / "s1.jsonl"
        backend = FlakyBackend(MockDecisionBackend(DAParams(0.1, 0.6)))
        transcript = run_decision_session(backend, evaluation_schedule(), "s1",
                                          TranscriptWriter(path))
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert {obj["format"] for obj in lines} == {2}
        # round 1, its retry (all but the re-asked question shared), then each round
        # adds the previous answer and its own question
        assert [obj["prefix"] for obj in lines] == [0, 2] + list(range(2, 26))
        assert [len(obj["messages"]) for obj in lines] == [3, 1] + [2] * 24
        for obj, record in zip(lines, transcript.records):
            tail = record.messages[obj["prefix"]:]
            assert obj["messages"] == [{"role": m.role, "content": m.content} for m in tail]
        assert path.stat().st_size < GOLDEN_V1.stat().st_size / 2

    def test_corrupt_transcript_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_transcript(path)


def _timeless(records):
    return [dataclasses.replace(r, started_at="", finished_at="") for r in records]


def _edit_line(path, index, edit):
    """Apply ``edit`` to the decoded record on line ``index + 1`` of ``path``."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(lines[index])
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")


class TestFormatOne:
    """Transcripts written before format 2 still load, resume and validate."""

    def test_loads_to_the_records_of_a_format_two_file(self, tmp_path):
        path = tmp_path / "s1.jsonl"
        backend = FlakyBackend(MockDecisionBackend(DAParams(0.1, 0.6)))
        run_decision_session(backend, evaluation_schedule(), "s1", TranscriptWriter(path))
        old, new = load_transcript(GOLDEN_V1), load_transcript(path)
        assert (old.session_id, old.treatment) == (new.session_id, new.treatment)
        assert len(old.records) == 26
        assert _timeless(old.records) == _timeless(new.records)

    def test_is_reused(self, tmp_path):
        path = tmp_path / "s1.jsonl"
        shutil.copyfile(GOLDEN_V1, path)
        reused = reusable_transcript(path, Treatment(TreatmentKind.DECISION), evaluation_schedule())
        assert reused is not None and path.exists()
        assert reused.records == load_transcript(GOLDEN_V1).records

    def test_a_line_rewritten_in_format_two_loads_the_same(self, tmp_path):
        path = tmp_path / "s1.jsonl"
        shutil.copyfile(GOLDEN_V1, path)
        # round 5 (line 6) shares all but the question of round 4's 6 messages
        _edit_line(path, 5, lambda obj: obj.update(
            format=2, prefix=5, messages=obj["messages"][5:]))
        assert load_transcript(path).records == load_transcript(GOLDEN_V1).records

    @pytest.mark.parametrize("line,fields,message", [
        (6, {"format": 2, "prefix": "3"}, "prefix '3' is not an int"),
        (6, {"format": 2, "prefix": 3.0}, "prefix 3.0 is not an int"),
        (6, {"format": 2, "prefix": True}, "prefix True is not an int"),
        (6, {"format": 2}, "KeyError: 'prefix'"),
        (6, {"format": 2, "prefix": -1}, r"prefix -1 outside \[0, 6\]"),
        (6, {"format": 2, "prefix": 7}, r"prefix 7 outside \[0, 6\]"),
        (1, {"format": 2, "prefix": 1}, r"prefix 1 outside \[0, 0\]"),
        (6, {"format": 3, "prefix": 0}, "unknown format 3"),
        (6, {"format": "2", "prefix": 0}, "unknown format '2'"),
    ])
    def test_a_bad_prefix_or_format_is_rejected(self, tmp_path, line, fields, message):
        path = tmp_path / "s1.jsonl"
        shutil.copyfile(GOLDEN_V1, path)
        _edit_line(path, line - 1, lambda obj: obj.update(fields))
        match = f"s1.jsonl:{line}: malformed record: .*{message}"
        with pytest.raises(ValidationError, match=match):
            load_transcript(path)


class TestReusableTranscript:
    """A transcript is reused only when it is complete and asked this run's questions."""

    def _transcript(self, path):
        backend = MockDecisionBackend(DAParams(0.1, 0.6))
        return run_decision_session(backend, evaluation_schedule(), "s1", TranscriptWriter(path))

    def test_a_retried_round_still_asked_this_runs_question(self, tmp_path):
        path, schedule = tmp_path / "s1.jsonl", evaluation_schedule()
        backend = FlakyBackend(MockDecisionBackend(DAParams(0.0, 1.0)))
        transcript = run_decision_session(backend, schedule, "s1", TranscriptWriter(path))
        assert transcript.records[1].messages[-1].content.endswith(RETRY_REMINDER)
        reused = reusable_transcript(path, Treatment(TreatmentKind.DECISION), schedule)
        assert reused.records == transcript.records

    @pytest.mark.parametrize("treatment,schedule", [
        (Treatment(TreatmentKind.RECOMMENDATION), evaluation_schedule()),
        (Treatment(TreatmentKind.DECISION), generate_budgets(1, 25)),
    ])
    def test_another_treatment_or_schedule_is_deleted(self, tmp_path, treatment, schedule):
        path = tmp_path / "s1.jsonl"
        self._transcript(path)
        assert reusable_transcript(path, treatment, schedule) is None
        assert not path.exists()

    @pytest.mark.parametrize("record,edit", [
        (0, lambda obj: obj["messages"][0].update(content="You are a trader.")),
        (3, lambda obj: obj["messages"][1].update(content=obj["messages"][1]["content"] + "!")),
        (7, lambda obj: obj["messages"][-1].update(content=obj["messages"][-1]["content"][1:])),
        (4, lambda obj: obj.update(round=26)),
        (4, lambda obj: obj.update(round=None)),
    ])
    def test_a_record_that_asked_another_question_is_deleted(self, tmp_path, record, edit):
        # format 1 records store every message, so each edit hits the message it names
        path = tmp_path / "s1.jsonl"
        shutil.copyfile(GOLDEN_V1, path)
        _edit_line(path, record, edit)
        assert load_transcript(path).complete()
        treatment = Treatment(TreatmentKind.DECISION)
        assert reusable_transcript(path, treatment, evaluation_schedule()) is None
        assert not path.exists()

    def test_an_edited_shared_message_is_deleted(self, tmp_path):
        # in format 2, every later record inherits record 0's system message
        path = tmp_path / "s1.jsonl"
        self._transcript(path)
        _edit_line(path, 0, lambda obj: obj["messages"][0].update(content="You are a trader."))
        loaded = load_transcript(path)
        assert loaded.complete()
        assert {r.messages[0].content for r in loaded.records} == {"You are a trader."}
        treatment = Treatment(TreatmentKind.DECISION)
        assert reusable_transcript(path, treatment, evaluation_schedule()) is None
        assert not path.exists()
