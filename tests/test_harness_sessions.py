from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from prefbench.da_model import DAParams
from prefbench.data import Provenance
from prefbench.errors import BackendError, SessionError, ValidationError
from prefbench.harness.backends import MockDecisionBackend
from prefbench.harness.prompts import Treatment, TreatmentKind
from prefbench.harness.sessions import (
    TranscriptWriter,
    load_transcript,
    run_decision_session,
    run_recommendation_session,
    transcript_to_dataset,
)
from prefbench.rationality import ccei
from prefbench.simulation import evaluation_schedule, generate_budgets, simulate_subject


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
        assert dataset.provenance is Provenance.LLM_DECISION
        assert ccei(dataset).ccei == 1.0
        # the harness reproduces the direct simulation path exactly
        direct = simulate_subject(params, schedule, "d1").dataset
        assert dataset.token_matrix() == pytest.approx(direct.token_matrix(), abs=1e-12)

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
        assert dataset.provenance is Provenance.LLM_RECOMMENDATION
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
        assert dataset.provenance is Provenance.LLM_PERSONALIZED
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

    def test_corrupt_transcript_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_transcript(path)
