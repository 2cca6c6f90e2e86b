"""The ``experiment`` workflow without the CLI: its plans, its session loop and its resume."""

from __future__ import annotations

import pytest

from prefbench.da_model import DAParams
from prefbench.data import write_dataset
from prefbench.errors import BackendError, SessionError
from prefbench.harness.backends import MockDecisionBackend
from prefbench.harness.prompts import TreatmentKind
from prefbench.harness.sessions import SESSION_ROUNDS, load_transcript
from prefbench.simulation import evaluation_schedule, generate_budgets, simulate_subject
from prefbench.workflows import experiment_plans, run_experiment


class FailingBackend:
    """The mock's answers, except that request number ``fail_at`` raises BackendError."""

    def __init__(self, fail_at: int | None = None):
        self.inner = MockDecisionBackend(DAParams(0.1, 0.6))
        self.fail_at = fail_at
        self.calls = 0

    def send(self, messages):
        self.calls += 1
        if self.calls == self.fail_at:
            raise BackendError("connection reset")
        return self.inner.send(messages)


def run_decision(backend, transcripts):
    plans = experiment_plans(TreatmentKind.DECISION, backend, None, None, None, 2)
    return run_experiment(plans, evaluation_schedule(), transcripts)


def test_an_interrupted_run_resumes_without_asking_finished_sessions_again(tmp_path):
    k = 17  # session 2 fails at this round
    transcripts = tmp_path / "exp"
    with pytest.raises(SessionError, match=f"round {k}: connection reset"):
        run_decision(FailingBackend(fail_at=SESSION_ROUNDS + k), transcripts)
    first, second = transcripts / "decision001.jsonl", transcripts / "decision002.jsonl"
    assert load_transcript(first).complete()
    assert len(load_transcript(second).records) == k - 1

    backend = FailingBackend()
    datasets, anomalies, resumed = run_decision(backend, transcripts)
    assert backend.calls == SESSION_ROUNDS  # session 2 again from round 1, session 1 not at all
    assert (anomalies, resumed) == (0, 1)
    assert load_transcript(second).complete()

    uninterrupted, _, _ = run_decision(FailingBackend(), tmp_path / "fresh")
    write_dataset(datasets, tmp_path / "resumed.csv")
    write_dataset(uninterrupted, tmp_path / "uninterrupted.csv")
    assert (tmp_path / "resumed.csv").read_bytes() == (tmp_path / "uninterrupted.csv").read_bytes()


def test_plans_give_each_session_its_id_treatment_and_backend():
    shared = object()  # the backend of every session without parameters of its own
    population = [("s1", DAParams(0.1, 0.6)), ("s2", DAParams(0.3, 0.9))]
    numbered = experiment_plans(TreatmentKind.RECOMMENDATION, shared, None, None, None, 2)
    assert [(sid, t.kind, b) for sid, t, b in numbered] == [
        ("recommendation001", TreatmentKind.RECOMMENDATION, shared),
        ("recommendation002", TreatmentKind.RECOMMENDATION, shared),
    ]
    own = experiment_plans(TreatmentKind.DECISION, shared, population, None, None, 5)
    assert [(sid, b) for sid, _, b in own] == [(sid, MockDecisionBackend(p)) for sid, p in population]

    # personalized: one session per sample subject; only s2 has parameters of its own
    samples = [simulate_subject(DAParams(0.0, 1.0), generate_budgets(1, 10), sid).dataset
               for sid in ("s0", "s2")]
    personalized = experiment_plans(TreatmentKind.PERSONALIZED_RECOMMENDATION, shared,
                                    population, samples, 4, 1)
    assert [(sid, t.sample_data.subject_id, t.sample_size, b) for sid, t, b in personalized] == [
        ("s0", "s0", 4, shared), ("s2", "s2", 4, MockDecisionBackend(DAParams(0.3, 0.9))),
    ]
