"""The ``experiment`` workflow without the CLI: its plans, its session loop and its resume."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace

import pytest

from prefbench.da_model import DAParams, optimal_demand_grid
from prefbench.data import write_dataset
from prefbench.errors import BackendError, SessionError
from prefbench.harness.backends import MockDecisionBackend
from prefbench.harness.prompts import RETRY_REMINDER, Treatment, TreatmentKind
from prefbench.harness.sessions import SESSION_ROUNDS, load_transcript
from prefbench.simulation import evaluation_schedule, generate_budgets, simulate_subject
from prefbench import workflows
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
    plans = experiment_plans(TreatmentKind.DECISION, backend, None, None, None, 2,
                             evaluation_schedule())
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
    schedule = generate_budgets(5, SESSION_ROUNDS)
    population = [("s1", DAParams(0.1, 0.6)), ("s2", DAParams(0.3, 0.9))]
    numbered = experiment_plans(TreatmentKind.RECOMMENDATION, shared, None, None, None, 2,
                                schedule)
    assert [(sid, t.kind, b) for sid, t, b in numbered] == [
        ("recommendation001", TreatmentKind.RECOMMENDATION, shared),
        ("recommendation002", TreatmentKind.RECOMMENDATION, shared),
    ]
    own = experiment_plans(TreatmentKind.DECISION, shared, population, None, None, 5, schedule)
    assert [(sid, b) for sid, _, b in own] == [(sid, MockDecisionBackend(p, schedule))
                                               for sid, p in population]

    # personalized: one session per sample subject; only s2 has parameters of its own
    samples = [simulate_subject(DAParams(0.0, 1.0), generate_budgets(1, 10), sid).dataset
               for sid in ("s0", "s2")]
    personalized = experiment_plans(TreatmentKind.PERSONALIZED_RECOMMENDATION, shared,
                                    population, samples, 4, 1, schedule)
    assert [(sid, t.sample_data.subject_id, t.sample_size, b) for sid, t, b in personalized] == [
        ("s0", "s0", 4, shared), ("s2", "s2", 4, MockDecisionBackend(DAParams(0.3, 0.9), schedule)),
    ]


def test_a_shared_mock_is_handed_out_as_one_copy_that_knows_the_schedule():
    schedule = generate_budgets(5, SESSION_ROUNDS)
    backend = MockDecisionBackend(DAParams(0.1, 0.6))
    plans = experiment_plans(TreatmentKind.DECISION, backend, None, None, None, 3, schedule)
    (shared,) = {id(b): b for _, _, b in plans}.values()
    assert shared == MockDecisionBackend(DAParams(0.1, 0.6), schedule)
    assert backend.schedule is None  # the caller's mock is left as it was


def transcript_lines(transcripts) -> dict[str, list[dict]]:
    """Each transcript's records, timestamps dropped."""
    return {path.name: [{k: v for k, v in json.loads(line).items()
                         if k not in ("started_at", "finished_at")}
                        for line in path.read_text(encoding="utf-8").splitlines()]
            for path in sorted(transcripts.iterdir())}


@dataclass
class Reasking:
    """Garbles the first answer of round ``reask_round`` of each session, so it is re-asked."""

    inner: MockDecisionBackend
    reask_round: int = 13

    def send(self, messages):
        answer = self.inner.send(messages)
        first_ask = not messages[-1].content.endswith(RETRY_REMINDER)
        return "let me think" if len(messages) == 2 + self.reask_round and first_ask else answer


EXPERIMENT_CASES = {  # (kind, population, sample size, sessions)
    "decision_population": (TreatmentKind.DECISION, True, None, 1),
    "decision_shared": (TreatmentKind.DECISION, False, None, 3),
    "recommendation_shared": (TreatmentKind.RECOMMENDATION, False, None, 3),
    "personalized_population": (TreatmentKind.PERSONALIZED_RECOMMENDATION, True, 10, 1),
}


@pytest.mark.parametrize("case", EXPERIMENT_CASES)
@pytest.mark.parametrize("schedule_seed", [None, 3])
def test_transcripts_are_those_of_unaware_mocks(tmp_path, case, schedule_seed):
    kind, with_population, sample_size, sessions = EXPERIMENT_CASES[case]
    schedule = (evaluation_schedule() if schedule_seed is None
                else generate_budgets(schedule_seed, SESSION_ROUNDS))
    population = [("s1", DAParams(-0.9, 0.2)), ("s2", DAParams(0.3, 0.9)), ("s3", DAParams(0.0, 1.0))]
    samples = [simulate_subject(p, generate_budgets(i, 20), sid).dataset
               for i, (sid, p) in enumerate(population)]
    args = (kind, MockDecisionBackend(DAParams(0.1, 0.6)), population if with_population else None,
            samples, sample_size, sessions, schedule)
    aware = experiment_plans(*args)
    unaware = [(sid, t, replace(b, schedule=None)) for sid, t, b in aware]
    assert all(b.schedule == schedule for _, _, b in aware)
    for name, plans in (("aware", aware), ("unaware", unaware)):
        run_experiment([(sid, t, Reasking(b)) for sid, t, b in plans], schedule, tmp_path / name)
    assert transcript_lines(tmp_path / "aware") == transcript_lines(tmp_path / "unaware")


@pytest.mark.parametrize("with_population", [True, False])
def test_a_decision_run_solves_the_schedule_once_per_mock(tmp_path, monkeypatch, with_population):
    calls = []

    def counted(prices, beta, rho):
        calls.append(len(prices))
        return optimal_demand_grid(prices, beta, rho)

    monkeypatch.setattr("prefbench.harness.backends.optimal_demand_grid", counted)
    population = [("s1", DAParams(0.1, 0.6)), ("s2", DAParams(0.3, 0.9))]
    plans = experiment_plans(TreatmentKind.DECISION, MockDecisionBackend(DAParams(0.0, 1.0)),
                             population if with_population else None, None, None, 3,
                             evaluation_schedule())
    run_experiment([(sid, t, Reasking(b)) for sid, t, b in plans], evaluation_schedule(),
                   tmp_path / "exp")
    # one call per population session, one per run for the shared mock; re-asks add none
    assert calls == [SESSION_ROUNDS] * (2 if with_population else 1)
    assert all(len(records) == SESSION_ROUNDS + 1
               for records in transcript_lines(tmp_path / "exp").values())


class PlanBackend:
    """One plan's backend: the mock's answers, with each request logged under ``name``.

    Request number ``hold_at`` first waits (at most 10 s) for ``hold_for``;
    request number ``fail_at`` sets ``signal`` and raises BackendError; and
    request number ``signal_at`` sets ``signal`` once it has its answer.
    """

    def __init__(self, name: str, log: list, fail_at=None, hold_at=None, hold_for=None,
                 signal_at=None):
        self.inner = MockDecisionBackend(DAParams(0.1, 0.6))
        self.name, self.log = name, log
        self.fail_at, self.hold_at, self.hold_for, self.signal_at = (fail_at, hold_at, hold_for,
                                                                     signal_at)
        self.signal = threading.Event()
        self.calls = 0

    def send(self, messages):
        self.calls += 1
        self.log.append(self.name)
        if self.calls == self.hold_at:
            assert self.hold_for.wait(timeout=10.0)
        if self.calls == self.fail_at:
            self.signal.set()
            raise BackendError(f"{self.name} down")
        answer = self.inner.send(messages)
        if self.calls == self.signal_at:
            self.signal.set()
        return answer


def decision_plans(backends):
    return [(b.name, Treatment(TreatmentKind.DECISION), b) for b in backends]


def test_a_session_that_raises_closes_its_transcript_which_then_resumes(tmp_path, monkeypatch):
    # a writer keeps its file open between records, so a failing session must still close it
    files = []

    class Recording(workflows.TranscriptWriter):
        def append(self, transcript, record):
            super().append(transcript, record)
            files.append(self._file)

    monkeypatch.setattr(workflows, "TranscriptWriter", Recording)
    transcripts = tmp_path / "exp"
    with pytest.raises(SessionError, match="round 5: connection reset"):
        run_decision(FailingBackend(fail_at=5), transcripts)
    assert len(files) == 4 and files[0].closed
    assert len(load_transcript(transcripts / "decision001.jsonl").records) == 4

    files.clear()
    backend = FailingBackend()
    _, anomalies, resumed = run_decision(backend, transcripts)
    assert backend.calls == 2 * SESSION_ROUNDS and (anomalies, resumed) == (0, 0)
    assert {f.closed for f in files} == {True}
    for name in ("decision001", "decision002"):
        assert load_transcript(transcripts / f"{name}.jsonl").complete()


def choices_bytes(datasets, path):
    write_dataset(datasets, path)
    return path.read_bytes()


def test_a_failed_session_starts_no_other_and_lets_the_running_one_finish(tmp_path, monkeypatch):
    # s1 is held until s2's session has raised out of _run_session, which records the
    # failure first: released at s2's BackendError instead, s1 could finish its last 20
    # rounds and its worker start s3 before s2's thread recorded the failure
    log: list[str] = []
    failing = PlanBackend("s2", log, fail_at=3)
    recorded = threading.Event()
    running = PlanBackend("s1", log, hold_at=5, hold_for=recorded)
    waiting = [PlanBackend(name, log) for name in ("s3", "s4")]
    transcripts = tmp_path / "exp"
    run_session = workflows._run_session

    def recording(plan, *args):
        try:
            return run_session(plan, *args)
        except BaseException:
            recorded.set()
            raise

    with monkeypatch.context() as patch, pytest.raises(SessionError, match="round 3: s2 down"):
        patch.setattr(workflows, "_run_session", recording)
        run_experiment(decision_plans([running, failing, *waiting]), evaluation_schedule(),
                       transcripts, workers=2)
    assert [b.calls for b in waiting] == [0, 0]  # not started when s2 failed
    assert not (transcripts / "s3.jsonl").exists() and not (transcripts / "s4.jsonl").exists()
    assert running.calls == SESSION_ROUNDS and load_transcript(transcripts / "s1.jsonl").complete()
    assert len(load_transcript(transcripts / "s2.jsonl").records) == 2

    rerun = [PlanBackend(name, []) for name in ("s1", "s2", "s3", "s4")]
    datasets, anomalies, resumed = run_experiment(decision_plans(rerun), evaluation_schedule(),
                                                  transcripts, workers=2)
    assert [b.calls for b in rerun] == [0, SESSION_ROUNDS, SESSION_ROUNDS, SESSION_ROUNDS]
    assert (anomalies, resumed) == (0, 1)

    fresh = [PlanBackend(name, []) for name in ("s1", "s2", "s3", "s4")]
    uninterrupted, _, _ = run_experiment(decision_plans(fresh), evaluation_schedule(),
                                         tmp_path / "fresh", workers=2)
    assert (choices_bytes(datasets, tmp_path / "resumed.csv")
            == choices_bytes(uninterrupted, tmp_path / "uninterrupted.csv"))


def test_the_earliest_failing_plan_is_raised(tmp_path):
    log: list[str] = []
    first_in_time = PlanBackend("s2", log, fail_at=2)
    earliest_plan = PlanBackend("s1", log, hold_at=4, hold_for=first_in_time.signal, fail_at=4)
    waiting = PlanBackend("s3", log)
    with pytest.raises(SessionError, match="round 4: s1 down"):
        run_experiment(decision_plans([earliest_plan, first_in_time, waiting]),
                       evaluation_schedule(), tmp_path / "exp", workers=2)
    assert waiting.calls == 0


def test_outputs_come_back_in_plan_order(tmp_path):
    log: list[str] = []
    last = PlanBackend("s3", log, signal_at=SESSION_ROUNDS)
    # s1's last request waits for s3's last answer, so s1 finishes after s3
    first = PlanBackend("s1", log, hold_at=SESSION_ROUNDS, hold_for=last.signal)
    backends = [first, PlanBackend("s2", log), last]
    datasets, anomalies, resumed = run_experiment(decision_plans(backends), evaluation_schedule(),
                                                  tmp_path / "exp", workers=3)
    assert [ds.subject_id for ds in datasets] == ["s1", "s2", "s3"]
    assert (anomalies, resumed) == (0, 0)


def test_one_worker_runs_the_sessions_in_plan_order(tmp_path):
    log: list[str] = []
    backends = [PlanBackend(name, log) for name in ("s1", "s2", "s3")]
    run_experiment(decision_plans(backends), evaluation_schedule(), tmp_path / "exp", workers=1)
    assert log == ["s1"] * SESSION_ROUNDS + ["s2"] * SESSION_ROUNDS + ["s3"] * SESSION_ROUNDS


def test_no_plans_give_no_datasets(tmp_path):
    assert run_experiment([], evaluation_schedule(), tmp_path / "exp", workers=4) == ([], 0, 0)
