"""Multi-module pipelines shared by the CLI and the acceptance suite.

Each command's work is a function here that takes plain values and can be
tested without the CLI: ``analyze`` is :func:`analyze_batch`, ``learning-curve``
is :func:`learning_curve_direct` or :func:`regress_per_size`, and ``experiment``
is :func:`experiment_plans` followed by :func:`run_experiment`, which reuses a
session's transcript only under the rule of
:func:`~prefbench.harness.sessions.reusable_transcript`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .da_model import DAParams
from .data import SubjectDataset
from .errors import ValidationError
from .estimation import FitResult, RecoveryConfig, recover_batch
from .eu_deviation import deut_index
from .harness import (SESSION_ROUNDS, ChatBackend, MockDecisionBackend, Transcript, TranscriptWriter,
                      Treatment, TreatmentKind, run_decision_session, run_recommendation_session,
                      transcript_to_dataset)
from .harness.sessions import reusable_transcript
from .rationality import ccei, fosd_violations
from .simulation import BudgetSchedule, generate_budgets, simulate_subject
from .stats import RegressionResult, regress_alignment

LEARNING_SAMPLE_SIZES = (1, 10, 25, 75, 175)
PROVISION_ROUNDS = 175


@dataclass(frozen=True)
class IndexReport:
    """Per-subject scores emitted by the analysis pipeline."""

    subject_id: str
    ccei: float
    deut: float
    fosd_count: int
    beta_hat: float
    rho_hat: float
    loss: float
    flags: tuple[str, ...]


def analyze_subject(dataset: SubjectDataset, config: RecoveryConfig | None = None) -> IndexReport:
    return analyze_batch([dataset], config)[0]


def analyze_batch(
    datasets: Sequence[SubjectDataset], config: RecoveryConfig | None = None,
) -> list[IndexReport]:
    """Per-subject reports, with every subject's recovery in one :func:`recover_batch`."""
    fits = recover_batch(datasets, None, config)
    return [_report(dataset, fit[dataset.n]) for dataset, fit in zip(datasets, fits)]


def _report(dataset: SubjectDataset, fit: FitResult) -> IndexReport:
    consistency = ccei(dataset)
    deviation = deut_index(dataset)
    fosd_count, _ = fosd_violations(dataset)
    flags = list(fit.flags)
    if not fit.converged and "insufficient_rounds" not in flags and "degenerate_rounds" not in flags:
        flags.append("no_convergence")
    if deviation.deut > 0 and deviation.deut < 1e-300:
        flags.append("deut_strict_zero")
    rescaled = int(dataset.rescaled.sum())
    if rescaled:
        flags.append(f"rescaled:{rescaled}")
    return IndexReport(
        dataset.subject_id,
        consistency.ccei,
        deviation.deut,
        fosd_count,
        fit.params.beta,
        fit.params.rho,
        fit.loss,
        tuple(flags),
    )


@dataclass(frozen=True)
class LearningCurveRow:
    sample_size: int
    parameter: str  # "beta" | "rho"
    regression: RegressionResult


def regress_per_size(
    truth: Mapping[str, DAParams],
    estimates_by_size: Mapping[int, Mapping[str, DAParams]],
) -> list[LearningCurveRow]:
    """Alignment regressions of recovered on generating parameters, per sample size."""
    rows = []
    for size in sorted(estimates_by_size):
        estimates = estimates_by_size[size]
        missing = set(truth) ^ set(estimates)
        if missing:
            raise ValidationError(
                f"sample size {size}: subject ids do not match (offenders: {sorted(missing)[:5]})"
            )
        ids = sorted(truth)
        for name in ("beta", "rho"):
            rows.append(
                LearningCurveRow(
                    size,
                    name,
                    regress_alignment(
                        [getattr(truth[i], name) for i in ids],
                        [getattr(estimates[i], name) for i in ids],
                    ),
                )
            )
    return rows


def learning_curve_direct(
    population: Sequence[tuple[str, DAParams]],
    provision_seed: int,
    sample_sizes: Sequence[int] = LEARNING_SAMPLE_SIZES,
    config: RecoveryConfig | None = None,
) -> tuple[list[LearningCurveRow], dict[int, dict[str, DAParams]]]:
    """Desk-scale learning pipeline with no model in the loop.

    Each subject gets its own 175-round provision schedule; parameters are
    recovered from every prefix length of every subject in one
    :func:`recover_batch` (one staged grid pass per subject: each larger
    prefix runs only the grid cells that can still hold an optimum), then
    regressed on the truth.
    """
    truth = dict(population)
    subjects = (
        simulate_subject(params, generate_budgets(provision_seed + i, PROVISION_ROUNDS), sid).dataset
        for i, (sid, params) in enumerate(population)
    )
    estimates_by_size: dict[int, dict[str, DAParams]] = {s: {} for s in sample_sizes}
    for (sid, _), fits in zip(population, recover_batch(subjects, sample_sizes, config)):
        for size, fit in fits.items():
            estimates_by_size[size][sid] = fit.params
    return regress_per_size(truth, estimates_by_size), estimates_by_size


def experiment_plans(
    kind: TreatmentKind, backend: ChatBackend, population: Sequence[tuple[str, DAParams]] | None,
    samples: Sequence[SubjectDataset] | None, sample_size: int | None, sessions: int,
    schedule: BudgetSchedule,
) -> list[tuple[str, Treatment, ChatBackend]]:
    """(session id, treatment, backend) for each session of an ``experiment`` run.

    Personalized sessions are one per sample subject, shown its first
    ``sample_size`` rounds; the others are one per ``population`` subject or,
    without a population, ``sessions`` numbered ones.  A session whose id has
    parameters in ``population`` gets its own mock backend; the rest share ``backend``.
    Every mock handed out solves the run's ``schedule`` at its first request, a
    shared mock ``backend`` as a copy that does.
    """
    by_id = dict(population or ())
    if kind is TreatmentKind.PERSONALIZED_RECOMMENDATION:
        treatments = [(ds.subject_id, Treatment(kind, ds, sample_size)) for ds in samples]
    else:
        width = max(3, len(str(sessions)))
        ids = list(by_id) or [f"{kind.value}{i:0{width}d}" for i in range(1, sessions + 1)]
        treatments = [(sid, Treatment(kind)) for sid in ids]
    if isinstance(backend, MockDecisionBackend):
        backend = replace(backend, schedule=schedule)
    return [(sid, t, MockDecisionBackend(by_id[sid], schedule) if sid in by_id else backend)
            for sid, t in treatments]


def run_experiment(
    plans: Sequence[tuple[str, Treatment, ChatBackend]], schedule: BudgetSchedule, transcripts: Path,
    workers: int = 1,
) -> tuple[list[SubjectDataset], int, int]:
    """Run the planned sessions, ``workers`` at once: (datasets, anomaly count, resumed count).

    Sessions run concurrently on a thread pool, started in plan order; the
    datasets and counts come back in plan order, whatever order the sessions
    finish in.  Each session's transcript is ``transcripts/{session id}.jsonl``;
    a session whose transcript :func:`reusable_transcript` returns is not run
    again.  A session with no usable round contributes no dataset.

    Once a session fails, no session that has not started yet starts; the
    running ones finish, so that their transcripts are complete and reused on a
    re-run.  Then the failure of the earliest failing plan is raised.
    """
    if len(schedule.rounds) != SESSION_ROUNDS:  # before any transcript is reused or deleted
        raise ValidationError(f"sessions need {SESSION_ROUNDS} rounds; the schedule has "
                              f"{len(schedule.rounds)}")
    transcripts.mkdir(parents=True, exist_ok=True)
    if not plans:
        return [], 0, 0
    failed = threading.Event()
    pool = ThreadPoolExecutor(min(workers, len(plans)))
    try:
        futures = [pool.submit(_run_session, plan, schedule, transcripts, failed) for plan in plans]
        wait(futures)
    finally:
        pool.shutdown(cancel_futures=True)  # after an interrupt, only the running sessions finish
    datasets, anomalies, resumed = [], 0, 0
    for (session_id, _, _), future in zip(plans, futures):
        # raises the earliest plan's failure, which comes before every session it skipped
        transcript, reused = future.result()
        resumed += reused
        anomalies += len(transcript.anomalies())
        try:
            datasets.append(transcript_to_dataset(transcript, schedule, session_id))
        except ValidationError:
            pass  # a session with zero usable rounds contributes no subject
    return datasets, anomalies, resumed


def _run_session(
    plan: tuple[str, Treatment, ChatBackend], schedule: BudgetSchedule, transcripts: Path,
    failed: threading.Event,
) -> tuple[Transcript, bool] | None:
    """One plan's (transcript, whether it was reused), or None once another session failed.

    A failure sets ``failed`` before it propagates, so the pool's next session,
    which may start before the caller sees the failure, does not run.
    """
    if failed.is_set():
        return None
    session_id, treatment, backend = plan
    path = transcripts / f"{session_id}.jsonl"
    try:
        transcript = reusable_transcript(path, treatment, schedule)
        if transcript is not None:
            return transcript, True
        with TranscriptWriter(path) as writer:  # closed however the session ends
            if treatment.kind is TreatmentKind.DECISION:
                transcript = run_decision_session(backend, schedule, session_id, writer)
            else:
                transcript = run_recommendation_session(backend, treatment, schedule, session_id,
                                                        writer)
        return transcript, False
    except BaseException:
        failed.set()
        raise
