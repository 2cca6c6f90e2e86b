"""Multi-module pipelines shared by the CLI and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .da_model import DAParams
from .data import SubjectDataset
from .errors import ValidationError
from .estimation import RecoveryConfig, recover_params, recover_prefixes
from .eu_deviation import deut_index
from .rationality import ccei, fosd_violations
from .simulation import generate_budgets, simulate_subject
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
    consistency = ccei(dataset)
    deviation = deut_index(dataset)
    fosd_count, _ = fosd_violations(dataset)
    fit = recover_params(dataset, config)
    flags = list(fit.flags)
    if not fit.converged and "insufficient_rounds" not in flags and "degenerate_rounds" not in flags:
        flags.append("no_convergence")
    if deviation.deut > 0 and deviation.deut < 1e-300:
        flags.append("deut_strict_zero")
    rescaled = sum(1 for rd in dataset.rounds if rd.rescaled)
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
    recovered from every prefix length (one grid pass per subject), then
    regressed on the truth.
    """
    truth = dict(population)
    estimates_by_size: dict[int, dict[str, DAParams]] = {s: {} for s in sample_sizes}
    for i, (sid, params) in enumerate(population):
        schedule = generate_budgets(provision_seed + i, PROVISION_ROUNDS)
        subject = simulate_subject(params, schedule, sid)
        for size, fit in recover_prefixes(subject.dataset, sample_sizes, config).items():
            estimates_by_size[size][sid] = fit.params
    return regress_per_size(truth, estimates_by_size), estimates_by_size
