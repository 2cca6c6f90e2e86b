"""Summary statistics, OLS alignment, Welch tests.

Percentiles use inclusive linear interpolation between order statistics (the
value at probe point k/(n-1) is the k-th order statistic).  The alignment
regression is univariate OLS with HC1 heteroskedasticity-consistent standard
errors and two-sided normal-approximation p-values.  The Welch test takes its
two-sided p-value from scipy's Student-t CDF, ``scipy.special.stdtr``, which
accepts fractional degrees of freedom.
``stdtr`` is imported inside :func:`student_t_two_sided_p`, so importing this
module loads no scipy; ``scipy.stats`` is not imported at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SummaryRow:
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class RegressionResult:
    gamma: float
    alpha: float
    se_gamma: float
    se_alpha: float
    n: int
    p_gamma: float
    p_alpha: float


def summarize(values: Sequence[float]) -> SummaryRow:
    """Percentiles, mean, and sample standard deviation of one variable."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty sample")
    q = np.quantile(arr, [0.05, 0.25, 0.50, 0.75, 0.95], method="linear")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return SummaryRow(*(float(v) for v in q), float(np.mean(arr)), std, int(arr.size))


def _normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def regress_alignment(truth: Sequence[float], estimates: Sequence[float]) -> RegressionResult:
    """OLS of estimates on truth: estimate = alpha + gamma * truth + error.

    The robust covariance is the HC1 estimator, n/(n-2) times
    (X'X)^-1 X' diag(e^2) X (X'X)^-1.
    """
    x = np.asarray(truth, dtype=float)
    y = np.asarray(estimates, dtype=float)
    if x.shape != y.shape:
        raise ValidationError("truth and estimate vectors must have equal length")
    n = x.size
    if n < 3:
        raise ValidationError(f"need at least 3 observations, got {n}")
    if np.ptp(x) == 0.0:
        raise ValidationError("singular design: truth parameter has zero variance")

    design = np.column_stack([np.ones(n), x])
    xtx = design.T @ design
    bread = np.linalg.inv(xtx)
    coef = bread @ (design.T @ y)
    alpha, gamma = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    meat = design.T @ (design * (resid * resid)[:, None])
    cov = bread @ meat @ bread * (n / (n - 2))
    se_alpha = math.sqrt(max(cov[0, 0], 0.0))
    se_gamma = math.sqrt(max(cov[1, 1], 0.0))
    p_alpha = _normal_two_sided_p(alpha / se_alpha) if se_alpha > 0 else (1.0 if alpha == 0 else 0.0)
    p_gamma = _normal_two_sided_p(gamma / se_gamma) if se_gamma > 0 else (1.0 if gamma == 0 else 0.0)
    return RegressionResult(gamma, alpha, se_gamma, se_alpha, n, p_gamma, p_alpha)


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student-t with (possibly fractional) dof."""
    if dof <= 0:
        raise ValidationError(f"degrees of freedom must be positive, got {dof}")
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    # imported here, not at module level: scipy.special adds about 0.3 s to
    # the start of every command, and no command runs a t test
    from scipy.special import stdtr

    return 2.0 * float(stdtr(dof, -abs(t)))


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float, float]:
    """Welch statistic, Satterthwaite degrees of freedom, two-sided p-value."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValidationError("both samples need at least 2 observations")
    va = float(np.var(a, ddof=1)) / a.size
    vb = float(np.var(b, ddof=1)) / b.size
    diff = float(np.mean(a) - np.mean(b))
    if va + vb == 0.0:
        # no variance anywhere: identical-mean samples are a non-result
        return (0.0, float(a.size + b.size - 2), 1.0) if diff == 0.0 else (math.inf, 1.0, 0.0)
    t = diff / math.sqrt(va + vb)
    dof = (va + vb) ** 2 / (va * va / (a.size - 1) + vb * vb / (b.size - 1))
    return t, dof, student_t_two_sided_p(t, dof)
