"""Parametric recovery of (beta, rho) from choice data.

The criterion is nonlinear least squares in token-share space: the mean over
rounds of the squared gaps between observed and model-optimal allocations,
both divided by the 100-point budget.  The loss surface is piecewise smooth
with kink-induced flats, so the search runs in two stages: a coarse global
grid (beta linear, rho log-spaced), then a Nelder-Mead simplex refinement
from the grid optimum in an unconstrained reparameterization

    beta = beta_min + exp(b),    rho = exp(r).

Grid ties are broken lexicographically by (beta, rho); results are
deterministic given data and configuration.

The grid's per-round losses come from one kernel, :func:`_grid_losses`,
which never calls :func:`optimal_demand_grid`.  Its rows with beta >= 0 take
the closed-form maximizer (the utility is concave on the budget line there);
its rows with beta < 0 compare the enumeration's five candidates with its tie
rule and give its demand bit for bit, reusing the kink and corner felicities
of each rho column across betas.  It works in blocks of beta rows, so no
grid-sized demand array is built.  The loss is kept per round, so
:func:`recover_prefixes` fits every prefix of a dataset from one grid pass by
averaging the first ``s`` columns.  The refinement and :func:`fit_loss`
evaluate one parameter pair at a time through a per-point kernel
(:class:`_PointLoss`) that returns the enumeration's loss bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .da_model import _LOG_RHO_EPS, DAParams
from .data import SubjectDataset, dataset_prefix


@dataclass(frozen=True)
class RecoveryConfig:
    beta_min: float = -0.95
    beta_max: float = 3.0
    beta_step: float = 0.05
    rho_points: int = 60
    rho_min: float = 0.05
    rho_max: float = 5.0
    max_evals: int = 2000
    tol: float = 1e-6

    @classmethod
    def from_mapping(cls, cfg: Mapping[str, object]) -> "RecoveryConfig":
        """Build from flat dotted keys (grid.beta_min, refine.max_evals, ...)."""
        keys = {
            "grid.beta_min": "beta_min",
            "grid.beta_max": "beta_max",
            "grid.beta_step": "beta_step",
            "grid.rho_points": "rho_points",
            "grid.rho_min": "rho_min",
            "grid.rho_max": "rho_max",
            "refine.max_evals": "max_evals",
            "refine.tol": "tol",
        }
        kwargs = {}
        for key, field in keys.items():
            if key in cfg:
                value = cfg[key]
                kwargs[field] = int(value) if field in ("rho_points", "max_evals") else float(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class FitResult:
    params: DAParams
    loss: float
    grid_best: DAParams
    converged: bool
    evaluations: int
    flags: tuple[str, ...] = ()


# grid cells per block of beta rows in _grid_losses: bounds its temporaries
_BLOCK_CELLS = 1 << 16


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _grid_losses(prices: np.ndarray, returns: np.ndarray, tokens: np.ndarray,
                 betas: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Squared token-share gap per round at every grid point; (B,) x (R,) -> (B*R, N).

    Rows are in lexicographic (beta, rho) order.  Each entry is
    ``gap_a**2 + gap_b**2`` with ``gap_i = (x_i / r_i - t_i) / 100`` at the
    optimal demand ``x`` described below.  Rows are computed in blocks of
    betas of one sign, about ``_BLOCK_CELLS`` cells each, and each block is
    written straight into the result, so no grid-sized demand array is built.

    With beta >= 0 the weight on the better outcome is at most 1/2, so U is
    the minimum of the two one-sided objectives ``w u(x_a) + (1-w) u(x_b)``
    and ``w u(x_b) + (1-w) u(x_a)``, which is concave on the budget line.
    Since ``k_a * k_b = odds^(2/rho) <= 1`` at most one interior branch is
    admissible; if one is, it is the maximizer, otherwise the kink is, and
    CRRA's infinite marginal felicity at zero rules out the corners.

    With beta < 0 the five candidates are compared as the enumeration compares
    them (see :class:`_PointLoss`), so the demand is
    :func:`optimal_demand_grid`'s bit for bit; the kink and corner felicities
    depend on rho and the round only, so they are computed once per rho
    column.  Every branch quantity uses the enumeration's expressions.
    """
    p_a, p_b = prices[:, 0], prices[:, 1]
    ratio_a, ratio_b = p_b / p_a, p_a / p_b
    kink = 1.0 / (p_a + p_b)
    corner_a, corner_b = 1.0 / p_a, 1.0 / p_b
    r_a, r_b = returns[:, 0], returns[:, 1]
    t_a, t_b = tokens[:, 0], tokens[:, 1]
    rho = rhos[:, None]
    inv_rho = 1.0 / rho
    exponent = 1.0 - rho
    log_columns = np.abs(rhos - 1.0) < _LOG_RHO_EPS
    corner_columns = rho < 1.0
    at_zero = np.where(rho >= 1.0 - _LOG_RHO_EPS, -np.inf, -1.0 / exponent)  # u(0)

    def felicity(x):
        """CRRA felicity of positive holdings, per rho column: (..., R, N)."""
        u = (np.power(x, exponent) - 1.0) / exponent
        if log_columns.any():
            u[..., log_columns, :] = np.log(np.broadcast_to(x, u.shape)[..., log_columns, :])
        return u

    f_kink, f_corner_a, f_corner_b = felicity(kink), felicity(corner_a), felicity(corner_b)

    def enumerated(w, k_a, k_b):
        """Enumeration demand for beta < 0: kink, A-high, corner A, B-high, corner B."""
        x_b_ia = 1.0 / (p_a * k_a + p_b)
        x_a_ia = k_a * x_b_ia
        x_a_ib = 1.0 / (p_b * k_b + p_a)
        x_b_ib = k_b * x_a_ib
        w_lo = 1.0 - w
        zero_u = w * at_zero + w_lo * at_zero

        def interior(x_hi, x_lo, k):
            # where k > 1, x_hi = k * x_lo >= x_lo, the enumeration's max and min;
            # x_lo is 0 only where its denominator overflowed, and x_hi is then
            # 0, or NaN (inf * 0) if k = inf, a holding _crra_grid values as 1
            u = w * felicity(x_hi) + w_lo * felicity(x_lo)
            u = np.where(x_lo > 0.0, u, np.where(np.isnan(x_hi), 0.0, zero_u))
            return np.where(k > 1.0, u, -np.inf)

        def corner(f_held):
            return np.where(corner_columns, w * f_held + w_lo * at_zero, -np.inf)

        candidates = (
            (x_a_ia, x_b_ia, interior(x_a_ia, x_b_ia, k_a)),
            (corner_a, 0.0, corner(f_corner_a)),
            (x_a_ib, x_b_ib, interior(x_b_ib, x_a_ib, k_b)),
            (0.0, corner_b, corner(f_corner_b)),
        )
        # the kink wins the first comparison; a later candidate replaces the best
        # on a larger utility, or on an equal one with a larger x_a unless the
        # best is the kink (the tie rule of _PointLoss)
        best_u = w * f_kink + w_lo * f_kink
        best_xa = best_xb = kink
        best_not_kink = np.zeros(best_u.shape, dtype=bool)
        for x_a, x_b, u in candidates:
            better = (u > best_u) | ((u == best_u) & best_not_kink & (x_a > best_xa))
            best_xa = np.where(better, x_a, best_xa)
            best_xb = np.where(better, x_b, best_xb)
            best_u = np.where(better, u, best_u)
            best_not_kink |= better
        return best_xa, best_xb

    losses = np.empty((len(betas), len(rhos), len(prices)))
    block = max(1, _BLOCK_CELLS // (len(rhos) * len(prices)))
    negative = betas < 0.0
    edges = [0, *(np.flatnonzero(np.diff(negative)) + 1), len(betas)]
    for lo, hi in zip(edges, edges[1:]):
        for start in range(lo, hi, block):
            rows = slice(start, min(start + block, hi))
            w = 1.0 / (2.0 + betas[rows, None, None])
            odds = w / (1.0 - w)
            k_a = np.power(odds * ratio_a, inv_rho)
            k_b = np.power(odds * ratio_b, inv_rho)
            if negative[start]:
                x_a, x_b = enumerated(w, k_a, k_b)
            else:
                # A-high if k_a > 1, else B-high if k_b > 1, else the kink; the
                # kink is the A-high bundle at k_a = 1 (p_a * 1.0 + p_b is exact),
                # so max(k_a, 1) leaves one selection
                b_high = (k_b > 1.0) & ~(k_a > 1.0)
                k_a = np.maximum(k_a, 1.0)
                x_b_ia = 1.0 / (p_a * k_a + p_b)
                x_a_ib = 1.0 / (p_b * k_b + p_a)
                x_a = np.where(b_high, x_a_ib, k_a * x_b_ia)
                x_b = np.where(b_high, k_b * x_a_ib, x_b_ia)
            gap_a = x_a / r_a
            gap_a -= t_a
            gap_a /= 100.0
            gap_a *= gap_a
            gap_b = x_b / r_b
            gap_b -= t_b
            gap_b /= 100.0
            gap_b *= gap_b
            np.add(gap_a, gap_b, out=losses[rows])
    return losses.reshape(-1, len(prices))


class _PointLoss:
    """Token-share loss of one dataset at a single parameter pair.

    ``loss(beta, rho)`` is the float that :func:`optimal_demand_grid` at
    G = 1 followed by the mean squared token-share gap gives, for positive
    prices with a finite sum: the same expressions, candidate order (kink,
    A-high, corner A, B-high, corner B) and tie rule (kink first, then the
    larger ``x_a``).  What it saves is per-call overhead on one row: the
    data columns are computed once, the parameters stay Python floats, only
    the CRRA branch that ``rho`` selects is evaluated, and the corners, which
    are admissible only for rho < 1, are skipped otherwise.
    """

    def __init__(self, prices: np.ndarray, returns: np.ndarray, tokens: np.ndarray):
        p_a, p_b = prices[:, 0], prices[:, 1]
        self._p_a, self._p_b = p_a, p_b
        self._ratio_a = p_b / p_a
        self._ratio_b = p_a / p_b
        self._kink = 1.0 / (p_a + p_b)
        self._corner_a = 1.0 / p_a
        self._corner_b = 1.0 / p_b
        self._r_a, self._r_b = returns[:, 0], returns[:, 1]
        self._t_a, self._t_b = tokens[:, 0], tokens[:, 1]

    def __call__(self, beta: float, rho: float) -> float:
        w = 1.0 / (2.0 + beta)
        odds = w / (1.0 - w)
        inv_rho = 1.0 / rho
        exponent = 1.0 - rho
        if abs(rho - 1.0) < _LOG_RHO_EPS:
            felicity = np.log
        else:
            def felicity(x):
                return (np.power(x, exponent) - 1.0) / exponent
        # u(0), as _crra_grid has it; felicity(0) differs at rho = 1 - 1e-10
        at_zero = -math.inf if rho >= 1.0 - _LOG_RHO_EPS else -1.0 / exponent

        def interior(x_hi, x_lo, k):
            # where k > 1, x_hi = k * x_lo >= x_lo, the enumeration's max and min;
            # x_lo is 0 only where its denominator overflowed, and x_hi is then
            # 0, or NaN (inf * 0) if k = inf, a holding _crra_grid values as 1
            u = w * felicity(x_hi) + (1.0 - w) * felicity(x_lo)
            u = np.where(x_lo > 0.0, u, np.where(np.isnan(x_hi), 0.0,
                                                 w * at_zero + (1.0 - w) * at_zero))
            return np.where(k > 1.0, u, -np.inf)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            k_a = np.power(odds * self._ratio_a, inv_rho)
            x_b_ia = 1.0 / (self._p_a * k_a + self._p_b)
            x_a_ia = k_a * x_b_ia
            k_b = np.power(odds * self._ratio_b, inv_rho)
            x_a_ib = 1.0 / (self._p_b * k_b + self._p_a)
            x_b_ib = k_b * x_a_ib
            felicity_kink = felicity(self._kink)
            best_u = w * felicity_kink + (1.0 - w) * felicity_kink
            candidates = [(x_a_ia, x_b_ia, interior(x_a_ia, x_b_ia, k_a))]
            if rho < 1.0:
                candidates.append((self._corner_a, 0.0,
                                   w * felicity(self._corner_a) + (1.0 - w) * at_zero))
            candidates.append((x_a_ib, x_b_ib, interior(x_b_ib, x_a_ib, k_b)))
            if rho < 1.0:
                candidates.append((0.0, self._corner_b,
                                   w * felicity(self._corner_b) + (1.0 - w) * at_zero))

        # the kink, with a positive bundle and a utility that is never NaN, wins
        # the enumeration's first comparison.  A later candidate replaces the
        # best on a larger utility, or on an equal one with a larger x_a unless
        # the best is the kink; a best that is not the kink has a utility above
        # -inf, so an equal one belongs to an admissible candidate
        best_xa = best_xb = self._kink
        best_not_kink = np.False_
        for x_a, x_b, u in candidates:
            better = (u > best_u) | ((u == best_u) & best_not_kink & (x_a > best_xa))
            best_xa = np.where(better, x_a, best_xa)
            best_xb = np.where(better, x_b, best_xb)
            best_u = np.where(better, u, best_u)
            best_not_kink = best_not_kink | better

        gap_a = (best_xa / self._r_a - self._t_a) / 100.0
        gap_b = (best_xb / self._r_b - self._t_b) / 100.0
        return float((gap_a * gap_a + gap_b * gap_b).mean())


def fit_loss(dataset: SubjectDataset, params: DAParams) -> float:
    """Mean squared token-share distance between data and model-optimal choices."""
    loss = _PointLoss(dataset.price_matrix(), dataset.return_matrix(), dataset.token_matrix())
    return loss(params.beta, params.rho)


def _parameter_grid(config: RecoveryConfig) -> tuple[np.ndarray, np.ndarray]:
    """The grid's axes: betas (linear) and rhos (log-spaced)."""
    n_beta = int(round((config.beta_max - config.beta_min) / config.beta_step)) + 1
    betas = config.beta_min + config.beta_step * np.arange(n_beta)
    rhos = np.exp(np.linspace(math.log(config.rho_min), math.log(config.rho_max), config.rho_points))
    return betas, rhos


def recover_params(dataset: SubjectDataset, config: RecoveryConfig | None = None) -> FitResult:
    """Two-stage recovery; degenerate data yields a flagged, unconverged result.

    The refinement never loses to the grid optimum: the returned parameters
    are whichever of the two has the smaller loss under :func:`fit_loss`.
    """
    return recover_prefixes(dataset, (dataset.n,), config)[dataset.n]


def recover_prefixes(
    dataset: SubjectDataset, sizes: Sequence[int], config: RecoveryConfig | None = None,
) -> dict[int, FitResult]:
    """:func:`recover_params` on the first ``s`` rounds, for every ``s`` in ``sizes``.

    The per-round grid losses are computed once for the whole dataset; a
    prefix's grid loss is the mean of its first ``s`` columns, which equals
    the grid loss of the prefix on its own.
    """
    config = config or RecoveryConfig()
    prefixes = [dataset_prefix(dataset, size) for size in sizes]
    betas, rhos = _parameter_grid(config)
    per_round = _grid_losses(dataset.price_matrix(), dataset.return_matrix(),
                             dataset.token_matrix(), betas, rhos)
    fits = {}
    for prefix in prefixes:
        losses = per_round[:, :prefix.n].mean(axis=1)
        # first minimum = lexicographic (beta, rho)
        beta_at, rho_at = divmod(int(np.argmin(losses)), len(rhos))
        grid_best = DAParams(float(betas[beta_at]), float(rhos[rho_at]))
        fits[prefix.n] = _refine(prefix, grid_best, len(per_round), config)
    return fits


def _refine(dataset: SubjectDataset, grid_best: DAParams, evaluations: int,
            config: RecoveryConfig) -> FitResult:
    """Nelder-Mead from the grid optimum, unless the rounds cannot pin two parameters."""
    loss = _PointLoss(dataset.price_matrix(), dataset.return_matrix(), dataset.token_matrix())

    flags = []
    if dataset.n < 2:
        flags.append("insufficient_rounds")
    elif all(rd.prices == dataset.rounds[0].prices for rd in dataset.rounds) and all(
        rd.tokens == dataset.rounds[0].tokens for rd in dataset.rounds
    ):
        flags.append("degenerate_rounds")
    if flags:
        return FitResult(grid_best, loss(grid_best.beta, grid_best.rho), grid_best, False,
                         evaluations, tuple(flags))

    beta_floor = config.beta_min

    def from_unconstrained(z: np.ndarray) -> tuple[float, float]:
        # exponents clamped so stray simplex probes stay finite; the loss is
        # flat (all-kink demand) at such extreme parameters anyway
        beta = beta_floor + math.exp(min(max(float(z[0]), -60.0), 60.0))
        rho = math.exp(min(max(float(z[1]), -60.0), 60.0))
        return beta, rho

    def objective(z: np.ndarray) -> float:
        return loss(*from_unconstrained(z))

    z0 = np.array([
        math.log(max(grid_best.beta - beta_floor, 1e-8)),
        math.log(grid_best.rho),
    ])
    result = minimize(
        objective, z0, method="Nelder-Mead",
        options={"maxfev": config.max_evals, "xatol": config.tol, "fatol": 1e-14},
    )
    evaluations += int(result.nfev)
    refined = DAParams(*from_unconstrained(result.x))

    refined_loss = loss(refined.beta, refined.rho)
    grid_loss = loss(grid_best.beta, grid_best.rho)
    if refined_loss <= grid_loss:
        params, best = refined, refined_loss
    else:
        params, best = grid_best, grid_loss
    return FitResult(params, best, grid_best, bool(result.success), evaluations, tuple(flags))
