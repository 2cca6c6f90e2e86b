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

The grid rows with beta >= 0 skip the candidate enumeration of
:func:`optimal_demand_grid`: there the utility is concave on the budget line
and its maximizer has a closed form (:func:`_grid_demand`).  The rows with
beta < 0, the refinement and :func:`fit_loss` use the full enumeration.  The
grid loss is kept per round, so :func:`recover_prefixes` fits every prefix of
a dataset from one grid pass by averaging the first ``s`` columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .da_model import DAParams, optimal_demand_grid
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


def _round_losses(demand: np.ndarray, returns: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Squared token-share gap per parameter pair and round; demand (G, N, 2) -> (G, N)."""
    gap_a = (demand[:, :, 0] / returns[:, 0] - tokens[:, 0]) / 100.0
    gap_b = (demand[:, :, 1] / returns[:, 1] - tokens[:, 1]) / 100.0
    return gap_a * gap_a + gap_b * gap_b


def _loss_grid(
    prices: np.ndarray, returns: np.ndarray, tokens: np.ndarray,
    beta: np.ndarray, rho: np.ndarray,
) -> np.ndarray:
    """Token-share loss for each parameter pair; shapes (N,2) data, (G,) params."""
    demand, _, _, _ = optimal_demand_grid(prices, beta, rho)
    return _round_losses(demand, returns, tokens).mean(axis=1)


def _grid_demand(prices: np.ndarray, betas: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Optimal demand (G, N, 2) for every parameter pair, in closed form where beta >= 0.

    With beta >= 0 the weight on the better outcome is at most 1/2, so U is
    the minimum of the two one-sided objectives ``w u(x_a) + (1-w) u(x_b)``
    and ``w u(x_b) + (1-w) u(x_a)``, which is concave on the budget line.
    Since ``k_a * k_b = odds^(2/rho) <= 1`` at most one interior branch is
    admissible; if one is, it is the maximizer, otherwise the kink is, and
    CRRA's infinite marginal felicity at zero rules out the corners.  The
    branch quantities are computed with the expressions of
    :func:`optimal_demand_grid`, so a cell choosing the same branch there is
    bitwise identical.  Rows with beta < 0 go through that kernel.
    """
    demand = np.empty((len(betas), len(prices), 2))
    closed = betas >= 0.0
    demand[~closed] = optimal_demand_grid(prices, betas[~closed], rhos[~closed])[0]

    p_a = prices[None, :, 0]
    p_b = prices[None, :, 1]
    w = 1.0 / (2.0 + betas[closed, None])
    odds = w / (1.0 - w)
    inv_rho = 1.0 / rhos[closed, None]
    with np.errstate(over="ignore", invalid="ignore"):
        k_a = np.power(odds * (p_b / p_a), inv_rho)
        x_b_ia = 1.0 / (p_a * k_a + p_b)
        x_a_ia = k_a * x_b_ia
        k_b = np.power(odds * (p_a / p_b), inv_rho)
        x_a_ib = 1.0 / (p_b * k_b + p_a)
        x_b_ib = k_b * x_a_ib
    x_kink = 1.0 / (p_a + p_b)
    a_high = k_a > 1.0
    b_high = k_b > 1.0
    demand[closed, :, 0] = np.where(a_high, x_a_ia, np.where(b_high, x_a_ib, x_kink))
    demand[closed, :, 1] = np.where(a_high, x_b_ia, np.where(b_high, x_b_ib, x_kink))
    return demand


def fit_loss(dataset: SubjectDataset, params: DAParams) -> float:
    """Mean squared token-share distance between data and model-optimal choices."""
    return float(
        _loss_grid(
            dataset.price_matrix(), dataset.return_matrix(), dataset.token_matrix(),
            np.array([params.beta]), np.array([params.rho]),
        )[0]
    )


def _parameter_grid(config: RecoveryConfig) -> tuple[np.ndarray, np.ndarray]:
    n_beta = int(round((config.beta_max - config.beta_min) / config.beta_step)) + 1
    betas = config.beta_min + config.beta_step * np.arange(n_beta)
    rhos = np.exp(np.linspace(math.log(config.rho_min), math.log(config.rho_max), config.rho_points))
    bb, rr = np.meshgrid(betas, rhos, indexing="ij")  # lexicographic (beta, rho) order
    return bb.reshape(-1), rr.reshape(-1)


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
    per_round = _round_losses(_grid_demand(dataset.price_matrix(), betas, rhos),
                              dataset.return_matrix(), dataset.token_matrix())
    fits = {}
    for prefix in prefixes:
        losses = per_round[:, :prefix.n].mean(axis=1)
        best = int(np.argmin(losses))  # first minimum = lexicographic (beta, rho)
        grid_best = DAParams(float(betas[best]), float(rhos[best]))
        fits[prefix.n] = _refine(prefix, grid_best, len(betas), config)
    return fits


def _refine(dataset: SubjectDataset, grid_best: DAParams, evaluations: int,
            config: RecoveryConfig) -> FitResult:
    """Nelder-Mead from the grid optimum, unless the rounds cannot pin two parameters."""
    prices = dataset.price_matrix()
    returns = dataset.return_matrix()
    tokens = dataset.token_matrix()

    flags = []
    if dataset.n < 2:
        flags.append("insufficient_rounds")
    elif all(rd.prices == dataset.rounds[0].prices for rd in dataset.rounds) and all(
        rd.tokens == dataset.rounds[0].tokens for rd in dataset.rounds
    ):
        flags.append("degenerate_rounds")
    if flags:
        return FitResult(grid_best, fit_loss(dataset, grid_best), grid_best, False, evaluations,
                         tuple(flags))

    beta_floor = config.beta_min

    def from_unconstrained(z: np.ndarray) -> tuple[float, float]:
        # exponents clamped so stray simplex probes stay finite; the loss is
        # flat (all-kink demand) at such extreme parameters anyway
        beta = beta_floor + math.exp(min(max(float(z[0]), -60.0), 60.0))
        rho = math.exp(min(max(float(z[1]), -60.0), 60.0))
        return beta, rho

    def objective(z: np.ndarray) -> float:
        beta, rho = from_unconstrained(z)
        return float(_loss_grid(prices, returns, tokens, np.array([beta]), np.array([rho]))[0])

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

    refined_loss = fit_loss(dataset, refined)
    grid_loss = fit_loss(dataset, grid_best)
    if refined_loss <= grid_loss:
        params, loss = refined, refined_loss
    else:
        params, loss = grid_best, grid_loss
    return FitResult(params, loss, grid_best, bool(result.success), evaluations, tuple(flags))
