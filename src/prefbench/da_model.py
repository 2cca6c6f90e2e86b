"""Disappointment-averse utility over two equally likely states, with exact demand.

The preference functional over a bundle ``(x_a, x_b)`` is

    U(x) = w * u(max(x_a, x_b)) + (1 - w) * u(min(x_a, x_b)),   w = 1/(2 + beta),

with CRRA felicity ``u(x) = (x^(1-rho) - 1) / (1 - rho)`` (log at rho = 1).
``beta > 0`` overweights the worse outcome (disappointment aversion),
``beta < 0`` the better one (elation seeking), ``beta = 0`` is expected utility.

On a budget line the objective is kinked at ``x_a = x_b``, so its maximizer
is not one smooth first-order condition, but it has a closed form (Gul 1991).
U is symmetric in the two states, and on each side of the kink it is the
one-sided objective ``w u(x_hi) + (1 - w) u(x_lo)``, concave on the budget
line, whose maximizer holds ``x_hi = k x_lo`` with ``k = base^(1/rho)``:
``base = odds * p_lo / p_hi``, ``odds = w / (1 - w)``, for the high
holding's price ``p_hi`` and the other ``p_lo``.  The high side is the
cheaper asset's (A on equal prices): a bundle on the dearer side, mirrored,
is as good and costs no more.  So the optimum is the cheaper side's interior
at ``max(k, 1)``, which at ``k = 1`` is the kink bundle bit for bit
(``p_hi * 1.0 + p_lo`` is exactly ``p_a + p_b``); CRRA's infinite marginal
felicity at zero rules out the corners.  Where ``p_hi k + p_lo`` overflows
(tiny rho, or a price ratio near the float limit), the sum is taken halved;
where ``k`` itself is inf (beta one ulp above -1, where ``odds`` is inf, or an
overflowed base or power), the bundle is its k -> inf limit, the whole budget
on the cheaper asset, so no bundle is NaN for positive prices with a finite
sum.

:func:`_demand` is that rule, and the only one in the package: every kernel
that needs the optimal bundle calls it.  :func:`optimal_demand_grid` and the
paired loss (``estimation._PairedLoss``) call it on full arrays, and the
recovery grid (``estimation._block_kernel`` and ``estimation._cell_tokens``)
on the (beta, round) pairs whose base exceeds 1, after giving every other
pair the kink.  The optimal bundle is the module's only output: no utility,
branch code or tie flag is computed here.  The tests hold the closed form to
a five-candidate enumeration (kink, two interiors, two corners) as their
oracle (``tests/demand_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PricePair
from .errors import ValidationError


@dataclass(frozen=True)
class DAParams:
    """Disappointment-aversion parameter ``beta`` and risk aversion ``rho``."""

    beta: float
    rho: float

    def __post_init__(self):
        if not self.beta > -1.0:
            raise ValidationError(f"beta must exceed -1, got {self.beta}")
        if not self.rho > 0.0:
            raise ValidationError(f"rho must be positive, got {self.rho}")

    @property
    def weight(self) -> float:
        """Decision weight on the better outcome, 1/(2 + beta) in (0, 1)."""
        return 1.0 / (2.0 + self.beta)


class _Budgets:
    """Per-round budgets as the demand kernels use them, (N,) columns: the kink bundle, and
    the side whose interior can be optimal, the cheaper asset's (A on equal prices):
    ``cheap_a``, its price ``p_hi`` (the high holding's), the other price ``p_lo``, and
    the price ratio ``ratio = p_lo / p_hi`` (at least 1) of its interior's base.  Prices
    are positive with a finite sum."""

    def __init__(self, prices: np.ndarray):
        p_a, p_b = prices[:, 0], prices[:, 1]
        self.kink = 1.0 / (p_a + p_b)
        self.cheap_a = p_a <= p_b
        self.p_hi, self.p_lo = np.where(self.cheap_a, p_a, p_b), np.where(self.cheap_a, p_b, p_a)
        self.ratio = self.p_lo / self.p_hi


def _odds(beta):
    """The odds ``w / (1 - w)`` of the weight ``w = 1 / (2 + beta)`` on the better outcome:
    a round's base is its cheaper side's ``odds * ratio``."""
    w = 1.0 / (2.0 + beta)
    return w / (1.0 - w)


def _interior(p_hi, p_lo, k):
    """The bundle ``(x_hi, x_lo)`` on the budget line ``p_hi x_hi + p_lo x_lo = 1`` with
    ``x_hi = k x_lo``.  Where ``p_hi k + p_lo`` overflows (one over a finite sum is at
    least subnormal, so there ``1 / (p_hi k + p_lo)`` is 0), ``x_lo`` is ``(1 / p_hi) /
    (k + p_lo / p_hi)`` with both terms of the sum halved, which is finite; at ``k =
    inf`` it is 0 and the bundle is the k -> inf limit ``(1 / p_hi, 0)``."""
    x_lo = 1.0 / (p_hi * k + p_lo)
    held = x_lo > 0.0
    if np.count_nonzero(held) < held.size:
        x_lo = np.where(held, x_lo, (0.5 / p_hi) / (0.5 * k + 0.5 * (p_lo / p_hi)))
        return np.where(k < np.inf, k * x_lo, 1.0 / p_hi), x_lo
    return k * x_lo, x_lo


def _demand(budgets: _Budgets, base, inv_rho, at=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The optimal bundle ``(x_a, x_b)`` at the budgets' rounds ``at``, in closed form.

    ``base`` is each entry's ``_odds(beta) * budgets.ratio[at]`` and
    ``inv_rho`` its ``1 / rho``; the two broadcast against the rounds' price
    columns.  The bundle is the cheaper side's interior at ``k = max(base^(1/rho),
    1)``, mapped back to the assets.
    """
    x_hi, x_lo = _interior(budgets.p_hi[at], budgets.p_lo[at],
                           np.maximum(np.power(base, inv_rho), 1.0))
    cheap_a = budgets.cheap_a[at]
    return np.where(cheap_a, x_hi, x_lo), np.where(cheap_a, x_lo, x_hi)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def optimal_demand_grid(prices: np.ndarray, beta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Maximize the kinked objective for every (parameter, budget) pair.

    ``prices`` has shape (N, 2); ``beta`` and ``rho`` shape (G,).  Returns the
    demand (G, N, 2), :func:`_demand`'s bundles: the kink where the cheaper
    asset's ``k`` is at most 1, else its interior, on side A where the prices
    are equal.
    """
    prices = np.asarray(prices, dtype=float)
    budgets = _Budgets(prices)
    odds = _odds(np.asarray(beta, dtype=float)[:, None])
    x_a, x_b = _demand(budgets, odds * budgets.ratio, 1.0 / np.asarray(rho, dtype=float)[:, None])
    demand = np.empty((len(odds), len(prices), 2))
    demand[..., 0], demand[..., 1] = x_a, x_b
    return demand


def optimal_demand(p: PricePair, params: DAParams) -> tuple[float, float]:
    """The optimal bundle ``(x_a, x_b)`` at one budget: :func:`optimal_demand_grid` at one pair."""
    demand = optimal_demand_grid(
        np.array([[p.p_a, p.p_b]]), np.array([params.beta]), np.array([params.rho])
    )
    return float(demand[0, 0, 0]), float(demand[0, 0, 1])
