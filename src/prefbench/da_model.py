"""Disappointment-averse utility over two equally likely states, with exact demand.

The preference functional over a bundle ``(x_a, x_b)`` is

    U(x) = w * u(max(x_a, x_b)) + (1 - w) * u(min(x_a, x_b)),   w = 1/(2 + beta),

with CRRA felicity ``u(x) = (x^(1-rho) - 1) / (1 - rho)`` (log at rho = 1).
``beta > 0`` overweights the worse outcome (disappointment aversion),
``beta < 0`` the better one (elation seeking), ``beta = 0`` is expected utility.

On a budget line the objective is kinked at ``x_a = x_b``, so the maximizer is
found by enumerating the full candidate set rather than by smooth first-order
conditions: the two one-sided interior branches, the kink bundle, and (for
rho < 1 only, where zero wealth has finite felicity) the two corners.  Exact
utility ties are broken deterministically: kink first, then the candidate
with the larger ``x_a``.  An interior holds ``x_hi = k x_lo`` with ratio
``k = (odds * price ratio)^(1/rho)``; where ``p_hi k + p_lo`` overflows (tiny
rho, or a price ratio near the float limit), it is its k -> inf limit, the
whole budget on the higher holding, so no bundle is NaN for positive prices
with a finite sum.

That enumeration is written once: :class:`_Valuation` values the candidates,
:func:`_candidates` lists them in order, and :class:`_Best` is the one
best-so-far selection that holds the tie rule.  The optimal bundle is the
module's one output, and :func:`_demand` is its one call: it runs the
enumeration for arrays of budgets and parameters, leaving out an interior
that is inadmissible everywhere.  :func:`optimal_demand_grid` and the paired
loss in ``estimation`` call it; the recovery grid's beta < 0 rows run the
candidates and the selection on their own classed pairs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import PricePair
from .errors import ValidationError

_LOG_RHO_EPS = 1e-10


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
    """Per-round budgets as the demand kernels use them: (N,) price columns, the
    price ratios, and the bundles that do not depend on the parameters (the kink
    and the two corners).  Prices are positive with a finite sum."""

    def __init__(self, prices: np.ndarray):
        self.p_a, self.p_b = prices[:, 0], prices[:, 1]
        self.ratio_a, self.ratio_b = self.p_b / self.p_a, self.p_a / self.p_b
        self.kink = 1.0 / (self.p_a + self.p_b)
        self.corner_a, self.corner_b = 1.0 / self.p_a, 1.0 / self.p_b


def _interior(p_hi, p_lo, k):
    """The bundle ``(x_hi, x_lo)`` on the budget line ``p_hi x_hi + p_lo x_lo = 1`` with
    ``x_hi = k x_lo``: the A-high bundle at ``(p_a, p_b, k_a)``, the B-high one at
    ``(p_b, p_a, k_b)``.  Where ``p_hi k + p_lo`` overflows, ``x_lo`` is 0 (one over a
    finite sum is at least subnormal) and the bundle is its k -> inf limit ``(1 / p_hi,
    0)``."""
    x_lo = 1.0 / (p_hi * k + p_lo)
    held = x_lo > 0.0
    if np.count_nonzero(held) < held.size:
        return np.where(held, k * x_lo, 1.0 / p_hi), x_lo
    return k * x_lo, x_lo


class _Valuation:
    """The objective ``w u(x_hi) + (1 - w) u(x_lo)`` at the enumeration's candidates.

    ``rho`` is an array that broadcasts against the holdings, and ``w``, the
    weight on the better outcome, one that broadcasts against ``rho``; the
    felicities need no ``w``, and :meth:`weighted` gives the same rho arrays
    at other weights.

    The felicity is CRRA: ``(x^(1 - rho) - 1) / (1 - rho)`` of positive
    holdings, ``log(x)`` where rho is within ``_LOG_RHO_EPS`` of 1 (on those
    entries only, if there are any), and ``u(0)`` apart: -inf from
    ``rho = 1 - _LOG_RHO_EPS`` up, where the power branch would still be finite
    below 1, and ``-1 / (1 - rho)`` below.  The corners are admissible only for
    rho < 1, where ``u(0)`` can be finite, and are left out where no rho is.
    """

    def __init__(self, rho: np.ndarray, w: np.ndarray | None = None):
        self._exponent = 1.0 - rho
        log = np.abs(rho - 1.0) < _LOG_RHO_EPS
        corners = rho < 1.0
        self._at_zero = np.where(rho >= 1.0 - _LOG_RHO_EPS, -np.inf, -1.0 / self._exponent)
        self._log = log if np.count_nonzero(log) else None
        self._corners = corners if np.count_nonzero(corners) else None
        if w is not None:
            self._weigh(w)

    def weighted(self, w: np.ndarray) -> _Valuation:
        """This valuation at the weights ``w``, sharing its rho arrays."""
        value = copy.copy(self)
        value._weigh(w)
        return value

    def _weigh(self, w):
        self._w = w
        self._w_lo = 1.0 - w
        if self._corners is not None:
            self._corner_zero = self._w_lo * self._at_zero

    def felicity(self, x):
        """u(x) of positive holdings, broadcast against rho."""
        u = np.power(x, self._exponent)
        u -= 1.0
        u /= self._exponent
        if self._log is not None:
            log = np.broadcast_to(self._log, u.shape)
            u[log] = np.log(np.broadcast_to(x, u.shape)[log])
        return u

    def fixed_felicities(self, budgets: _Budgets):
        """u at the kink, and at the corners' holdings (None without admissible corners):
        they depend on rho and the budget only."""
        corners = (None if self._corners is None
                   else (self.felicity(budgets.corner_a), self.felicity(budgets.corner_b)))
        return self.felicity(budgets.kink), corners

    def kink(self, f_kink):
        return self._w * f_kink + self._w_lo * f_kink

    def interior(self, x_hi, x_lo, k):
        """An interior bundle ``x_hi = k * x_lo``, admissible where ``k > 1`` (so
        ``x_hi >= x_lo``)."""
        u = self.felicity(x_hi)
        u *= self._w
        f_lo = self.felicity(x_lo)
        f_lo *= self._w_lo
        u += f_lo
        return np.where(k > 1.0, u, -np.inf)

    def corner(self, f_held):
        return np.where(self._corners, self._w * f_held + self._corner_zero, -np.inf)


def _candidates(budgets: _Budgets, value: _Valuation, k_a, k_b, felicities):
    """The enumeration's candidates in order, as ``(x_a, x_b, utility)``.

    The order is kink, A-high, corner A, B-high, corner B.  ``felicities`` is
    ``value.fixed_felicities(budgets)``; the corners are left out where it has
    none.  A candidate's utility is -inf where it is not admissible.  An
    interior ratio ``k_a`` or ``k_b`` of None leaves that interior out, for a
    caller that knows it inadmissible on every entry: a candidate of utility
    -inf never replaces the best.
    """
    f_kink, f_corners = felicities
    yield budgets.kink, budgets.kink, value.kink(f_kink)
    if k_a is not None:
        x_a, x_b = _interior(budgets.p_a, budgets.p_b, k_a)
        yield x_a, x_b, value.interior(x_a, x_b, k_a)
    if f_corners is not None:
        yield budgets.corner_a, 0.0, value.corner(f_corners[0])
    if k_b is not None:
        x_b, x_a = _interior(budgets.p_b, budgets.p_a, k_b)
        yield x_a, x_b, value.interior(x_b, x_a, k_b)
    if f_corners is not None:
        yield 0.0, budgets.corner_b, value.corner(f_corners[1])


class _Best:
    """The best candidate so far, under the enumeration's tie rule.

    It starts at the first candidate, the kink, whose bundle is positive.
    ``offer`` replaces the best by a later candidate on a larger utility, or
    on an equal one with a larger ``x_a`` unless the best is the kink.  A best
    that is not the kink has a utility above -inf, so an equal utility belongs
    to an admissible candidate.  The utilities have the full shape from the
    kink on; a candidate that wins nowhere, or everywhere with full-shape
    holdings, is taken without a selection once the best's holdings have that
    shape too.
    """

    def __init__(self, x_a, x_b, u):
        self.x_a, self.x_b, self.u = x_a, x_b, u
        self._not_kink = False

    def offer(self, x_a, x_b, u):
        better = u > self.u
        if self._not_kink is not False:
            tie = (u == self.u) & self._not_kink
            if np.count_nonzero(tie):
                better |= tie & (x_a > self.x_a)
        wins = np.count_nonzero(better)
        if wins == better.size and np.shape(x_a) == np.shape(x_b) == better.shape:
            self.x_a, self.x_b, self.u = x_a, x_b, u
        elif wins or self.x_a.shape != better.shape:
            self.x_a = np.where(better, x_a, self.x_a)
            self.x_b = np.where(better, x_b, self.x_b)
            self.u = np.where(better, u, self.u)
        if wins:
            self._not_kink = self._not_kink | better


def _optimum(candidates) -> tuple[np.ndarray, np.ndarray]:
    """The bundle ``(x_a, x_b)`` that ``_Best`` keeps from ``_candidates``."""
    best = _Best(*next(candidates))
    for candidate in candidates:
        best.offer(*candidate)
    return best.x_a, best.x_b


def _demand(budgets: _Budgets, w: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimal bundle ``(x_a, x_b)`` at the weights ``w`` and ``rho``.

    ``rho`` broadcasts against the budgets' price columns and ``w`` against
    ``rho``.  An interior whose base ``odds * price ratio`` is <= 1 on every
    entry is left out: its ratio ``k = base^(1/rho)`` is then <= 1 at every
    rho, so it is inadmissible, and a candidate of utility -inf never replaces
    the best.  Where every candidate after the kink is left out, the holdings
    are the kink's, of the budgets' shape.
    """
    value = _Valuation(rho, w)
    odds, inv_rho = w / (1.0 - w), 1.0 / rho
    k_a, k_b = (np.power(base, inv_rho) if np.count_nonzero(base > 1.0) else None
                for base in (odds * budgets.ratio_a, odds * budgets.ratio_b))
    return _optimum(_candidates(budgets, value, k_a, k_b, value.fixed_felicities(budgets)))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def optimal_demand_grid(prices: np.ndarray, beta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Maximize the kinked objective for every (parameter, budget) pair.

    ``prices`` has shape (N, 2); ``beta`` and ``rho`` shape (G,).  Returns the
    demand (G, N, 2): the candidate of the largest utility, exact ties broken
    kink first, then larger ``x_a`` (:class:`_Best`).
    """
    prices = np.asarray(prices, dtype=float)
    w = 1.0 / (2.0 + np.asarray(beta, dtype=float)[:, None])
    x_a, x_b = _demand(_Budgets(prices), w, np.asarray(rho, dtype=float)[:, None])
    demand = np.empty((len(w), len(prices), 2))
    demand[..., 0], demand[..., 1] = x_a, x_b
    return demand


def optimal_demand(p: PricePair, params: DAParams) -> tuple[float, float]:
    """The optimal bundle ``(x_a, x_b)`` at one budget: :func:`optimal_demand_grid` at one pair."""
    demand = optimal_demand_grid(
        np.array([[p.p_a, p.p_b]]), np.array([params.beta]), np.array([params.rho])
    )
    return float(demand[0, 0, 0]), float(demand[0, 0, 1])
