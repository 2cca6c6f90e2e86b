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
utility ties are broken deterministically -- kink first, then the candidate
with the larger ``x_a`` -- and flagged.

That enumeration is written once: :class:`_Valuation` values the candidates,
:func:`_candidates` lists them in order, and :class:`_Best` is the one
best-so-far selection that holds the tie rule.  :func:`optimal_demand_grid`
derives its branch codes and tie flags from it, and the recovery kernels in
``estimation`` (the beta < 0 grid rows and the paired loss) run it for the
demand alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


class Branch(str, Enum):
    INTERIOR_A_HIGH = "interior_A_high"
    INTERIOR_B_HIGH = "interior_B_high"
    KINK = "kink"
    CORNER_A = "corner_A"
    CORNER_B = "corner_B"


_BRANCHES = (Branch.KINK, Branch.INTERIOR_A_HIGH, Branch.CORNER_A,
             Branch.INTERIOR_B_HIGH, Branch.CORNER_B)


@dataclass(frozen=True)
class DemandSolution:
    demand: tuple[float, float]
    branch: Branch
    utility: float
    tie: bool = False


def crra(x: float, rho: float) -> float:
    """CRRA felicity; log branch within 1e-10 of rho = 1; -inf at x = 0 for rho >= 1."""
    if x < 0:
        raise ValidationError(f"wealth must be nonnegative, got {x}")
    if abs(rho - 1.0) < _LOG_RHO_EPS:
        return math.log(x) if x > 0 else -math.inf
    if x == 0 and rho > 1.0:
        return -math.inf
    return (x ** (1.0 - rho) - 1.0) / (1.0 - rho)


def da_utility(x: tuple[float, float], params: DAParams) -> float:
    """w u(max) + (1-w) u(min) for a two-outcome bundle."""
    x_a, x_b = x
    w = params.weight
    hi, lo = (x_a, x_b) if x_a >= x_b else (x_b, x_a)
    return w * crra(hi, params.rho) + (1.0 - w) * crra(lo, params.rho)


class _Budgets:
    """Per-round budgets as the demand kernels use them: (N,) price columns, the
    price ratios, and the bundles that do not depend on the parameters (the kink
    and the two corners).  Prices are positive with a finite sum."""

    def __init__(self, prices: np.ndarray):
        self.p_a, self.p_b = prices[:, 0], prices[:, 1]
        self.ratio_a, self.ratio_b = self.p_b / self.p_a, self.p_a / self.p_b
        self.kink = 1.0 / (self.p_a + self.p_b)
        self.corner_a, self.corner_b = 1.0 / self.p_a, 1.0 / self.p_b

    def ratios(self, odds, inv_rho):
        """The interior ratios: ``k_a = x_a / x_b`` on the A-high branch, ``k_b = x_b / x_a``
        on the B-high one."""
        return np.power(odds * self.ratio_a, inv_rho), np.power(odds * self.ratio_b, inv_rho)

    def interiors(self, k_a, k_b):
        """The bundles on the budget lines at those ratios: ``(x_a, x_b)`` A-high, then B-high."""
        x_b_ia = 1.0 / (self.p_a * k_a + self.p_b)
        x_a_ib = 1.0 / (self.p_b * k_b + self.p_a)
        return (k_a * x_b_ia, x_b_ia), (x_a_ib, k_b * x_a_ib)


class _Valuation:
    """The objective ``w u(x_hi) + (1 - w) u(x_lo)`` at the enumeration's candidates.

    ``rho`` is an array that broadcasts against the holdings, and ``w``, the
    weight on the better outcome, one that broadcasts against ``rho``; the
    felicities need no ``w``.  ``spread`` maps each array computed per
    parameter to the holdings' layout, after the branches are decided per
    parameter (``estimation._PairedLoss`` repeats each pair over its
    dataset's rounds).

    The felicity is CRRA: ``(x^(1 - rho) - 1) / (1 - rho)`` of positive
    holdings, ``log(x)`` where rho is within ``_LOG_RHO_EPS`` of 1 (on those
    entries only, if there are any), and ``u(0)`` apart: -inf from
    ``rho = 1 - _LOG_RHO_EPS`` up, where the power branch would still be finite
    below 1, and ``-1 / (1 - rho)`` below.  The corners are admissible only for
    rho < 1, where ``u(0)`` can be finite, and are left out where no rho is.
    """

    def __init__(self, rho: np.ndarray, w: np.ndarray | None = None, spread=lambda a: a):
        exponent = 1.0 - rho
        log = np.abs(rho - 1.0) < _LOG_RHO_EPS
        corners = rho < 1.0
        self._spread = spread
        self._at_zero = np.where(rho >= 1.0 - _LOG_RHO_EPS, -np.inf, -1.0 / exponent)
        self._exponent = spread(exponent)
        self._log = spread(log) if log.any() else None
        self._corners = spread(corners) if corners.any() else None
        if w is not None:
            self._w = spread(w)
            self._w_lo = 1.0 - self._w
            if self._corners is not None:
                self._corner_zero = spread((1.0 - w) * self._at_zero)

    def felicity(self, x):
        """u(x) of positive holdings, broadcast against rho."""
        u = (np.power(x, self._exponent) - 1.0) / self._exponent
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
        """An interior bundle ``x_hi = k * x_lo``, admissible where ``k > 1``.

        There ``x_hi >= x_lo``.  ``x_lo`` is 0 only where its denominator
        overflowed, and ``x_hi`` is then 0, or NaN (inf * 0) if k = inf; both
        holdings are then valued as ``x_hi``, a NaN one as a holding of 1.
        """
        u = self._w * self.felicity(x_hi) + self._w_lo * self.felicity(x_lo)
        held = x_lo > 0.0
        if not held.all():
            f = np.where(np.isnan(x_hi), self.felicity(1.0), self._spread(self._at_zero))
            u = np.where(held, u, self._w * f + self._w_lo * f)
        return np.where(k > 1.0, u, -np.inf)

    def corner(self, f_held):
        return np.where(self._corners, self._w * f_held + self._corner_zero, -np.inf)


def _candidates(budgets: _Budgets, value: _Valuation, k_a, k_b, felicities):
    """The enumeration's candidates in order, as ``(code, x_a, x_b, utility)``.

    The order is kink, A-high, corner A, B-high, corner B, and ``code`` indexes
    ``_BRANCHES``.  ``felicities`` is ``value.fixed_felicities(budgets)``; the
    corners are left out where it has none.  A candidate's utility is -inf where
    it is not admissible.
    """
    f_kink, f_corners = felicities
    (x_a_ia, x_b_ia), (x_a_ib, x_b_ib) = budgets.interiors(k_a, k_b)
    yield 0, budgets.kink, budgets.kink, value.kink(f_kink)
    yield 1, x_a_ia, x_b_ia, value.interior(x_a_ia, x_b_ia, k_a)
    if f_corners is not None:
        yield 2, budgets.corner_a, 0.0, value.corner(f_corners[0])
    yield 3, x_a_ib, x_b_ib, value.interior(x_b_ib, x_a_ib, k_b)
    if f_corners is not None:
        yield 4, 0.0, budgets.corner_b, value.corner(f_corners[1])


class _Best:
    """The best candidate so far, under the enumeration's tie rule.

    It starts at the first candidate, the kink, whose bundle is positive and
    whose utility is never NaN.  ``offer`` replaces the best by a later
    candidate on a larger utility, or on an equal one with a larger ``x_a``
    unless the best is the kink, and returns where it did.  A best that is not
    the kink has a utility above -inf, so an equal utility belongs to an
    admissible candidate.
    """

    def __init__(self, x_a, x_b, u):
        self.x_a, self.x_b, self.u = x_a, x_b, u
        self._not_kink = False

    def offer(self, x_a, x_b, u):
        better = (u > self.u) | ((u == self.u) & self._not_kink & (x_a > self.x_a))
        self.x_a = np.where(better, x_a, self.x_a)
        self.x_b = np.where(better, x_b, self.x_b)
        self.u = np.where(better, u, self.u)
        self._not_kink = self._not_kink | better
        return better


def _optimum(candidates) -> tuple[np.ndarray, np.ndarray]:
    """The bundle ``(x_a, x_b)`` that ``_Best`` keeps from ``_candidates``."""
    best = _Best(*next(candidates)[1:])
    for _, x_a, x_b, u in candidates:
        best.offer(x_a, x_b, u)
    return best.x_a, best.x_b


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def optimal_demand_grid(
    prices: np.ndarray, beta: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the kinked objective for every (parameter, budget) pair.

    ``prices`` has shape (N, 2); ``beta`` and ``rho`` shape (G,).  Returns
    demand (G, N, 2), branch codes (G, N) indexing ``_BRANCHES``, utility
    (G, N), and an exact-tie flag (G, N).  Candidates are compared on utility
    with the deterministic tie order kink > larger x_a (:class:`_Best`).  A
    candidate ties when its utility equals the best's before it and its bundle
    differs; the kink ties where its utility is -inf, the utility the
    comparison starts from.
    """
    budgets = _Budgets(np.asarray(prices, dtype=float))
    rho = np.asarray(rho, dtype=float)[:, None]
    w = 1.0 / (2.0 + np.asarray(beta, dtype=float)[:, None])
    value = _Valuation(rho, w)
    k_a, k_b = budgets.ratios(w / (1.0 - w), 1.0 / rho)
    candidates = _candidates(budgets, value, k_a, k_b, value.fixed_felicities(budgets))
    best = _Best(*next(candidates)[1:])
    code = np.zeros(best.u.shape, dtype=np.int8)
    tie = best.u == -np.inf
    for c, x_a, x_b, u in candidates:
        # a candidate that is not admissible has utility -inf, which equals the
        # best's only where the best is a kink of utility -inf, already a tie
        tie |= (u == best.u) & ((x_a != best.x_a) | (x_b != best.x_b))
        code[best.offer(x_a, x_b, u)] = c
    return np.stack([best.x_a, best.x_b], axis=-1), code, best.u, tie


def optimal_demand(p: PricePair, params: DAParams) -> DemandSolution:
    """Exact demand at one budget; thin wrapper over the vectorized kernel."""
    demand, code, util, tie = optimal_demand_grid(
        np.array([[p.p_a, p.p_b]]), np.array([params.beta]), np.array([params.rho])
    )
    return DemandSolution(
        demand=(float(demand[0, 0, 0]), float(demand[0, 0, 1])),
        branch=_BRANCHES[int(code[0, 0])],
        utility=float(util[0, 0]),
        tie=bool(tie[0, 0]),
    )
