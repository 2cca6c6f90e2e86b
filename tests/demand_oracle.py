"""The candidate enumeration for optimal demand as it was written before its kernels
shared one selection: the reference that ``da_model.optimal_demand_grid`` and the
recovery kernels are compared against, bit for bit.  It also gives what the
package no longer computes: the winning candidate's branch code, its utility and
an exact-tie flag, and the scalar felicity and objective.  An interior whose
denominator ``p_hi k + p_lo`` overflows is its k -> inf limit, the whole budget on
the higher holding, as in ``da_model._interior`` (:func:`overflowed_interiors`
says where)."""

from __future__ import annotations

import math

import numpy as np

from prefbench.da_model import _LOG_RHO_EPS, DAParams
from prefbench.errors import ValidationError

# the branch codes of ``enumeration_demand_grid``: its candidates' indices, in order
KINK, INTERIOR_A_HIGH, CORNER_A, INTERIOR_B_HIGH, CORNER_B = range(5)


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


def crra_grid(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Vectorized CRRA with the same branch rules as :func:`crra`."""
    log_branch = np.abs(rho - 1.0) < _LOG_RHO_EPS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(
            log_branch,
            np.log(np.where(x > 0, x, 1.0)),
            (np.power(np.where(x > 0, x, 1.0), 1.0 - rho) - 1.0) / np.where(log_branch, np.nan, 1.0 - rho),
        )
        zero = x <= 0.0
        out = np.where(zero & (rho >= 1.0 - _LOG_RHO_EPS), -np.inf, out)
        out = np.where(zero & (rho < 1.0 - _LOG_RHO_EPS), -1.0 / (1.0 - rho), out)
    return out


def enumeration_demand_grid(
    prices: np.ndarray, beta: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the kinked objective for every (parameter, budget) pair.

    ``prices`` has shape (N, 2); ``beta`` and ``rho`` shape (G,).  Returns
    demand (G, N, 2), branch codes (G, N) (``KINK`` to ``CORNER_B``), utility
    (G, N), and an exact-tie flag (G, N).  Candidates are compared on utility
    with the deterministic tie order kink > larger x_a.  A candidate ties when
    it is admissible, its utility equals the best's before it and its bundle
    differs; the comparison starts from utility -inf at (0, 0), so a kink of
    utility -inf ties.
    """
    prices = np.asarray(prices, dtype=float)
    p_a = prices[None, :, 0]
    p_b = prices[None, :, 1]
    beta = np.asarray(beta, dtype=float)[:, None]
    rho = np.asarray(rho, dtype=float)[:, None]
    w = 1.0 / (2.0 + beta)
    odds = w / (1.0 - w)
    inv_rho = 1.0 / rho

    with np.errstate(over="ignore", invalid="ignore"):
        # one-sided interior branches: ratio of the larger to the smaller holding; where
        # the denominator overflows, the smaller holding is 0 and the larger its k -> inf
        # limit, the whole budget
        k_a = np.power(odds * (p_b / p_a), inv_rho)
        x_b_ia = 1.0 / (p_a * k_a + p_b)
        x_a_ia = np.where(x_b_ia > 0.0, k_a * x_b_ia, 1.0 / p_a)
        k_b = np.power(odds * (p_a / p_b), inv_rho)
        x_a_ib = 1.0 / (p_b * k_b + p_a)
        x_b_ib = np.where(x_a_ib > 0.0, k_b * x_a_ib, 1.0 / p_b)
    x_kink = 1.0 / (p_a + p_b)
    zeros = np.zeros(np.broadcast_shapes(x_kink.shape, rho.shape))
    x_kink_a = np.broadcast_to(x_kink, zeros.shape)

    def utility(xa, xb):
        hi = np.maximum(xa, xb)
        lo = np.minimum(xa, xb)
        return w * crra_grid(hi, rho) + (1.0 - w) * crra_grid(lo, rho)

    corner_ok = np.broadcast_to(rho < 1.0, zeros.shape)
    candidates = (
        (x_kink_a, np.broadcast_to(x_kink, zeros.shape), np.ones_like(zeros, dtype=bool)),
        (np.broadcast_to(x_a_ia, zeros.shape), np.broadcast_to(x_b_ia, zeros.shape),
         np.broadcast_to(k_a > 1.0, zeros.shape)),
        (np.broadcast_to(1.0 / p_a, zeros.shape), zeros, corner_ok),
        (np.broadcast_to(x_a_ib, zeros.shape), np.broadcast_to(x_b_ib, zeros.shape),
         np.broadcast_to(k_b > 1.0, zeros.shape)),
        (zeros, np.broadcast_to(1.0 / p_b, zeros.shape), corner_ok),
    )

    best_u = np.full(zeros.shape, -np.inf)
    best_xa = np.zeros(zeros.shape)
    best_xb = np.zeros(zeros.shape)
    best_code = np.zeros(zeros.shape, dtype=np.int8)
    best_is_kink = np.zeros(zeros.shape, dtype=bool)
    tie = np.zeros(zeros.shape, dtype=bool)

    for code, (xa, xb, admissible) in enumerate(candidates):
        u = np.where(admissible, utility(xa, xb), -np.inf)
        is_kink = code == 0
        equal = admissible & (u == best_u) & ((xa != best_xa) | (xb != best_xb))
        tie |= equal
        better = (u > best_u) | (equal & ~best_is_kink & (is_kink | (xa > best_xa)))
        best_xa = np.where(better, xa, best_xa)
        best_xb = np.where(better, xb, best_xb)
        best_code = np.where(better, np.int8(code), best_code)
        best_is_kink = np.where(better, is_kink, best_is_kink)
        best_u = np.where(better, u, best_u)

    demand = np.stack([best_xa, best_xb], axis=-1)
    return demand, best_code, best_u, tie


def overflowed_interiors(prices: np.ndarray, beta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Where an interior's denominator ``p_hi k + p_lo`` overflows, (G, N): its bundle
    there is the k -> inf limit, ``(1 / p_hi, 0)`` on the higher side."""
    prices = np.asarray(prices, dtype=float)
    p_a, p_b = prices[None, :, 0], prices[None, :, 1]
    w = 1.0 / (2.0 + np.asarray(beta, dtype=float)[:, None])
    inv_rho = 1.0 / np.asarray(rho, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        k_a = np.power(w / (1.0 - w) * (p_b / p_a), inv_rho)
        k_b = np.power(w / (1.0 - w) * (p_a / p_b), inv_rho)
        return np.isinf(p_a * k_a + p_b) | np.isinf(p_b * k_b + p_a)


def budget_gap(prices: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """``|p_a x_a + p_b x_b - 1|`` of every bundle of a (..., N, 2) demand."""
    return np.abs(prices[:, 0] * demand[..., 0] + prices[:, 1] * demand[..., 1] - 1.0)
