from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from demand_oracle import (CORNER_A, INTERIOR_A_HIGH, INTERIOR_B_HIGH, KINK, budget_gap, crra,
                           da_utility, enumeration_demand_grid, overflowed_interiors)
from prefbench.da_model import DAParams, optimal_demand, optimal_demand_grid
from prefbench.data import PricePair
from prefbench.errors import ValidationError

price_strategy = st.floats(min_value=0.002, max_value=0.1, allow_nan=False)
beta_strategy = st.floats(min_value=-0.9, max_value=3.0, allow_nan=False)
rho_strategy = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def grid_scan_utility(p: PricePair, params: DAParams, points: int = 10_001) -> float:
    """Independent oracle: best objective value on a uniform budget-line grid."""
    x_a = np.linspace(0.0, 1.0 / p.p_a, points)
    x_b = (1.0 - p.p_a * x_a) / p.p_b
    x_b[-1] = 0.0
    w = 1.0 / (2.0 + params.beta)
    hi = np.maximum(x_a, x_b)
    lo = np.minimum(x_a, x_b)

    def u(x):
        with np.errstate(divide="ignore"):
            if abs(params.rho - 1.0) < 1e-10:
                return np.log(x)
            out = (np.power(x, 1.0 - params.rho) - 1.0) / (1.0 - params.rho)
            if params.rho > 1.0:
                out[x == 0.0] = -np.inf
            return out

    return float(np.max(w * u(hi) + (1.0 - w) * u(lo)))


@dataclass(frozen=True)
class Solution:
    demand: tuple[float, float]
    branch: int
    utility: float
    tie: bool


def solve(p: PricePair, params: DAParams) -> Solution:
    """``optimal_demand``'s bundle, with the enumeration oracle's branch code, utility and
    tie flag at the same budget; the two bundles must be equal."""
    demand, code, utility, tie = enumeration_demand_grid(
        np.array([[p.p_a, p.p_b]]), np.array([params.beta]), np.array([params.rho]))
    bundle = optimal_demand(p, params)
    assert bundle == (float(demand[0, 0, 0]), float(demand[0, 0, 1]))
    return Solution(bundle, int(code[0, 0]), float(utility[0, 0]), bool(tie[0, 0]))


class TestCrra:
    """The oracle's scalar felicity."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_unit_wealth_is_zero(self, rho):
        assert crra(1.0, rho) == 0.0

    def test_power_branch(self):
        assert crra(4.0, 0.5) == 2.0

    def test_log_branch(self):
        assert crra(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert crra(math.e, 1.0 + 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_zero_wealth(self):
        assert crra(0.0, 1.0) == -math.inf
        assert crra(0.0, 2.0) == -math.inf
        assert crra(0.0, 0.5) == -2.0  # (0 - 1) / (1 - 0.5)

    def test_negative_wealth_rejected(self):
        with pytest.raises(ValidationError):
            crra(-1.0, 0.5)


class TestDaUtility:
    """The oracle's scalar objective, and the parameter domains."""

    def test_degenerate_lottery(self):
        params = DAParams(0.0, 0.5)
        for a in (0.5, 1.0, 7.0):
            assert da_utility((a, a), params) == pytest.approx(crra(a, 0.5), abs=1e-15)

    def test_expected_utility_at_beta_zero(self):
        params = DAParams(0.0, 2.0)
        value = da_utility((4.0, 1.0), params)
        assert value == pytest.approx(0.5 * crra(4.0, 2.0) + 0.5 * crra(1.0, 2.0), abs=1e-15)

    def test_plug_in_arithmetic(self):
        # w = 1/4 on the better outcome: (1/4) * 2 + (3/4) * 0
        assert da_utility((4.0, 1.0), DAParams(2.0, 0.5)) == 0.5

    def test_parameter_domains(self):
        with pytest.raises(ValidationError):
            DAParams(-1.0, 0.5)
        with pytest.raises(ValidationError):
            DAParams(0.0, 0.0)
        assert 0.0 < DAParams(3.0, 1.0).weight < 1.0


class TestOptimalDemand:
    """``optimal_demand``'s bundle; branch, utility and tie flag from the oracle."""

    def test_log_utility_symmetric(self):
        sol = solve(PricePair(0.02, 0.02), DAParams(0.0, 1.0))
        assert sol.demand == (25.0, 25.0)

    def test_log_utility_splits_budget_evenly(self):
        p = PricePair(0.0237, 0.0125)
        sol = solve(p, DAParams(0.0, 1.0))
        assert sol.demand[0] == pytest.approx(1.0 / (2 * p.p_a), abs=1e-9)
        assert sol.demand[1] == pytest.approx(1.0 / (2 * p.p_b), abs=1e-9)
        assert sol.utility >= grid_scan_utility(p, DAParams(0.0, 1.0)) - 1e-9

    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
    def test_disappointment_averse_kink_at_symmetric_prices(self, rho):
        sol = solve(PricePair(0.01, 0.01), DAParams(1.0, rho))
        assert sol.branch == KINK
        assert sol.demand == (50.0, 50.0)

    def test_beta_zero_matches_eu_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = PricePair(*np.exp(rng.uniform(np.log(0.005), np.log(0.05), 2)))
            rho = float(rng.uniform(0.1, 4.0))
            sol = solve(p, DAParams(0.0, rho))
            x_a, x_b = sol.demand
            if min(x_a, x_b) > 1e-9:
                assert x_a / x_b == pytest.approx((p.p_b / p.p_a) ** (1.0 / rho), rel=1e-9)

    @given(price_strategy, price_strategy, beta_strategy, rho_strategy)
    def test_budget_exhaustion_and_branch_consistency(self, p_a, p_b, beta, rho):
        p = PricePair(p_a, p_b)
        sol = solve(p, DAParams(beta, rho))
        assert (p.p_a * sol.demand[0] + p.p_b * sol.demand[1]) == pytest.approx(1.0, abs=1e-12)
        x_a, x_b = sol.demand
        if sol.branch == KINK:
            assert x_a == x_b
        elif sol.branch == INTERIOR_A_HIGH:
            assert x_a > x_b > 0.0
        elif sol.branch == INTERIOR_B_HIGH:
            assert x_b > x_a > 0.0
        elif sol.branch == CORNER_A:
            assert x_b == 0.0
        else:
            assert x_a == 0.0

    def test_grid_dominance_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = PricePair(*np.exp(rng.uniform(np.log(0.005), np.log(0.05), 2)))
            params = DAParams(float(rng.uniform(-0.9, 3.0)), float(rng.uniform(0.1, 5.0)))
            sol = solve(p, params)
            assert sol.utility >= grid_scan_utility(p, params, points=2001) - 1e-9

    def test_grid_dominance_fine_grid_examples(self):
        for p, params in [
            (PricePair(0.01, 0.02), DAParams(0.5, 0.7)),
            (PricePair(0.03, 0.012), DAParams(-0.4, 0.4)),
            (PricePair(0.02, 0.02), DAParams(2.0, 1.0)),
            (PricePair(0.008, 0.05), DAParams(0.0, 3.0)),
        ]:
            sol = solve(p, params)
            assert sol.utility >= grid_scan_utility(p, params, points=10_001) - 1e-9

    def test_kink_region_widens_with_disappointment_aversion(self):
        # beta > 0 produces equal holdings on an interval of price ratios around 1
        params = DAParams(0.1, 1.0)
        log_ratios = np.linspace(-0.2, 0.2, 81)
        kink_flags = []
        for log_ratio in log_ratios:
            p = PricePair(0.01 * math.exp(log_ratio / 2), 0.01 * math.exp(-log_ratio / 2))
            sol = solve(p, params)
            kink_flags.append(sol.branch == KINK)
        width = math.log(1.0 + params.beta)
        for log_ratio, is_kink in zip(log_ratios, kink_flags):
            assert is_kink == (abs(log_ratio) <= width + 1e-12)
        assert any(kink_flags) and not all(kink_flags)

    def test_elation_seeker_never_kinks_off_symmetry(self):
        sol = solve(PricePair(0.011, 0.01), DAParams(-0.3, 1.0))
        assert sol.branch != KINK

    @given(price_strategy, price_strategy, beta_strategy, rho_strategy)
    def test_label_symmetry(self, p_a, p_b, beta, rho):
        params = DAParams(beta, rho)
        sol = solve(PricePair(p_a, p_b), params)
        swapped = solve(PricePair(p_b, p_a), params)
        if not sol.tie:
            assert swapped.demand == (sol.demand[1], sol.demand[0])

    def test_elation_seeking_tie_flagged_and_broken_toward_a(self):
        sol = solve(PricePair(0.01, 0.01), DAParams(-0.5, 1.0))
        assert sol.tie
        assert sol.demand[0] > sol.demand[1]

    def test_corner_handling(self):
        # u'(0+) is infinite for every rho > 0, so exact corners never beat the
        # adjacent interior optimum; they participate as candidates for rho < 1
        # (finite utility) and are excluded at rho >= 1 (utility -inf at zero).
        p = PricePair(0.01, 0.01)
        params = DAParams(-0.9, 0.3)
        sol = solve(p, params)
        assert sol.utility >= da_utility((1.0 / p.p_a, 0.0), params)
        assert min(sol.demand) > 0.0
        sol = solve(p, DAParams(-0.9, 1.5))
        assert min(sol.demand) > 0.0
        assert da_utility((1.0 / p.p_a, 0.0), DAParams(-0.9, 1.5)) == -math.inf


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _adversarial_prices(betas, rng: np.random.Generator) -> np.ndarray:
    """Equal prices, and prices whose interior ratio k is within 1e-12 .. 3e-16 of 1 for
    each beta (the interior and kink utilities nearly tie), plus random budgets."""
    rows = []
    for beta in betas:
        odds = (1.0 / (2.0 + beta)) / (1.0 - 1.0 / (2.0 + beta))
        for p in (0.01, 0.004, 0.05):
            rows.append((p, p))
            for delta in (0.0, 1e-12, -1e-12, 5e-13, -5e-13, 3e-16, -3e-16):
                ratio = (1.0 + delta) / odds
                rows += [(p, p * ratio), (p * ratio, p)]
    rows += [tuple(r) for r in rng.uniform(0.002, 0.05, size=(20, 2))]
    return np.array(rows)


def _flat(betas, rhos) -> tuple[np.ndarray, np.ndarray]:
    bb, rr = np.meshgrid(np.asarray(betas, dtype=float), np.asarray(rhos, dtype=float),
                         indexing="ij")
    return bb.reshape(-1), rr.reshape(-1)


class TestAgainstEnumerationOracle:
    """``optimal_demand_grid``'s demand must equal the enumeration it was before its kernels
    shared one selection, bit for bit; the cases read the branch codes and tie flags
    from the enumeration."""

    GRID_ZERO_BETA = -0.95 + 0.05 * 19  # the recovery grid's beta next to 0, about 1e-16

    @staticmethod
    def check(prices, betas, rhos):
        got = optimal_demand_grid(prices, betas, rhos)
        want = enumeration_demand_grid(prices, betas, rhos)
        assert got.shape == want[0].shape and got.dtype == want[0].dtype
        np.testing.assert_array_equal(_bits(got), _bits(want[0]))
        return want

    def test_adversarial_budgets(self):
        betas = (0.0, self.GRID_ZERO_BETA, 0.05, 1.0, 3.0, -0.5, -0.95, -1e-17)
        rhos = (0.05, 0.3, 1.0 - 2e-10, 1.0 - 1e-10, 1.0 - 1e-11, 1.0, 1.0 + 1e-11,
                1.0 + 1e-10, 2.0, 3.9, 5.0)
        prices = _adversarial_prices(betas, np.random.default_rng(107))
        _, code, _, tie = self.check(prices, *_flat(betas, rhos))
        assert set(np.unique(code)) == {0, 1, 2, 3, 4}
        assert tie.any()

    def test_corners_below_rho_one(self):
        # elation seekers at low rho on lopsided budgets pick a corner
        rng = np.random.default_rng(109)
        prices = np.vstack([rng.uniform(0.002, 0.1, size=(40, 2)), [[0.01, 0.01], [0.001, 0.1]]])
        betas, rhos = _flat((-0.95, -0.9, -0.5, -1e-17), (0.02, 0.05, 0.1, 0.3, 0.9, 1.0 - 2e-10))
        _, code, _, tie = self.check(prices, betas, rhos)
        assert {2, 4} <= set(np.unique(code))
        assert tie.any()

    def test_one_parameter_pair_at_a_time(self):
        # one (beta, rho) on every budget, and on one budget at a time: a candidate can
        # then win everywhere or nowhere, corners included, which the selection takes
        # without a where
        rng = np.random.default_rng(113)
        prices = np.vstack([_adversarial_prices((-0.5, 0.0), rng)[::4],
                            rng.uniform(0.002, 0.1, size=(6, 2)), [[0.001, 0.1], [0.1, 0.001]]])
        codes = set()
        for beta, rho in zip(*_flat((-0.95, -0.5, -1e-17, 0.0, 1.0), (0.05, 0.3, 1.0, 2.0))):
            self.check(prices, np.array([beta]), np.array([rho]))
            for row in prices:
                codes |= set(self.check(row[None], np.array([beta]), np.array([rho]))[1].ravel())
        assert codes == {0, 1, 2, 3, 4}

    def test_price_ratio_overflows(self):
        # a return of 6e-311 prices asset A at about 1.67e308: against a price of 0.02
        # p_a / p_b overflows, so k_b = inf and the B-high bundle is its limit (0, 1 / p_b),
        # and the kink holding is subnormal, of utility -inf at rho = 5, which counts as a
        # tie.  Against a price of 1 the ratio is finite, and at beta > 0 and rho = 1 the
        # B-high bundle's denominator overflows: the limit again
        returns = np.array([[6e-311, 0.5], [0.5, 6e-311], [6e-311, 0.01], [0.5, 0.9]])
        prices = 1.0 / (100.0 * returns)
        betas, rhos = _flat((-0.95, -0.5, -1e-17, 0.0, 0.5, 3.0),
                            (0.05, 0.5, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 2.0, 5.0))
        demand, code, _, tie = self.check(prices, betas, rhos)
        limit = overflowed_interiors(prices, betas, rhos) & ((code == INTERIOR_A_HIGH)
                                                             | (code == INTERIOR_B_HIGH))
        assert limit.any() and tie.any()
        assert np.isfinite(demand).all() and np.all(budget_gap(prices, demand) <= 1e-15)

        # rho from 1e-3 to 5e-3, beta next to -1, 0 and 2, and price ratios up to about
        # 1.7e308: k overflows on most entries, and every bundle is finite and on the line
        assert optimal_demand(PricePair(1.0, 10.0), DAParams(0.5, 0.001)) == (1.0, 0.0)
        rng = np.random.default_rng(131)
        prices = np.vstack([[[1.0, 10.0], [10.0, 1.0], [1e-150, 1e150], [1e154, 1e-154],
                             [1e-154, 1.7e154], [6e-309, 1.0], [1.0, 1.0]],
                            np.exp(rng.uniform(-6.0, 6.0, (40, 2)))])
        betas, rhos = _flat((-0.999, -0.99, -0.5, -1e-17, 0.0, 1e-16, 0.5, 1.999, 2.0, 2.001),
                            np.geomspace(1e-3, 5e-3, 7))
        demand, code, _, _ = self.check(prices, betas, rhos)
        overflowed = overflowed_interiors(prices, betas, rhos)
        assert overflowed.mean() > 0.5
        assert {INTERIOR_A_HIGH, INTERIOR_B_HIGH} <= set(np.unique(code[overflowed]))
        assert np.isfinite(demand).all() and np.all(budget_gap(prices, demand) <= 1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_draws(self, seed):
        rng = np.random.default_rng(seed)
        prices = rng.uniform(0.002, 0.1, size=(50, 2))
        betas = rng.uniform(-0.9, 3.0, 200)
        rhos = rng.uniform(0.05, 5.0, 200)
        self.check(prices, betas, rhos)
