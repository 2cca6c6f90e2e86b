from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_sloppy_dataset
from prefbench import estimation
from prefbench.da_model import DAParams, _crra_grid, optimal_demand_grid
from prefbench.data import Allocation, ChoiceRound, Provenance, ReturnPair, SubjectDataset, dataset_prefix
from prefbench.errors import ValidationError
from prefbench.estimation import (
    RecoveryConfig,
    _PointLoss,
    _grid_demand,
    _parameter_grid,
    _round_losses,
    fit_loss,
    recover_params,
    recover_prefixes,
)
from prefbench.simulation import BudgetSchedule, generate_budgets, simulate_subject
from prefbench.workflows import LEARNING_SAMPLE_SIZES


def _noisy_copy(dataset, rng, spread=5.0):
    rounds = []
    for rd in dataset.rounds:
        shift = float(rng.uniform(-spread, spread))
        t_a = min(max(rd.tokens.t_a + shift, 0.0), 100.0)
        rounds.append(
            ChoiceRound.from_returns_tokens(rd.round, rd.returns, Allocation(t_a, 100.0 - t_a))
        )
    return SubjectDataset(dataset.subject_id, Provenance.SIMULATED, tuple(rounds))


class TestFitLoss:
    def test_self_fit_is_zero(self):
        params = DAParams(0.25, 0.7)
        subject = simulate_subject(params, generate_budgets(19, 25), "s")
        assert fit_loss(subject.dataset, params) <= 1e-12

    def test_truth_beats_grid_neighbors(self):
        params = DAParams(0.25, 0.7)
        subject = simulate_subject(params, generate_budgets(19, 25), "s")
        base = fit_loss(subject.dataset, params)
        for db, dr in [(-0.05, 0.0), (0.05, 0.0), (0.0, -0.05), (0.0, 0.05)]:
            neighbor = DAParams(params.beta + db, params.rho + dr)
            assert fit_loss(subject.dataset, neighbor) >= base

    def test_fifty_fifty_tokens_at_symmetric_prices_fit_large_beta(self):
        schedule = BudgetSchedule(-1, tuple(ReturnPair(0.6, 0.6) for _ in range(5)))
        rounds = tuple(
            ChoiceRound.from_returns_tokens(i + 1, r, Allocation(50.0, 50.0))
            for i, r in enumerate(schedule.rounds)
        )
        ds = SubjectDataset("k", Provenance.SIMULATED, rounds)
        assert fit_loss(ds, DAParams(2.0, 1.0)) <= 1e-12


class TestRecovery:
    @pytest.mark.parametrize("beta0,rho0", [(0.1, 0.6), (0.0, 1.0), (-0.2, 1.5), (0.5, 0.3)])
    def test_noiseless_round_trip(self, beta0, rho0):
        subject = simulate_subject(DAParams(beta0, rho0), generate_budgets(77, 25), "s")
        fit = recover_params(subject.dataset)
        assert abs(fit.params.beta - beta0) <= 0.05
        assert abs(fit.params.rho - rho0) <= 0.05
        assert fit.converged
        assert fit.loss <= fit_loss(subject.dataset, fit.grid_best)
        assert fit.loss <= fit_loss(subject.dataset, DAParams(beta0, rho0)) + 1e-12

    def test_determinism_bitwise(self):
        subject = simulate_subject(DAParams(0.2, 0.9), generate_budgets(78, 25), "s")
        assert recover_params(subject.dataset) == recover_params(subject.dataset)

    def test_single_round_flagged(self):
        subject = simulate_subject(DAParams(0.2, 0.9), generate_budgets(79, 25), "s")
        fit = recover_params(dataset_prefix(subject.dataset, 1))
        assert not fit.converged
        assert "insufficient_rounds" in fit.flags

    def test_identical_rounds_flagged(self):
        r = ReturnPair(0.5, 0.9)
        rounds = tuple(
            ChoiceRound.from_returns_tokens(i + 1, r, Allocation(40.0, 60.0)) for i in range(5)
        )
        fit = recover_params(SubjectDataset("flat", Provenance.SIMULATED, rounds))
        assert not fit.converged
        assert "degenerate_rounds" in fit.flags

    def test_config_mapping(self):
        config = RecoveryConfig.from_mapping(
            {"grid.beta_min": -0.5, "grid.rho_points": 10, "refine.max_evals": 100,
             "refine.tol": 1e-4}
        )
        assert config.beta_min == -0.5
        assert config.rho_points == 10
        assert config.max_evals == 100
        assert config.tol == 1e-4

    def test_noise_robustness_rho_correlation(self):
        # +/-5 token uniform noise: recovered rho still tracks the truth tightly
        rng = np.random.default_rng(83)
        truths, estimates = [], []
        for i in range(50):
            rho0 = float(rng.uniform(0.3, 2.0))
            beta0 = float(rng.uniform(-0.2, 0.5))
            subject = simulate_subject(DAParams(beta0, rho0), generate_budgets(900 + i, 25), "n")
            fit = recover_params(_noisy_copy(subject.dataset, rng))
            truths.append(rho0)
            estimates.append(fit.params.rho)
        corr = float(np.corrcoef(truths, estimates)[0, 1])
        assert corr > 0.9


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _closed_form_branch(prices, betas, rhos) -> np.ndarray:
    """Branch code (``da_model._BRANCHES`` index) the closed form picks: A-high, B-high, kink."""
    p_a, p_b = prices[None, :, 0], prices[None, :, 1]
    w = 1.0 / (2.0 + betas[:, None])
    odds = w / (1.0 - w)
    with np.errstate(over="ignore"):
        k_a = np.power(odds * (p_b / p_a), 1.0 / rhos[:, None])
        k_b = np.power(odds * (p_a / p_b), 1.0 / rhos[:, None])
    return np.where(k_a > 1.0, 1, np.where(k_b > 1.0, 3, 0))


def _utility(demand, betas, rhos) -> np.ndarray:
    """da_model's objective w u(max) + (1 - w) u(min) at every (G, N) bundle."""
    w = 1.0 / (2.0 + betas[:, None])
    rho = rhos[:, None]
    return (w * _crra_grid(demand.max(axis=2), rho)
            + (1.0 - w) * _crra_grid(demand.min(axis=2), rho))


def check_closed_form(prices, betas, rhos) -> float:
    """Assert the fast grid demand against the full enumeration; return the same-branch share.

    beta < 0 rows must be the enumeration's demand.  On beta >= 0 rows the
    closed-form bundle must be optimal to 1e-12 in utility, and bitwise equal
    to the enumeration's bundle wherever both pick the same branch.
    """
    demand = _grid_demand(prices, betas, rhos)
    ref_demand, ref_code, ref_utility, _ = optimal_demand_grid(prices, betas, rhos)
    closed = betas >= 0.0
    np.testing.assert_array_equal(_bits(demand[~closed]), _bits(ref_demand[~closed]))

    fast, ref = demand[closed], ref_demand[closed]
    utility = _utility(fast, betas[closed], rhos[closed])
    shortfall = ref_utility[closed] - utility
    assert np.all(shortfall <= 1e-12), float(np.max(shortfall))
    same = _closed_form_branch(prices, betas[closed], rhos[closed]) == ref_code[closed]
    np.testing.assert_array_equal(_bits(fast[same]), _bits(ref[same]))
    return float(same.mean()) if same.size else 1.0


def _schedule_prices(seed: int, n_rounds: int) -> np.ndarray:
    returns = np.array([[r.r_a, r.r_b] for r in generate_budgets(seed, n_rounds).rounds])
    return 1.0 / (100.0 * returns)


_GRID_BETAS = _parameter_grid(RecoveryConfig())[0]
GRID_ZERO_BETA = float(_GRID_BETAS[_GRID_BETAS >= 0.0].min())  # -0.95 + 19 * 0.05 in floats


class TestGridDemand:
    def test_grid_has_the_near_zero_beta_point(self):
        assert 0.0 < GRID_ZERO_BETA < 1e-15

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_schedules_on_the_recovery_grid(self, seed):
        betas, rhos = _parameter_grid(RecoveryConfig())
        same = check_closed_form(_schedule_prices(seed, 175), betas, rhos)
        assert same > 0.999

    @pytest.mark.parametrize("beta", [0.0, GRID_ZERO_BETA, 0.05, 1.0, 3.0, -0.5, -0.95])
    def test_adversarial_cells(self, beta):
        rng = np.random.default_rng(107)
        w = 1.0 / (2.0 + beta)
        odds = w / (1.0 - w)
        rows = []
        for p in (0.01, 0.004, 0.05):
            rows.append((p, p))  # equal prices
            for delta in (0.0, 1e-12, -1e-12, 5e-13, -5e-13, 3e-16, -3e-16):
                ratio = (1.0 + delta) / odds  # k = (odds * ratio)^(1/rho) within 1e-12 of 1
                rows += [(p, p * ratio), (p * ratio, p)]
        rows += [tuple(r) for r in rng.uniform(0.002, 0.05, size=(20, 2))]
        rhos = np.array([0.05, 0.3, 1.0 - 1e-9, 1.0 - 1e-11, 1.0, 1.0 + 1e-11, 1.0 + 1e-9,
                         2.0, 3.9, 5.0])
        check_closed_form(np.array(rows), np.full(len(rhos), beta), rhos)

    def test_mixed_sign_rows_keep_their_order(self):
        prices = _schedule_prices(109, 25)
        betas = np.array([0.5, -0.5, 0.0, -0.2, 2.0])
        rhos = np.array([0.7, 0.7, 1.3, 2.0, 0.4])
        check_closed_form(prices, betas, rhos)


def _sloppy_subject(seed: int, params: DAParams, n_rounds: int = 175) -> SubjectDataset:
    """Exact choices plus N(0, 10) token noise, rounded and clipped to the budget."""
    rng = np.random.default_rng(seed)
    exact = simulate_subject(params, generate_budgets(seed, n_rounds), f"sl{seed}").dataset
    rounds = []
    for rd in exact.rounds:
        t_a = min(max(round(rd.tokens.t_a + float(rng.normal(0.0, 10.0))), 0.0), 100.0)
        rounds.append(
            ChoiceRound.from_returns_tokens(rd.round, rd.returns, Allocation(t_a, 100.0 - t_a))
        )
    return SubjectDataset(exact.subject_id, Provenance.SIMULATED, tuple(rounds))


class TestRecoverPrefixes:
    def test_prefix_grid_loss_is_the_prefix_of_per_round_losses(self):
        ds = _sloppy_subject(113, DAParams(0.4, 0.8))
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, tokens = ds.price_matrix(), ds.return_matrix(), ds.token_matrix()
        per_round = _round_losses(_grid_demand(prices, betas, rhos), returns, tokens)
        for size in (1, 10, 25, 75):
            alone = _round_losses(_grid_demand(prices[:size], betas, rhos),
                                  returns[:size], tokens[:size]).mean(axis=1)
            np.testing.assert_array_equal(_bits(per_round[:, :size].mean(axis=1)), _bits(alone))

    @pytest.mark.parametrize("kind", ["exact", "sloppy"])
    def test_equals_recover_params_per_prefix(self, kind):
        params = DAParams(0.3, 1.2)
        ds = (simulate_subject(params, generate_budgets(127, 175), "ex").dataset
              if kind == "exact" else _sloppy_subject(127, params))
        fits = recover_prefixes(ds, LEARNING_SAMPLE_SIZES)
        assert list(fits) == list(LEARNING_SAMPLE_SIZES)
        for size, fit in fits.items():
            assert fit == recover_params(dataset_prefix(ds, size))

    def test_flags_are_per_prefix(self):
        rounds = tuple(
            ChoiceRound.from_returns_tokens(i + 1, ReturnPair(0.5, 0.9), Allocation(40.0, 60.0))
            for i in range(4)
        ) + (ChoiceRound.from_returns_tokens(5, ReturnPair(0.8, 0.4), Allocation(70.0, 30.0)),)
        ds = SubjectDataset("p", Provenance.SIMULATED, rounds)
        fits = recover_prefixes(ds, (1, 4, 5))
        assert fits[1].flags == ("insufficient_rounds",)
        assert fits[4].flags == ("degenerate_rounds",)
        assert fits[5].flags == ()
        for size, fit in fits.items():
            assert fit == recover_params(dataset_prefix(ds, size))

    @pytest.mark.parametrize("size", [0, 6])
    def test_rejects_sizes_outside_the_dataset(self, size):
        subject = simulate_subject(DAParams(0.2, 0.9), generate_budgets(131, 5), "s")
        with pytest.raises(ValidationError, match="prefix size"):
            recover_prefixes(subject.dataset, (2, size))


@pytest.fixture
def enumeration_grid(monkeypatch):
    """Recovery as it was before the closed form: full candidate enumeration in every
    grid row, and the loss summed over the asset axis."""
    def enumerate_all(prices, betas, rhos):
        return optimal_demand_grid(prices, betas, rhos)[0]

    def summed_losses(demand, returns, tokens):
        shares = (demand / returns[None, :, :] - tokens[None, :, :]) / 100.0
        return np.sum(shares * shares, axis=2)

    def recover(dataset):
        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_grid_demand", enumerate_all)
            patch.setattr(estimation, "_round_losses", summed_losses)
            return recover_params(dataset)

    return recover


class TestAgainstEnumerationGrid:
    def test_criterion_3_round_trips(self, enumeration_grid):
        for i, beta0 in enumerate((-0.2, 0.0, 0.1, 0.3, 0.5)):
            for j, rho0 in enumerate((0.3, 0.6, 1.0, 1.5)):
                schedule = generate_budgets(40_000 + 10 * i + j, 25)
                ds = simulate_subject(DAParams(beta0, rho0), schedule, "rt").dataset
                assert recover_params(ds) == enumeration_grid(ds)

    def test_sloppy_175_round_subjects(self, enumeration_grid):
        rng = np.random.default_rng(137)
        datasets = [
            _sloppy_subject(139, DAParams(0.0, 0.5)),
            _sloppy_subject(149, DAParams(1.5, 3.0)),
            _sloppy_subject(151, DAParams(-0.5, 1.0)),
            random_sloppy_dataset(rng, 175),
        ]
        for ds in datasets:
            assert recover_params(ds) == enumeration_grid(ds)


def loss_grid(
    prices: np.ndarray, returns: np.ndarray, tokens: np.ndarray,
    beta: np.ndarray, rho: np.ndarray,
) -> np.ndarray:
    """Token-share loss for each parameter pair through the full candidate enumeration;
    shapes (N, 2) data, (G,) params.  The reference for ``estimation._PointLoss``."""
    demand, _, _, _ = optimal_demand_grid(prices, beta, rho)
    return _round_losses(demand, returns, tokens).mean(axis=1)


def _reference_loss(data, beta: float, rho: float) -> float:
    return float(loss_grid(*data, np.array([beta]), np.array([rho]))[0])


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _loss_mismatches(data, points) -> list:
    """(beta, rho, kernel, reference) wherever the kernel's loss is not the reference's float."""
    loss = _PointLoss(*data)
    found = []
    for beta, rho in points:
        got, want = loss(beta, rho), _reference_loss(data, beta, rho)
        if not _same_float(got, want):
            found.append((beta, rho, got, want))
    return found


def _matrices(dataset: SubjectDataset):
    return dataset.price_matrix(), dataset.return_matrix(), dataset.token_matrix()


def _priced(prices: np.ndarray, rng: np.random.Generator):
    """(prices, returns, tokens) with arbitrary token choices on the given budgets."""
    t_a = rng.uniform(0.0, 100.0, len(prices))
    return prices, 1.0 / (100.0 * prices), np.column_stack([t_a, 100.0 - t_a])


def _refinement_point(z_beta: float, z_rho: float) -> tuple[float, float]:
    """The refinement's map from its unconstrained coordinates, clamp included."""
    z_beta, z_rho = (min(max(z, -60.0), 60.0) for z in (z_beta, z_rho))
    return RecoveryConfig().beta_min + math.exp(z_beta), math.exp(z_rho)


def _kink_edge_prices(betas) -> np.ndarray:
    """Budgets whose interior ratio k is within 1e-6 .. 3e-16 of 1 near rho = 1, so
    the interior and kink utilities nearly tie; plus equal prices."""
    rows = []
    for beta in betas:
        w = 1.0 / (2.0 + beta)
        odds = w / (1.0 - w)
        for p in (0.004, 0.01, 0.02, 0.033, 0.05):
            rows.append((p, p))
            for delta in (0.0, 1e-12, -1e-12, 5e-13, -5e-13, 3e-16, -3e-16, 1e-9, -1e-9,
                          1e-6, -1e-6):
                ratio = (1.0 + delta) / odds
                rows += [(p, p * ratio), (p * ratio, p)]
    return np.array(rows)


_EDGE_BETAS = (-1.0 + 1e-12, -0.999, _refinement_point(-60.0, 0.0)[0], -0.5, 0.0, GRID_ZERO_BETA,
               0.3, 2.0, _refinement_point(60.0, 0.0)[0])
_EDGE_RHOS = (
    math.exp(-60.0), 1e-300, 0.05, 0.5,
    1.0 - 2e-10, float(np.nextafter(1.0 - 1e-10, 0.0)), 1.0 - 1e-10, 1.0 - 5e-11, 1.0,
    1.0 + 5e-11, 1.0 + 1e-10, float(np.nextafter(1.0 + 1e-10, 2.0)), 1.0 + 2e-10,
    3.9, math.exp(60.0),
)
EDGE_POINTS = [(beta, rho) for beta in _EDGE_BETAS for rho in _EDGE_RHOS]


class TestPointLoss:
    """``_PointLoss`` must return the enumeration's float, NaN included."""

    @pytest.mark.parametrize("seed", [211, 212, 213])
    def test_random_sloppy_data_at_random_points(self, seed):
        rng = np.random.default_rng(seed)
        for n_rounds in (10, int(rng.integers(11, 175)), 175):
            data = _matrices(random_sloppy_dataset(rng, n_rounds))
            points = [_refinement_point(*z) for z in rng.uniform(-8.0, 8.0, size=(40, 2))]
            assert _loss_mismatches(data, points) == []

    def test_sloppy_subject_at_the_edge_points(self):
        data = _matrices(_sloppy_subject(223, DAParams(0.3, 0.8)))
        assert _loss_mismatches(data, EDGE_POINTS) == []

    def test_equal_prices_with_noisy_tokens(self):
        # every budget is symmetric, so A-high ties B-high and corner A ties corner B:
        # the tie rule (larger x_a) decides the bundle
        rng = np.random.default_rng(227)
        price = rng.uniform(0.005, 0.05, 175)
        data = _priced(np.column_stack([price, price]), rng)
        assert _loss_mismatches(data, EDGE_POINTS) == []

    def test_budgets_where_interior_and_kink_nearly_tie(self):
        rng = np.random.default_rng(229)
        data = _priced(_kink_edge_prices((0.0, GRID_ZERO_BETA, 0.5, -0.5, 2.0)), rng)
        points = [(beta, rho) for beta in (0.0, GRID_ZERO_BETA, 0.5, -0.5, 2.0, -0.9)
                  for rho in _EDGE_RHOS[4:13]]
        assert _loss_mismatches(data, points) == []

    def test_overflowed_interior_branch(self):
        # at rho = e^-60 the interior ratio k overflows to inf wherever odds * p_b / p_a > 1,
        # and the branch's bundle is x_a = inf * 0 = NaN, which the enumeration values at 0
        beta, rho = _refinement_point(math.log(0.45), -60.0)  # beta = -0.5, odds = 2
        rng = np.random.default_rng(233)
        data = _matrices(random_sloppy_dataset(rng, 60))
        assert np.any(2.0 * data[0][:, 1] / data[0][:, 0] > 1.0)
        # the experiments' budgets give kink holdings above 1 and a positive kink
        # utility, so the NaN bundle never wins
        assert not math.isnan(_PointLoss(*data)(beta, rho))
        assert _loss_mismatches(data, [(beta, rho)]) == []
        # budgets costing more than 1 per unit: every other candidate's utility is
        # negative, the enumeration picks the NaN bundle, and the loss is NaN in both
        data = _priced(rng.uniform(1.0, 2.0, size=(20, 2)), rng)
        assert math.isnan(_reference_loss(data, beta, rho))
        assert _loss_mismatches(data, [(beta, rho)]) == []

    def test_fit_loss_equals_the_enumeration(self):
        ds = _sloppy_subject(239, DAParams(-0.2, 1.4), n_rounds=40)
        for beta, rho in [(-0.2, 1.4), (0.0, 1.0), (1.5, 0.2)]:
            assert fit_loss(ds, DAParams(beta, rho)) == _reference_loss(_matrices(ds), beta, rho)


@pytest.fixture
def enumeration_loss(monkeypatch):
    """Recovery whose Nelder-Mead objective, final loss comparisons and fit_loss all go
    through the full enumeration, as before the per-point kernel."""
    class EnumerationLoss:
        def __init__(self, prices, returns, tokens):
            self.data = (prices, returns, tokens)

        def __call__(self, beta, rho):
            return _reference_loss(self.data, beta, rho)

    def recover(fit, *args):
        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_PointLoss", EnumerationLoss)
            return fit(*args)

    return recover


class TestAgainstEnumerationLoss:
    def test_criterion_3_round_trips(self, enumeration_loss):
        for i, beta0 in enumerate((-0.2, 0.0, 0.1, 0.3, 0.5)):
            for j, rho0 in enumerate((0.3, 0.6, 1.0, 1.5)):
                schedule = generate_budgets(40_000 + 10 * i + j, 25)
                ds = simulate_subject(DAParams(beta0, rho0), schedule, "rt").dataset
                assert recover_params(ds) == enumeration_loss(recover_params, ds)

    def test_sloppy_175_round_prefixes(self, enumeration_loss):
        rng = np.random.default_rng(241)
        datasets = [
            _sloppy_subject(139, DAParams(0.0, 0.5)),
            _sloppy_subject(151, DAParams(-0.5, 1.0)),
            random_sloppy_dataset(rng, 175),
        ]
        for ds in datasets:
            fits = recover_prefixes(ds, LEARNING_SAMPLE_SIZES)
            assert fits == enumeration_loss(recover_prefixes, ds, LEARNING_SAMPLE_SIZES)
            assert all(not math.isnan(fit.loss) for fit in fits.values())
