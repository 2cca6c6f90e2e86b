from __future__ import annotations

import gc
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import dataset_from_prices, random_sloppy_dataset
from demand_oracle import (INTERIOR_A_HIGH, INTERIOR_B_HIGH, KINK, assert_optimal, budget_gap,
                           overflowed_interiors)
from demand_oracle import enumeration_demand_grid as optimal_demand_grid
from prefbench import estimation
from prefbench import da_model
from prefbench.da_model import DAParams, _interior
from prefbench.data import (
    SubjectDataset,
    _checks,
    _first_failure,
    dataset_prefix,
)
from prefbench.errors import ValidationError
from prefbench.estimation import (
    FitResult,
    RecoveryConfig,
    _PairedLoss,
    _parameter_grid,
    _refine_batch,
    fit_loss,
    recover_batch,
    recover_params,
)
from prefbench.simulation import generate_budgets, sample_population, simulate_subject
from prefbench.workflows import LEARNING_SAMPLE_SIZES


def _grid_losses(prices: np.ndarray, returns: np.ndarray, tokens: np.ndarray,
                 betas: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Squared token-share gap per round at every grid point; (B,) x (R,) -> (B*R, N).

    The per-round grid the recovery's grid pass reduces block by block, assembled
    from the same pieces: rows in lexicographic (beta, rho) order, each block of
    ``estimation._block_kernel``'s token allocations turned into losses by
    ``estimation._block_losses`` straight into the result.
    """
    losses = np.empty((len(betas), len(rhos), len(prices)))
    tokens_at = estimation._block_kernel(prices, returns, rhos)
    for rows in estimation._beta_blocks(betas, len(rhos) * len(prices)):
        estimation._block_losses(tokens_at(betas[rows], len(prices)), tokens, losses[rows])
    return losses.reshape(-1, len(prices))


def _one_piece(model_a: np.ndarray, model_b: np.ndarray):
    """Full (B, R, N) token arrays as a ``tokens_at`` block: one piece holding every pair,
    so its kink tokens, NaN here, are never read."""
    rows, rounds = np.nonzero(np.ones((model_a.shape[0], model_a.shape[2]), dtype=bool))
    kink = np.full(model_a.shape[2], np.nan)
    return (kink, kink), [(rows, rounds, model_a[rows, :, rounds], model_b[rows, :, rounds])]


def _dense_block(block, shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The full (B, R, N) token arrays of a ``tokens_at`` block: every pair in no piece
    at the round's kink tokens, each piece's pairs at its gathered tokens.  No pair may
    be in two pieces."""
    kink, pieces = block
    dense = np.empty((2, *shape))
    held = np.zeros((shape[0], shape[2]), dtype=np.intp)
    dense[0], dense[1] = kink
    for rows, rounds, model_a, model_b in pieces:
        np.add.at(held, (rows, rounds), 1)
        dense[0][rows, :, rounds] = model_a
        dense[1][rows, :, rounds] = model_b
    assert held.max(initial=0) <= 1
    return dense[0], dense[1]


def _with_t_a(dataset, t_a, subject_id=None):
    """The dataset's rounds and returns with the tokens (t_a, 100 - t_a)."""
    return SubjectDataset.from_returns_tokens(subject_id or dataset.subject_id, dataset.returns,
                                              [(t, 100.0 - t) for t in t_a], dataset.round)


def _noisy_copy(dataset, rng, spread=5.0):
    t_a = []
    for rd in dataset.rounds:
        shift = float(rng.uniform(-spread, spread))
        t_a.append(min(max(rd.tokens.t_a + shift, 0.0), 100.0))
    return _with_t_a(dataset, t_a)


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
        ds = SubjectDataset.from_returns_tokens("k", [(0.6, 0.6)] * 5, [(50.0, 50.0)] * 5)
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

    def test_readme_subjects_on_a_grid_down_to_rho_1e_3(self):
        # the README pipeline's first 20 subjects (sample-params --seed 1, simulate --seed 7:
        # exact choices on 175 rounds, each on its own schedule, sim002 at (-0.031, 0.921)
        # among them) on a grid whose smallest rho is 1e-3, where the interior ratio
        # overflows on most budgets: every truth comes back within 1e-5
        population = sample_population(1, 100)[:20]
        datasets = [simulate_subject(params, generate_budgets(7 + i, 175), sid).dataset
                    for i, (sid, params) in enumerate(population)]
        fits = recover_batch(datasets, None, RecoveryConfig(rho_min=1e-3))
        for (sid, truth), by_size in zip(population, fits):
            fit = by_size[175].params
            assert abs(fit.beta - truth.beta) < 1e-5 and abs(fit.rho - truth.rho) < 1e-5, sid

    def test_determinism_bitwise(self):
        subject = simulate_subject(DAParams(0.2, 0.9), generate_budgets(78, 25), "s")
        assert recover_params(subject.dataset) == recover_params(subject.dataset)

    def test_single_round_flagged(self):
        subject = simulate_subject(DAParams(0.2, 0.9), generate_budgets(79, 25), "s")
        fit = recover_params(dataset_prefix(subject.dataset, 1))
        assert not fit.converged
        assert "insufficient_rounds" in fit.flags

    def test_identical_rounds_flagged(self):
        fit = recover_params(
            SubjectDataset.from_returns_tokens("flat", [(0.5, 0.9)] * 5, [(40.0, 60.0)] * 5))
        assert not fit.converged
        assert "degenerate_rounds" in fit.flags

    def test_config_mapping(self):
        from prefbench.cli import _parse_config

        config, _ = _parse_config(
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


def round_losses(demand: np.ndarray, returns: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Squared token-share gap per parameter pair and round; demand (G, N, 2) -> (G, N)."""
    gap_a = (demand[:, :, 0] / returns[:, 0] - tokens[:, 0]) / 100.0
    gap_b = (demand[:, :, 1] / returns[:, 1] - tokens[:, 1]) / 100.0
    return gap_a * gap_a + gap_b * gap_b


def grid_demand(prices: np.ndarray, betas: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Optimal demand (G, N, 2) for every parameter pair, in closed form.

    Every row takes the interior bundle on the cheaper asset's side (A on equal
    prices) where its ratio ``k`` exceeds 1, else the kink, with the
    enumeration's expressions.  Together with :func:`round_losses`, the
    reference for ``estimation._grid_losses``, and through :func:`loss_grid`
    for ``estimation._PairedLoss``.
    """
    p_a = prices[None, :, 0]
    p_b = prices[None, :, 1]
    w = 1.0 / (2.0 + betas[:, None])
    odds = w / (1.0 - w)
    inv_rho = 1.0 / rhos[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # an overflowed denominator is taken with both of its terms halved, over the
        # high holding's price, and at k = inf is the k -> inf limit
        k_a = np.power(odds * (p_b / p_a), inv_rho)
        x_b_ia = 1.0 / (p_a * k_a + p_b)
        x_b_ia = np.where(x_b_ia > 0.0, x_b_ia, (0.5 / p_a) / (0.5 * k_a + 0.5 * (p_b / p_a)))
        x_a_ia = np.where(k_a < np.inf, k_a * x_b_ia, 1.0 / p_a)
        k_b = np.power(odds * (p_a / p_b), inv_rho)
        x_a_ib = 1.0 / (p_b * k_b + p_a)
        x_a_ib = np.where(x_a_ib > 0.0, x_a_ib, (0.5 / p_b) / (0.5 * k_b + 0.5 * (p_a / p_b)))
        x_b_ib = np.where(k_b < np.inf, k_b * x_a_ib, 1.0 / p_b)
    x_kink = 1.0 / (p_a + p_b)
    a_high = (k_a > 1.0) & (p_a <= p_b)
    b_high = (k_b > 1.0) & (p_b < p_a)
    demand = np.empty((len(betas), len(prices), 2))
    demand[..., 0] = np.where(a_high, x_a_ia, np.where(b_high, x_a_ib, x_kink))
    demand[..., 1] = np.where(a_high, x_b_ia, np.where(b_high, x_b_ib, x_kink))
    return demand


def flat_grid(betas: np.ndarray, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (beta, rho) pair of the two axes, in lexicographic order: (B*R,) each."""
    bb, rr = np.meshgrid(betas, rhos, indexing="ij")
    return bb.reshape(-1), rr.reshape(-1)


def oracle_grid_losses(prices, returns, tokens, betas, rhos) -> np.ndarray:
    """``estimation._grid_losses`` as it was computed before the fused kernel."""
    return round_losses(grid_demand(prices, *flat_grid(betas, rhos)), returns, tokens)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def assert_limits_on_the_line(prices: np.ndarray, betas, rhos) -> None:
    """:func:`grid_demand` at every (beta, rho) of the axes: some interior's denominator
    overflows on these budgets, and every bundle is finite and on the budget line."""
    flat = flat_grid(np.asarray(betas, dtype=float), np.asarray(rhos, dtype=float))
    assert overflowed_interiors(prices, *flat).any()
    demand = grid_demand(prices, *flat)
    assert np.isfinite(demand).all() and np.all(budget_gap(prices, demand) <= 1e-15)


def check_closed_form(prices, betas, rhos) -> tuple[float, float]:
    """Assert :func:`grid_demand` against the full enumeration; return the same-branch
    shares of the beta >= 0 and the beta < 0 rows (1.0 where there are none).

    On every row the closed-form bundle must be optimal to 1e-12 in utility,
    and bitwise equal to the enumeration's bundle wherever both pick the same
    branch (``demand_oracle.assert_optimal``).
    """
    same, _ = assert_optimal(prices, betas, rhos, grid_demand(prices, betas, rhos))
    closed = betas >= 0.0
    return tuple(float(same[rows].mean()) if rows.any() else 1.0 for rows in (closed, ~closed))


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
        betas, rhos = flat_grid(*_parameter_grid(RecoveryConfig()))
        same, same_negative = check_closed_form(_schedule_prices(seed, 175), betas, rhos)
        assert same > 0.999
        assert same_negative > 0.992

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
    t_a = [min(max(round(rd.tokens.t_a + float(rng.normal(0.0, 10.0))), 0.0), 100.0)
           for rd in exact.rounds]
    return _with_t_a(exact, t_a)


class TestRecoverPrefixes:
    def test_prefix_grid_loss_is_the_prefix_of_per_round_losses(self):
        ds = _sloppy_subject(113, DAParams(0.4, 0.8))
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, tokens = ds.price_matrix(), ds.returns, ds.tokens
        for kernel in (_grid_losses, oracle_grid_losses):
            per_round = kernel(prices, returns, tokens, betas, rhos)
            for size in (1, 10, 25, 75):
                alone = kernel(prices[:size], returns[:size], tokens[:size],
                               betas, rhos).mean(axis=1)
                np.testing.assert_array_equal(_bits(per_round[:, :size].mean(axis=1)),
                                              _bits(alone))

    @pytest.mark.parametrize("kind", ["exact", "sloppy"])
    def test_equals_recover_params_per_prefix(self, kind):
        params = DAParams(0.3, 1.2)
        ds = (simulate_subject(params, generate_budgets(127, 175), "ex").dataset
              if kind == "exact" else _sloppy_subject(127, params))
        fits = recover_batch([ds], LEARNING_SAMPLE_SIZES)[0]
        assert list(fits) == list(LEARNING_SAMPLE_SIZES)
        for size, fit in fits.items():
            assert fit == recover_params(dataset_prefix(ds, size))

    def test_multi_size_equals_single_size(self):
        # each fit of a staged pass must be the one-size pass's, as a whole FitResult
        # (evaluations and flags included), for sizes in any order and repeated
        exact = simulate_subject(DAParams(0.3, 1.2), generate_budgets(137, 175), "ex").dataset
        datasets = [exact, _sloppy_subject(139, DAParams(-0.3, 0.8)),
                    _noisy_copy(exact, np.random.default_rng(141))]
        single = [{size: recover_batch([ds], [size])[0][size] for size in LEARNING_SAMPLE_SIZES}
                  for ds in datasets]
        for sizes in (LEARNING_SAMPLE_SIZES, (175, 10, 1, 75, 10, 25, 175)):
            for fits, want in zip(recover_batch(datasets, sizes), single):
                assert list(fits) == list(dict.fromkeys(sizes))
                assert_same_fits(fits, {size: want[size] for size in fits})

    def test_flags_are_per_prefix(self):
        ds = SubjectDataset.from_returns_tokens(
            "p", [(0.5, 0.9)] * 4 + [(0.8, 0.4)], [(40.0, 60.0)] * 4 + [(70.0, 30.0)])
        fits = recover_batch([ds], (1, 4, 5))[0]
        assert fits[1].flags == ("insufficient_rounds",)
        assert fits[4].flags == ("degenerate_rounds",)
        assert fits[5].flags == ()
        for size, fit in fits.items():
            assert fit == recover_params(dataset_prefix(ds, size))

    @pytest.mark.parametrize("size", [0, 6])
    def test_rejects_sizes_outside_the_dataset(self, size):
        subject = simulate_subject(DAParams(0.2, 0.9), generate_budgets(131, 5), "s")
        with pytest.raises(ValidationError, match="prefix size"):
            recover_batch([subject.dataset], (2, size))


@pytest.fixture
def enumeration_grid(monkeypatch):
    """Recovery as it was before the closed form: full candidate enumeration in every
    grid row and every grid cell."""
    def enumerated_kernel(prices, returns, rhos):
        def tokens_at(betas, size):
            demand = optimal_demand_grid(prices[:size], *flat_grid(betas, rhos))[0]
            model = demand / returns[None, :size, :]
            return _one_piece(*(model[:, :, i].reshape(len(betas), len(rhos), -1) for i in (0, 1)))
        return tokens_at

    def enumerated_cells(prices, returns, betas, rhos):
        def tokens_of(cells, size):
            demand = optimal_demand_grid(prices[:size], betas[cells // len(rhos)],
                                         rhos[cells % len(rhos)])[0]
            return np.moveaxis(demand / returns[None, :size, :], 2, 0)
        return tokens_of

    def recover(dataset):
        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_block_kernel", enumerated_kernel)
            patch.setattr(estimation, "_cell_tokens", enumerated_cells)
            return recover_params(dataset)

    return recover


@pytest.fixture(scope="module")
def round_trip_fits() -> list[tuple[SubjectDataset, FitResult]]:
    """The 20 criterion-3 round trips and their fits, for each oracle to match."""
    return [(ds, recover_params(ds)) for ds in _round_trip_datasets()]


class TestAgainstEnumerationGrid:
    def test_criterion_3_round_trips(self, round_trip_fits, enumeration_grid):
        for ds, fit in round_trip_fits:
            assert fit == enumeration_grid(ds)

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
    """Token-share loss for each parameter pair, shapes (N, 2) data, (G,) params: the mean
    of :func:`round_losses` of :func:`grid_demand`'s closed form, whose bundles are first
    held to the full enumeration (``demand_oracle.assert_optimal``).  The reference for
    ``_PointLoss`` and ``estimation._PairedLoss``."""
    demand = grid_demand(prices, beta, rho)
    assert_optimal(prices, beta, rho, demand)
    return round_losses(demand, returns, tokens).mean(axis=1)


class _PointLoss:
    """Token-share loss of one dataset at a single parameter pair, in closed form.

    The per-point kernel the refinement used before ``estimation._PairedLoss``,
    kept as the paired kernel's oracle and restated for the closed form:
    ``loss(beta, rho)`` is the float that :func:`loss_grid` gives at G = 1,
    each round at the interior on its cheaper asset's side (A on equal prices)
    where its ratio ``k`` exceeds 1 and at the kink elsewhere, for positive
    prices with a finite sum.  What it saves is per-call overhead on one row:
    the data columns are computed once, and the parameters stay Python floats.
    """

    def __init__(self, prices: np.ndarray, returns: np.ndarray, tokens: np.ndarray):
        p_a, p_b = prices[:, 0], prices[:, 1]
        self._cheap_a = p_a <= p_b
        self._p_hi = np.where(self._cheap_a, p_a, p_b)
        self._p_lo = np.where(self._cheap_a, p_b, p_a)
        self._ratio = self._p_lo / self._p_hi
        self._kink = 1.0 / (p_a + p_b)
        self._r_a, self._r_b = returns[:, 0], returns[:, 1]
        self._t_a, self._t_b = tokens[:, 0], tokens[:, 1]

    def __call__(self, beta: float, rho: float) -> float:
        w = 1.0 / (2.0 + beta)
        odds = w / (1.0 - w)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # an overflowed denominator is taken with both of its terms halved, over the
            # high holding's price, and at k = inf is the k -> inf limit
            k = np.power(odds * self._ratio, 1.0 / rho)
            x_lo = 1.0 / (self._p_hi * k + self._p_lo)
            x_lo = np.where(x_lo > 0.0, x_lo, (0.5 / self._p_hi) / (0.5 * k + 0.5 * self._ratio))
            x_hi = np.where(k < np.inf, k * x_lo, 1.0 / self._p_hi)
        interior = k > 1.0
        x_hi, x_lo = np.where(interior, x_hi, self._kink), np.where(interior, x_lo, self._kink)
        gap_a = (np.where(self._cheap_a, x_hi, x_lo) / self._r_a - self._t_a) / 100.0
        gap_b = (np.where(self._cheap_a, x_lo, x_hi) / self._r_b - self._t_b) / 100.0
        return float((gap_a * gap_a + gap_b * gap_b).mean())


def _reference_loss(data, beta: float, rho: float) -> float:
    return float(loss_grid(*data, np.array([beta]), np.array([rho]))[0])


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _paired_losses(data, points) -> list[float]:
    """The paired kernel on copies of one dataset, each at its own point, in one call."""
    beta, rho = np.array(points, dtype=float).reshape(-1, 2).T
    return _PairedLoss([data] * len(points))(beta, rho).tolist()


def _loss_mismatches(data, points) -> list:
    """(beta, rho, point kernel, paired kernel, reference) wherever a kernel's loss is
    not the reference's float."""
    loss = _PointLoss(*data)
    found = []
    for (beta, rho), paired in zip(points, _paired_losses(data, points)):
        got, want = loss(beta, rho), _reference_loss(data, beta, rho)
        if not (_same_float(got, want) and _same_float(paired, want)):
            found.append((beta, rho, got, paired, want))
    return found


def _matrices(dataset: SubjectDataset):
    return dataset.price_matrix(), dataset.returns, dataset.tokens


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
    """``_PointLoss`` and the paired kernel must return the reference loss's float: the
    closed form, its bundles held to the enumeration at every point (:func:`loss_grid`)."""

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
        # every budget is symmetric, so A-high ties B-high and corner A ties corner B in
        # the enumeration; the closed form takes side A
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
        # and the branch's bundle is its limit (1 / p_a, 0), the corner's bundle
        beta, rho = _refinement_point(math.log(0.45), -60.0)  # beta = -0.5, odds = 2
        rng = np.random.default_rng(233)
        data = _matrices(random_sloppy_dataset(rng, 60))
        assert np.any(2.0 * data[0][:, 1] / data[0][:, 0] > 1.0)
        # the experiments' budgets, and budgets costing more than 1 per unit, where every
        # candidate's utility is negative: a finite loss, the reference's in both kernels
        for data in (data, _priced(rng.uniform(1.0, 2.0, size=(20, 2)), rng)):
            assert_limits_on_the_line(data[0], [beta], [rho])
            assert math.isfinite(_reference_loss(data, beta, rho))
            assert _loss_mismatches(data, [(beta, rho)]) == []

    def test_paired_kernel_on_datasets_of_different_lengths(self):
        # one call on datasets of 1 to 175 rounds in no length order, each at its own
        # point: log-branch, corner (rho < 1) and other points side by side
        rng = np.random.default_rng(243)
        data = [_matrices(random_sloppy_dataset(rng, n)) for n in (175, 1, 12, 1, 60, 12, 175, 2)]
        points = [(0.3, 1.0), (0.3, 1.0 + 5e-11), (-0.5, 0.4), (2.0, 3.9),
                  *(_refinement_point(*z) for z in rng.uniform(-8.0, 8.0, size=(4, 2)))]
        beta, rho = np.array(points).T
        got = _PairedLoss(data)(beta, rho).tolist()
        want = [_PointLoss(*d)(b, r) for d, (b, r) in zip(data, points)]
        assert all(_same_float(g, w) for g, w in zip(got, want)), (got, want)

    def test_fit_loss_equals_the_closed_form(self):
        ds = _sloppy_subject(239, DAParams(-0.2, 1.4), n_rounds=40)
        for beta, rho in [(-0.2, 1.4), (0.0, 1.0), (1.5, 0.2)]:
            assert fit_loss(ds, DAParams(beta, rho)) == _reference_loss(_matrices(ds), beta, rho)


@pytest.fixture
def reference_loss(monkeypatch):
    """Recovery whose Nelder-Mead objective, refined-point losses and fit_loss all go
    through :func:`loss_grid`, one point at a time, as before the per-point and paired
    kernels: the closed form, its bundles held to the full enumeration at every point it
    values.  The grid optima keep their grid-pass means, which must equal the
    reference's."""
    class ReferenceLoss:
        def __init__(self, data):
            self.data = data

        def __call__(self, beta, rho):
            return np.array([_reference_loss(data, b, r)
                             for data, b, r in zip(self.data, beta, rho)])

    def recover(fit, *args):
        with monkeypatch.context() as patch:
            patch.setattr(estimation, "_PairedLoss", ReferenceLoss)
            return fit(*args)

    return recover


class TestAgainstEnumerationLoss:
    """Fits through the reference loss, whose closed-form bundles are held to the
    enumeration wherever it values a point, must be the lock step's."""

    def test_criterion_3_round_trips(self, round_trip_fits, reference_loss):
        for ds, fit in round_trip_fits:
            assert fit == reference_loss(recover_params, ds)

    def test_sloppy_175_round_prefixes(self, reference_loss):
        rng = np.random.default_rng(241)
        datasets = [
            _sloppy_subject(139, DAParams(0.0, 0.5)),
            _sloppy_subject(151, DAParams(-0.5, 1.0)),
            random_sloppy_dataset(rng, 175),
        ]
        for ds in datasets:
            fits = recover_batch([ds], LEARNING_SAMPLE_SIZES)[0]
            assert fits == reference_loss(recover_batch, [ds], LEARNING_SAMPLE_SIZES)[0]
            assert all(not math.isnan(fit.loss) for fit in fits.values())


def oracle_refine(dataset: SubjectDataset, grid_best: DAParams, evaluations: int,
                  config: RecoveryConfig) -> FitResult:
    """The refinement before the lock step: scipy's Nelder-Mead driving ``_PointLoss``."""
    loss = _PointLoss(*_matrices(dataset))
    flags = estimation._flags(dataset)
    if flags:
        return FitResult(grid_best, loss(grid_best.beta, grid_best.rho), grid_best, False,
                         evaluations, flags)

    def from_unconstrained(z):
        beta = config.beta_min + math.exp(min(max(float(z[0]), -60.0), 60.0))
        return beta, math.exp(min(max(float(z[1]), -60.0), 60.0))

    z0 = np.array([math.log(max(grid_best.beta - config.beta_min, 1e-8)), math.log(grid_best.rho)])
    result = minimize(
        lambda z: loss(*from_unconstrained(z)), z0, method="Nelder-Mead",
        options={"maxfev": config.max_evals, "xatol": config.tol, "fatol": 1e-14},
    )
    refined = DAParams(*from_unconstrained(result.x))
    refined_loss = loss(refined.beta, refined.rho)
    grid_loss = loss(grid_best.beta, grid_best.rho)
    if refined_loss <= grid_loss:
        params, best = refined, refined_loss
    else:
        params, best = grid_best, grid_loss
    return FitResult(params, best, grid_best, bool(result.success),
                     evaluations + int(result.nfev), ())


def oracle_recover(dataset: SubjectDataset, sizes=None,
                   config: RecoveryConfig | None = None) -> dict[int, FitResult]:
    """``recover_batch([dataset], sizes)[0]`` before the lock step: one grid pass, then one
    scipy fit per prefix."""
    config = config or RecoveryConfig()
    betas, rhos = _parameter_grid(config)
    per_round = _grid_losses(*_matrices(dataset), betas, rhos)
    fits = {}
    for size in sizes or (dataset.n,):
        beta_at, rho_at = divmod(int(np.argmin(per_round[:, :size].mean(axis=1))), len(rhos))
        grid_best = DAParams(float(betas[beta_at]), float(rhos[rho_at]))
        fits[size] = oracle_refine(dataset_prefix(dataset, size), grid_best, len(per_round),
                                   config)
    return fits


def assert_same_fits(got: dict[int, FitResult], want: dict[int, FitResult]) -> None:
    """Equal fits, field by field; a NaN loss equals a NaN loss."""
    assert list(got) == list(want)
    for size in want:
        a, b = got[size], want[size]
        assert _same_float(a.loss, b.loss), (size, a, b)
        assert replace(a, loss=0.0) == replace(b, loss=0.0), (size, a, b)
        assert type(a.loss) is type(b.loss) is float
        assert type(a.converged) is type(b.converged) is bool


def _round_trip_datasets() -> list[SubjectDataset]:
    """The 20 criterion-3 round trips."""
    return [
        simulate_subject(DAParams(beta0, rho0), generate_budgets(40_000 + 10 * i + j, 25),
                         f"rt{i}{j}").dataset
        for i, beta0 in enumerate((-0.2, 0.0, 0.1, 0.3, 0.5))
        for j, rho0 in enumerate((0.3, 0.6, 1.0, 1.5))
    ]


def _costly_budgets(rng: np.random.Generator, n_rounds: int) -> SubjectDataset:
    """Budgets costing more than 1 per unit: at rho near 1e-3 the interior ratio overflows
    in beta < 0 rows, and the enumeration picks the interior's limit, the corner's bundle."""
    rows = []
    for _ in range(n_rounds):
        p = rng.uniform(1.0, 2.0, size=2)
        share = rng.uniform(0.0, 1.0)
        rows.append((p[0], p[1], share / p[0], (1.0 - share) / p[1]))
    return dataset_from_prices(rows)


class TestAgainstScipyOracle:
    """Every fit of the lock step must equal scipy's Nelder-Mead on ``_PointLoss``,
    evaluation count and convergence included."""

    def test_criterion_3_round_trips(self):
        datasets = _round_trip_datasets()
        for got, ds in zip(recover_batch(datasets), datasets):
            assert_same_fits(got, oracle_recover(ds))

    def test_sloppy_175_round_prefixes(self):
        rng = np.random.default_rng(241)
        datasets = [_sloppy_subject(139, DAParams(0.0, 0.5)),
                    _sloppy_subject(151, DAParams(-0.5, 1.0)),
                    random_sloppy_dataset(rng, 175)]
        for got, ds in zip(recover_batch(datasets, LEARNING_SAMPLE_SIZES), datasets):
            assert_same_fits(got, oracle_recover(ds, LEARNING_SAMPLE_SIZES))

    def test_edge_points_as_grid_optima(self):
        ds = _sloppy_subject(307, DAParams(0.3, 0.8), n_rounds=25)
        config = RecoveryConfig()
        loss = _PointLoss(*_matrices(ds))
        fits = [(ds, DAParams(beta, rho), loss(beta, rho)) for beta, rho in EDGE_POINTS]
        got = _refine_batch(fits, 0, config)
        for fit, (_, grid_best, _) in zip(got, fits):
            assert_same_fits({0: fit}, {0: oracle_refine(ds, grid_best, 0, config)})

    @pytest.mark.parametrize("max_evals", [1, 2, 3, 4, 7])
    def test_evaluation_caps(self, max_evals):
        # 3 evaluations build the initial simplex; the cap then falls in the first
        # reflection, expansion, contraction or shrink
        rng = np.random.default_rng(311)
        config = RecoveryConfig(max_evals=max_evals)
        datasets = [_sloppy_subject(313, DAParams(0.2, 1.1), n_rounds=60),
                    random_sloppy_dataset(rng, 25), *_round_trip_datasets()[::5]]
        sizes = (2, 10, 25)
        betas, rhos = _parameter_grid(config)
        for got, ds in zip(recover_batch(datasets, sizes, config), datasets):
            assert_same_fits(got, oracle_recover(ds, sizes, config))
            for fit in got.values():
                assert not fit.converged
                assert fit.evaluations == len(betas) * len(rhos) + max_evals

    def test_no_refinement_evaluation_keeps_the_grid_optimum(self):
        # max_evals 0 (a library-only value; the CLI asks for at least 1): each fit keeps
        # its grid optimum and that optimum's grid-pass mean, and counts only the cells
        config = RecoveryConfig(max_evals=0)
        rng = np.random.default_rng(331)
        datasets = [_sloppy_subject(313, DAParams(0.2, 1.1), n_rounds=60),
                    random_sloppy_dataset(rng, 25)]
        sizes = (2, 10, 25)
        betas, rhos = _parameter_grid(config)
        for got, ds in zip(recover_batch(datasets, sizes, config), datasets):
            for size, fit in got.items():
                ((mean, at),), = estimation._grid_optima(*_matrices(ds)[:2], [ds.tokens], [size],
                                                         betas, rhos)
                assert fit.params == fit.grid_best == DAParams(
                    float(betas[at // len(rhos)]), float(rhos[at % len(rhos)]))
                assert fit.loss == mean
                assert fit.evaluations == len(betas) * len(rhos)
                assert not fit.converged and fit.flags == ()

    def test_overflowed_interiors_on_costly_budgets(self):
        config = RecoveryConfig(rho_min=1e-3)
        rng = np.random.default_rng(317)
        datasets = [_costly_budgets(rng, 20), _costly_budgets(rng, 7)]
        got = recover_batch(datasets, None, config)
        for fits, ds in zip(got, datasets):
            assert_limits_on_the_line(ds.prices, *_parameter_grid(config))
            assert_same_fits(fits, oracle_recover(ds, None, config))
        assert all(math.isfinite(fit.loss) for fits in got for fit in fits.values())

    def test_overflowed_beta_nonnegative_rows_on_ordinary_budgets(self):
        # at rho = 1e-3 the interior ratio of the beta >= 0 rows overflows on ordinary
        # budgets: the grid's closed form and the enumeration, and so fit_loss, both
        # take the interior's limit there, and the grid optimum's mean is finite
        config = RecoveryConfig(rho_min=1e-3, max_evals=40)
        rng = np.random.default_rng(467)
        datasets = [random_sloppy_dataset(rng, 25), random_sloppy_dataset(rng, 1)]
        betas, rhos = _parameter_grid(config)
        got = recover_batch(datasets, None, config)
        for fits, ds in zip(got, datasets):
            assert_limits_on_the_line(ds.prices, betas[betas >= 0.0], rhos)
            ((mean, _),), = estimation._grid_optima(*_matrices(ds)[:2], [ds.tokens], [ds.n],
                                                     betas, rhos)
            assert math.isfinite(mean)
            assert math.isfinite(fit_loss(ds, fits[ds.n].grid_best))
            assert_same_fits(fits, oracle_recover(ds, None, config))
        assert got[1][1].flags == ("insufficient_rounds",)


def _drive(run, objective):
    """Run an :func:`estimation._nelder_mead` generator on a Python objective."""
    try:
        point = next(run)
        while True:
            point = run.send(objective(point))
    except StopIteration as stop:
        return stop.value


_TEST_OBJECTIVES = {
    "flat": lambda z: 1.0,  # every step is an inside contraction, then a shrink
    "linear": lambda z: float(max(z[0] + 2.0 * z[1], -30.0)),  # expansions, then a flat
    "quadratic": lambda z: float((z[0] - 0.3) ** 2 + 4.0 * (z[1] + 0.2) ** 2),
    "steps": lambda z: float(np.floor(3.0 * z[0]) + np.floor(2.0 * z[1]) ** 2),
    "nan_half": lambda z: float("nan") if z[0] > 1.02 else float(z[1] ** 2),
}


class TestNelderMead:
    """The generator must ask for scipy's points and end with scipy's result."""

    @pytest.mark.parametrize("name", sorted(_TEST_OBJECTIVES))
    @pytest.mark.parametrize("z0", [(1.0, -0.5), (0.0, 0.0), (-2.0, 3.0)])
    def test_same_points_and_result_as_scipy(self, name, z0):
        objective = _TEST_OBJECTIVES[name]
        for maxfev in (*range(1, 12), 40, 2000):
            asked, seen = [], []

            def recorded(z, calls):
                calls.append([float(v) for v in z])
                return objective(np.array(z))

            x, f, nfev, success = _drive(estimation._nelder_mead(z0, maxfev, 1e-6, 1e-14),
                                         lambda z: recorded(z, asked))
            result = minimize(lambda z: recorded(z, seen), np.array(z0), method="Nelder-Mead",
                              options={"maxfev": maxfev, "xatol": 1e-6, "fatol": 1e-14})
            assert asked == seen
            assert (x, nfev, success) == (result.x.tolist(), result.nfev, result.success)
            # the loss handed back is the one sent for x (scipy's ``fun`` is the
            # simplex's np.min, NaN when a vertex is NaN)
            assert x in asked and _same_float(f, objective(np.array(x)))

    def test_no_evaluation(self):
        # maxfev 0 asks for no point: the start, an infinite loss, not converged
        assert _drive(estimation._nelder_mead((1.0, -0.5), 0, 1e-6, 1e-14), None) == (
            [1.0, -0.5], math.inf, 0, False)


class TestLockStep:
    """The refinement steps many :func:`estimation._nelder_mead` generators in lock step;
    each must ask for the points of its own scipy run and end with its result."""

    def test_one_group_of_mixed_fits(self):
        # caps reached at different steps (1 and 2 inside the initial simplex), NaN
        # losses, exactly tied values (flat, steps), and zero coordinates in z0
        cases = [(name, z0, cap) for name in sorted(_TEST_OBJECTIVES)
                 for z0 in ((1.0, -0.5), (0.0, 0.0), (-2.0, 3.0), (0.0, 1.5))
                 for cap in (1, 2, 3, 7, 2000)]
        runs = [estimation._nelder_mead(z0, cap, 1e-6, 1e-14) for _, z0, cap in cases]
        points = {i: run.send(None) for i, run in enumerate(runs)}
        asked: list[list] = [[] for _ in cases]
        outcomes = {}
        steps = 0
        while points:
            values = {}
            for i, point in points.items():
                asked[i].append(list(point))
                values[i] = _TEST_OBJECTIVES[cases[i][0]](np.array(point))
            for i, value in values.items():
                try:
                    points[i] = runs[i].send(value)
                except StopIteration as stop:
                    outcomes[i] = stop.value
                    del points[i]
            steps += 1
        assert steps > 7  # the capped fits ended while others ran on
        for i, (name, z0, cap) in enumerate(cases):
            seen = []

            def recorded(z):
                seen.append(z.tolist())
                return _TEST_OBJECTIVES[name](z)

            result = minimize(recorded, np.array(z0), method="Nelder-Mead",
                              options={"maxfev": cap, "xatol": 1e-6, "fatol": 1e-14})
            assert asked[i] == seen, (name, z0, cap)
            x, f, nfev, success = outcomes[i]
            assert (x, nfev, success) == (result.x.tolist(), result.nfev, result.success), (
                name, z0, cap)
            assert _same_float(f, _TEST_OBJECTIVES[name](np.array(x))), (name, z0, cap)


class TestRecoverBatch:
    def _mixed_batch(self) -> list[SubjectDataset]:
        rng = np.random.default_rng(331)
        degenerate = SubjectDataset.from_returns_tokens("flat", [(0.5, 0.9)] * 6, [(40.0, 60.0)] * 6)
        return [
            random_sloppy_dataset(rng, 1),
            random_sloppy_dataset(rng, 2),
            simulate_subject(DAParams(0.4, 0.7), generate_budgets(337, 12), "ex12").dataset,
            _sloppy_subject(347, DAParams(-0.3, 1.6), n_rounds=60),
            degenerate,
            _sloppy_subject(349, DAParams(1.2, 0.4)),
        ]

    def test_mixed_batch_in_any_order(self):
        datasets = self._mixed_batch()
        got = recover_batch(datasets)
        for fits, ds in zip(got, datasets):
            assert_same_fits(fits, oracle_recover(ds))
        reversed_fits = recover_batch(datasets[::-1])
        for fits, want in zip(reversed_fits[::-1], got):
            assert_same_fits(fits, want)
        assert got[0][1].flags == ("insufficient_rounds",)
        assert got[4][6].flags == ("degenerate_rounds",)

    @pytest.mark.parametrize("budget", [1, 60, 200])
    def test_lock_step_groups(self, monkeypatch, budget):
        # one fit per group, a 175-round fit alone over budget, groups of several fits
        datasets = self._mixed_batch()
        want = recover_batch(datasets, None)
        monkeypatch.setattr(estimation, "_LOCK_STEP_ROUNDS", budget)
        for fits, wanted in zip(recover_batch(datasets, None), want):
            assert_same_fits(fits, wanted)

    def test_kernel_values_only_the_refinements_points(self, monkeypatch):
        # each grid optimum comes with its loss and each refined point with the loss
        # its refinement was sent, so the kernel values exactly the points the
        # refinements ask for, none again, and flagged fits need no kernel call at all
        calls = []

        class Recorded(_PairedLoss):
            def __call__(self, beta, rho):
                calls.append(len(beta))
                return super().__call__(beta, rho)

        monkeypatch.setattr(estimation, "_PairedLoss", Recorded)
        datasets = self._mixed_batch()
        got = recover_batch(datasets)
        refined = sum(not fits[ds.n].flags for fits, ds in zip(got, datasets))
        assert refined == 4
        assert calls[0] == refined
        cells = math.prod(map(len, _parameter_grid(RecoveryConfig())))
        assert sum(calls) == sum(fits[ds.n].evaluations - cells for fits, ds in zip(got, datasets))
        calls.clear()
        assert [fits[ds.n].flags for fits, ds in zip(recover_batch(datasets[::4]), datasets[::4])
                ] == [("insufficient_rounds",), ("degenerate_rounds",)]
        assert calls == []

    def test_one_dataset_cases(self):
        ds = _sloppy_subject(353, DAParams(0.1, 0.9), n_rounds=30)
        want = oracle_recover(ds, (5, 30))
        assert_same_fits(recover_batch([ds], (5, 30))[0], want)
        assert_same_fits({30: recover_params(ds)}, {30: want[30]})
        assert recover_batch([]) == []
        assert recover_batch([ds], ()) == [{}]

    def test_frees_each_grid_before_the_next(self):
        # a (B*R, N) grid kept while the next is computed would add a grid to the peak
        datasets = [_sloppy_subject(359 + k, DAParams(0.2, 0.9)) for k in range(3)]
        betas, rhos = _parameter_grid(RecoveryConfig())
        grid_bytes = len(betas) * len(rhos) * 175 * 8
        peaks = []
        for batch in (datasets[:1], datasets):
            tracemalloc.start()
            try:
                recover_batch(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + grid_bytes / 2


def _retokened(dataset: SubjectDataset, rng: np.random.Generator) -> SubjectDataset:
    """The same rounds with new uniform token shares: the price and return matrices are
    the dataset's, byte for byte."""
    t_a = [float(rng.uniform(0.0, 100.0)) for _ in range(dataset.n)]
    return _with_t_a(dataset, t_a, dataset.subject_id + "r")


@pytest.fixture
def grid_passes(monkeypatch):
    """The work of each grid pass, one list per ``estimation._grid_optima`` call of
    ``(cells, size)`` per kernel call: the flat cells of the default grid whose tokens it
    computed at the schedule's first ``size`` rounds, recorded through
    ``estimation._block_kernel`` (whole beta rows) and ``estimation._cell_tokens``.  A
    kernel called outside a pass, say by an oracle, is not recorded."""
    passes: list[list[tuple[np.ndarray, int]]] = []
    inside: list[bool] = []
    axis = _parameter_grid(RecoveryConfig())[0]
    grid_optima = estimation._grid_optima
    block_kernel, cell_kernel = estimation._block_kernel, estimation._cell_tokens

    def counted_pass(*args):
        passes.append([])
        inside.append(True)
        try:
            return grid_optima(*args)
        finally:
            inside.pop()

    def counted_rows(prices, returns, rhos):
        tokens_at = block_kernel(prices, returns, rhos)

        def counted_tokens(betas, size):
            if inside:
                rows = np.searchsorted(axis, betas)
                assert np.array_equal(axis[rows], betas)
                passes[-1].append(((rows[:, None] * len(rhos) + np.arange(len(rhos))).ravel(),
                                   size))
            return tokens_at(betas, size)
        return counted_tokens

    def counted_cells(*args):
        tokens_of = cell_kernel(*args)

        def counted_tokens(cells, size):
            if inside:
                passes[-1].append((cells.copy(), size))
            return tokens_of(cells, size)
        return counted_tokens

    monkeypatch.setattr(estimation, "_grid_optima", counted_pass)
    monkeypatch.setattr(estimation, "_block_kernel", counted_rows)
    monkeypatch.setattr(estimation, "_cell_tokens", counted_cells)
    return passes


def _cells_at(calls, size: int) -> np.ndarray:
    """The cells that a pass's kernel calls computed at ``size`` rounds, repeats kept."""
    return np.concatenate([at for at, at_size in calls if at_size == size])


class TestSharedSchedules:
    """Datasets on one schedule share a grid pass; their fits stay those of one
    dataset at a time, bit for bit."""

    def _batch(self) -> list[SubjectDataset]:
        # five datasets on one 60-round schedule, two on another, one alone, interleaved
        five = [_sloppy_subject(401, DAParams(beta, rho), n_rounds=60)
                for beta, rho in ((0.0, 0.5), (0.4, 1.2), (-0.3, 0.8), (1.5, 3.0), (0.2, 0.3))]
        exact = simulate_subject(DAParams(0.3, 0.9), generate_budgets(409, 60), "ex").dataset
        two = [exact, _noisy_copy(exact, np.random.default_rng(411))]
        one = _sloppy_subject(419, DAParams(0.6, 1.1), n_rounds=60)
        return [five[0], two[0], five[1], one, five[2], two[1], five[3], five[4]]

    def test_groups_of_one_two_and_five_in_any_order(self, grid_passes):
        datasets = self._batch()
        sizes = (1, 10, 25, 60)
        got = recover_batch(datasets, sizes)
        assert len(grid_passes) == 3
        for fits, ds in zip(got, datasets):
            assert_same_fits(fits, oracle_recover(ds, sizes))
        for fits, want in zip(recover_batch(datasets[::-1], sizes)[::-1], got):
            assert_same_fits(fits, want)

    def test_one_round_and_degenerate_groups(self, grid_passes):
        five = [_sloppy_subject(401, DAParams(beta, 0.9), n_rounds=60) for beta in (0.0, 0.4)]
        degenerate = [SubjectDataset.from_returns_tokens(
            f"flat{t_a}", [(0.5, 0.9)] * 6, [(t_a, 100.0 - t_a)] * 6) for t_a in (40.0, 70.0)]
        datasets = [dataset_prefix(five[0], 1), degenerate[0], five[0], dataset_prefix(five[1], 1),
                    degenerate[1], five[1]]
        got = recover_batch(datasets)
        assert len(grid_passes) == 3
        for fits, ds in zip(got, datasets):
            assert_same_fits(fits, oracle_recover(ds))
        assert [fits[ds.n].flags for fits, ds in zip(got, datasets)] == [
            ("insufficient_rounds",), ("degenerate_rounds",), (),
            ("insufficient_rounds",), ("degenerate_rounds",), ()]

    def test_overflowed_interiors_on_a_shared_schedule(self):
        # rho near 1e-3 on budgets costing more than 1 per unit overflows the interior
        # ratio, so every member's grid losses meet the interiors' limits, all finite
        config = RecoveryConfig(rho_min=1e-3)
        rng = np.random.default_rng(421)
        costly = _costly_budgets(rng, 20)
        datasets = [costly, _retokened(costly, rng)]
        betas, rhos = _parameter_grid(config)
        assert_limits_on_the_line(costly.prices, betas, rhos)
        for ds in datasets:
            assert np.isfinite(_grid_losses(*_matrices(ds), betas, rhos)).all()
        for sizes in (None, (1, 7)):
            got = recover_batch(datasets, sizes, config)
            for fits, ds in zip(got, datasets):
                assert_same_fits(fits, oracle_recover(ds, sizes, config))

    def test_equal_prices_with_other_returns_are_not_merged(self, grid_passes):
        # returns one ulp apart still pass the 1e-12 consistency check
        ds = _sloppy_subject(431, DAParams(0.2, 0.9), n_rounds=25)
        returns = np.column_stack([np.nextafter(ds.returns[:, 0], 1.0), ds.returns[:, 1]])
        assert _first_failure(
            _checks(False, ds.round, returns, ds.tokens, ds.prices, ds.demand, ds.demand)) is None
        shifted = SubjectDataset("shifted", ds.round, returns, ds.tokens, ds.prices, ds.demand,
                                 ds.rescaled)
        assert np.array_equal(shifted.price_matrix(), ds.price_matrix())
        assert not np.array_equal(shifted.returns, ds.returns)
        got = recover_batch([ds, shifted])
        assert len(grid_passes) == 2
        for fits, want in zip(got, (ds, shifted)):
            assert_same_fits(fits, oracle_recover(want))

    def test_one_demand_pass_per_schedule(self, grid_passes):
        # one kernel pass per schedule, whatever its members.  Its stages run in increasing
        # size; the first computes every cell once, in as many blocks as a full pass,
        # and a later one first the achieved cells its bound is taken at, at most one per
        # member, then every cell it runs at most once for all members
        datasets = self._batch()
        betas, rhos = _parameter_grid(RecoveryConfig())
        cells = len(betas) * len(rhos)

        recover_batch(datasets, (10, 60))
        assert len(grid_passes) == 3
        for calls, members in zip(grid_passes, (5, 2, 1)):  # the schedules in batch order
            assert [size for _, size in calls] == sorted(size for _, size in calls)
            assert len([size for _, size in calls if size == 10]) == len(
                estimation._beta_blocks(betas, len(rhos) * 10))
            np.testing.assert_array_equal(np.sort(_cells_at(calls, 10)), np.arange(cells))
            bound, *later = [at for at, size in calls if size == 60]
            assert 1 <= len(bound) <= members and len(np.unique(bound)) == len(bound)
            later = np.concatenate(later)
            assert len(np.unique(later)) == len(later)
        grid_passes.clear()
        # one size, 25 rounds (the paper's session length) as 60, is one box search for
        # all members: the cell kernel on the corners of its boxes, a small share of
        # the grid, at that size
        for size in (25, 60):
            recover_batch([dataset_prefix(ds, size) for ds in datasets[:3:2]])
            (calls,) = grid_passes
            assert {at_size for _, at_size in calls} == {size}
            assert len(np.unique(_cells_at(calls, size))) < 0.25 * cells
            grid_passes.clear()

    def test_memory_does_not_grow_with_the_group(self):
        # a (B*R, N) grid kept per member would add a grid to the peak per member
        base = _sloppy_subject(433, DAParams(0.2, 0.9))
        rng = np.random.default_rng(439)
        group = [base] + [_retokened(base, rng) for _ in range(7)]
        betas, rhos = _parameter_grid(RecoveryConfig())
        grid_bytes = len(betas) * len(rhos) * 175 * 8
        peaks = []
        for batch in (group[:1], group):
            tracemalloc.start()
            try:
                recover_batch(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + grid_bytes / 2

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 1000])
    def test_block_prefix_means_are_the_full_grid_means(self, monkeypatch, block_rows):
        # the pass averages each block in a buffer sized for the largest block; the
        # means must be those of the whole (B*R, N) grid's first s columns
        rng = np.random.default_rng(443)
        betas, rhos = _parameter_grid(RecoveryConfig())
        for n_rounds in (1, 25, 175):
            monkeypatch.setattr(estimation, "_BLOCK_CELLS", block_rows * len(rhos) * n_rounds)
            prices, returns, tokens = _matrices(random_sloppy_dataset(rng, n_rounds))
            full = _grid_losses(prices, returns, tokens, betas, rhos)
            blocks = estimation._beta_blocks(betas, len(rhos) * n_rounds)
            tokens_at = estimation._block_kernel(prices, returns, rhos)
            buffer = np.empty(max(b.stop - b.start for b in blocks) * len(rhos) * n_rounds)
            sizes = sorted({1, (n_rounds + 1) // 2, n_rounds})
            means = {size: [] for size in sizes}
            for rows in blocks:
                out = buffer[:(rows.stop - rows.start) * len(rhos) * n_rounds].reshape(
                    -1, len(rhos), n_rounds)
                per_round = estimation._block_losses(tokens_at(betas[rows], n_rounds), tokens, out)
                for size in sizes:
                    means[size].append(per_round.reshape(-1, n_rounds)[:, :size].mean(axis=1))
            for size in sizes:
                np.testing.assert_array_equal(_bits(np.concatenate(means[size])),
                                              _bits(full[:, :size].mean(axis=1)))

    @pytest.mark.parametrize("block_rows", [1, 3, 1000])
    def test_grid_optima_are_the_first_minima(self, monkeypatch, block_rows, first_minima_cases):
        # every case at the learning-curve sizes clipped to its rounds, unsorted and
        # repeated, so each later stage may leave rows out, and at its full length alone,
        # a box search (on the reversed beta axis too); each optimum must be np.argmin's
        # over the whole grid's means
        for prices, returns, members, (betas, rhos), want in first_minima_cases:
            monkeypatch.setattr(estimation, "_BLOCK_CELLS", block_rows * len(rhos) * len(prices))
            got = estimation._grid_optima(prices, returns, members, _staged_sizes(len(prices)),
                                          betas, rhos)
            assert [[at for _, at in per_size] for per_size in got] == want
            got = estimation._grid_optima(prices, returns, members, [len(prices)], betas, rhos)
            assert [[at for _, at in per_size] for per_size in got] == [[w[0]] for w in want]

    def test_grid_optimum_means_are_fit_loss(self, first_minima_cases):
        # the pass hands each optimum's mean to the fit as its grid loss; it is fit_loss at
        # that point on that prefix, bit for bit, inf included (one demand rule; every
        # cell is pinned by test_grid_and_paired_losses_are_equal); the cases whose
        # interiors overflow run on the grid's own beta order too, and their means are
        # finite
        rng = np.random.default_rng(463)
        costly = [_costly_budgets(rng, n) for n in (20, 7)]
        overflow_cases = [(*_matrices(ds)[:2], [ds.tokens], _parameter_grid(RecoveryConfig(
            rho_min=1e-3))) for ds in costly]
        for prices, _, _, axes in overflow_cases:
            assert_limits_on_the_line(prices, *axes)
        for case, (prices, returns, members, (betas, rhos), *_) in enumerate(
                [*first_minima_cases, *overflow_cases]):
            sizes = _staged_sizes(len(prices))
            got = estimation._grid_optima(prices, returns, members, sizes, betas, rhos)
            for tokens, per_size in zip(members, got):
                for size, (mean, at) in zip(sizes, per_size):
                    prefix = SimpleNamespace(prices=prices[:size], returns=returns[:size],
                                             tokens=tokens[:size])
                    params = DAParams(float(betas[at // len(rhos)]), float(rhos[at % len(rhos)]))
                    with np.errstate(over="ignore"):
                        want = fit_loss(prefix, params)
                    assert type(mean) is float
                    assert _bits(np.array(mean)) == _bits(np.array(want)), (size, params)
                    assert math.isfinite(mean) or case < len(first_minima_cases)

    def test_later_stages_run_few_rows(self, grid_passes):
        # a prune that silently leaves nothing out would run every cell at every size;
        # counted in cells, whichever kernel runs them, the bound's achieved cells included
        ds = simulate_subject(DAParams(0.3, 1.2), generate_budgets(457, 175), "ex").dataset
        betas, rhos = _parameter_grid(RecoveryConfig())
        cells = len(betas) * len(rhos)
        prices, returns, tokens = _matrices(ds)
        estimation._grid_optima(prices, returns, [tokens], LEARNING_SAMPLE_SIZES, betas, rhos)
        estimation._grid_optima(prices, returns, [tokens], [175], betas, rhos)
        staged, single = grid_passes
        assert len(_cells_at(staged, 1)) == cells
        assert 0 < len(_cells_at(staged, 175)) < 0.25 * cells
        # one size: the box search values few cells, each corner at most a few times
        assert {size for _, size in single} == {175}
        assert 0 < len(_cells_at(single, 175)) < 0.05 * cells


def _gaussian_tokens(dataset: SubjectDataset, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """The dataset's token choices plus N(0, sigma) points, clipped and rounded to cents, as
    the benchmark's sloppy subjects: a (n, 2) token matrix."""
    t_a = np.round(np.clip(dataset.tokens[:, 0] + rng.normal(0.0, sigma, dataset.n), 0.0, 100.0), 2)
    return np.column_stack([t_a, np.round(100.0 - t_a, 2)])


def _first_minima(prices, returns, tokens, betas, rhos, sizes) -> list[tuple[float, int]]:
    """``(mean, index)`` of np.argmin over the full grid's means at each size: the
    oracle of every pass."""
    full = _grid_losses(prices, returns, tokens, betas, rhos)
    minima = []
    for size in sizes:
        means = full[:, :size].mean(axis=1)
        i = int(np.argmin(means))
        minima.append((float(means[i]), i))
    return minima


def assert_first_minima(got: list[tuple[float, int]], want: list[tuple[float, int]]) -> None:
    """The same cells, and means with the same bits (NaN equal to NaN)."""
    assert [at for _, at in got] == [at for _, at in want]
    for (mean, _), (wanted, _) in zip(got, want):
        assert type(mean) is float and _same_float(mean, wanted), (mean, wanted)


class TestBoundingStages:
    """A one-size pass is a box search, and every later stage of a multi-size pass runs
    (beta, rho) cells; every optimum must be the full grid's first minimum, bit for
    bit."""

    @pytest.mark.parametrize("n_rounds", [60, 175])
    def test_exact_and_noisy_members_of_one_schedule(self, grid_passes, n_rounds):
        rng = np.random.default_rng(601 + n_rounds)
        betas, rhos = _parameter_grid(RecoveryConfig())
        exact = simulate_subject(DAParams(0.4, 0.7), generate_budgets(603, n_rounds), "ex").dataset
        prices, returns, _ = _matrices(exact)
        members = [exact.tokens] + [_gaussian_tokens(exact, rng, sigma)
                                    for sigma in (5.0, 10.0, 15.0, 25.0)]
        want = [_first_minima(prices, returns, tokens, betas, rhos, [n_rounds])
                for tokens in members]
        grid_passes.clear()  # the oracle's
        shared = estimation._grid_optima(prices, returns, members, [n_rounds], betas, rhos)
        for got, wanted in zip(shared, want):
            assert_first_minima(got, wanted)
        for tokens, wanted in zip(members, want):
            (got,) = estimation._grid_optima(prices, returns, [tokens], [n_rounds], betas, rhos)
            assert_first_minima(got, wanted)
        # the exact member alone values few cells, all at its size
        exact_pass = grid_passes[1]
        assert {size for _, size in exact_pass} == {n_rounds}
        assert len(_cells_at(exact_pass, n_rounds)) < 0.05 * len(betas) * len(rhos)

    def test_a_cell_left_out_early_does_not_come_back(self, grid_passes):
        # sample_population(9, 150)'s sim112 on generate_budgets(1111, 175): where each stage
        # bounded only its own size, a cell left out at s = 10 came back at s = 175 with
        # its 10-round sum, and 72 % of the cells ran again there
        params = dict(sample_population(9, 150))["sim112"]
        ds = simulate_subject(params, generate_budgets(1111, 175), "sim112").dataset
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, tokens = _matrices(ds)
        (got,) = estimation._grid_optima(prices, returns, [tokens], LEARNING_SAMPLE_SIZES,
                                         betas, rhos)
        calls = grid_passes[0]
        assert_first_minima(got, _first_minima(prices, returns, tokens, betas, rhos,
                                               LEARNING_SAMPLE_SIZES))
        assert len(_cells_at(calls, 175)) < 0.01 * len(betas) * len(rhos)

    @pytest.mark.parametrize("seed, n_costly, sizes", [(461, 15, (1, 10, 25)), (617, 30, (40,))],
                             ids=["staged", "probe"])
    def test_overflowed_cells_are_bounded_like_any_other(self, grid_passes, seed, n_costly,
                                                         sizes):
        # an exact subject on 10 cheap budgets whose price ratios stay below 1.9, then on
        # budgets costing more than 1 per unit: at rho near 1e-3 the interiors of the
        # beta < 0 rows overflow to their limits, and the losses of the costly rounds
        # are far from the optimum's.  Staged sizes bound after the first stage, and
        # the bound leaves every overflowed cell out of the last stage; one size of 40
        # rounds is a box search, which values a box's corners, so an overflowed cell
        # only as one, and leaves out nearly every box that holds one.  Either way
        # every optimum is the full pass's bit for bit
        rng = np.random.default_rng(seed)
        price, ratio = rng.uniform(0.005, 0.05, 10), rng.uniform(1.0, 1.9, 10)
        cheap = np.column_stack([price, price * ratio])
        flip = rng.uniform(size=10) < 0.5
        cheap[flip] = cheap[flip][:, ::-1]
        prices = np.vstack([cheap, rng.uniform(1.0, 2.0, (n_costly, 2))])
        demand = optimal_demand_grid(prices, np.array([1.0]), np.array([0.5]))[0][0]
        ds = dataset_from_prices([(*p, *x) for p, x in zip(prices, demand)])
        betas, rhos = _parameter_grid(RecoveryConfig(rho_min=1e-3))
        assert_limits_on_the_line(prices, betas, rhos)
        want = _first_minima(prices, ds.returns, ds.tokens, betas, rhos, sizes)
        assert all(math.isfinite(mean) for mean, _ in want)
        grid_passes.clear()  # the oracle's
        (got,) = estimation._grid_optima(prices, ds.returns, [ds.tokens], sizes, betas, rhos)
        assert_first_minima(got, want)
        overflowed = overflowed_interiors(prices, *flat_grid(betas, rhos)).any(axis=1)
        ran = np.zeros_like(overflowed)
        ran[_cells_at(grid_passes[0], sizes[-1])] = True
        assert overflowed.sum() > 50
        assert (overflowed & ran).sum() <= (0 if len(sizes) > 1 else 0.05 * overflowed.sum())

    @pytest.mark.parametrize("n_rounds", [9, 10, 11, 24, 25, 26, 49, 50, 51, 99, 100, 101])
    def test_sizes_next_to_each_stage_length(self, grid_passes, n_rounds):
        # one size next to the lengths of the bounding stages that one-size passes ran
        # before the box search (10, 25, 50, 100): each pass is one box search on the
        # cell kernel at that size, alone or shared
        rng = np.random.default_rng(619 + n_rounds)
        exact = simulate_subject(DAParams(-0.2, 0.8), generate_budgets(621 + n_rounds, n_rounds),
                                 "ex").dataset
        members = [exact.tokens, _gaussian_tokens(exact, rng, 10.0)]
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, _ = _matrices(exact)
        want = [_first_minima(prices, returns, tokens, betas, rhos, [n_rounds])
                for tokens in members]
        grid_passes.clear()  # the oracle's
        for group in ([0], [1], [0, 1]):
            got = estimation._grid_optima(prices, returns, [members[m] for m in group],
                                          [n_rounds], betas, rhos)
            for m, per_size in zip(group, got):
                assert_first_minima(per_size, want[m])
        assert len(grid_passes) == 3
        assert {size for calls in grid_passes for _, size in calls} == {n_rounds}

    @pytest.mark.parametrize("stages", [(10, 35, 75, 120), (5, 60), (25,), (10, 11, 12)])
    def test_other_stage_lengths(self, stages):
        # a multi-size pass's stages are its sizes: any increasing ones give each size's
        # first minimum, with later stages of any number of rounds, in blocks of any size
        rng = np.random.default_rng(641)
        exact = simulate_subject(DAParams(0.1, 0.5), generate_budgets(643, 150), "ex").dataset
        members = [exact.tokens] + [_gaussian_tokens(exact, rng, sigma) for sigma in (5.0, 10.0)]
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, _ = _matrices(exact)
        sizes = [*stages, 150]
        want = [_first_minima(prices, returns, tokens, betas, rhos, sizes) for tokens in members]
        with pytest.MonkeyPatch.context() as patch:
            for block_rows in (1, 1000):
                patch.setattr(estimation, "_BLOCK_CELLS", block_rows * len(rhos) * 150)
                for group in ([0], [2], [0, 1, 2]):
                    got = estimation._grid_optima(prices, returns, [members[m] for m in group],
                                                  sizes, betas, rhos)
                    for m, per_size in zip(group, got):
                        assert_first_minima(per_size, want[m])

    @pytest.mark.parametrize("kind", ["random", "equal", "adjacent", "overflow"])
    def test_cell_tokens_are_the_pair_kernels(self, kind):
        # every cell of the grid, in shuffled chunks and over prefixes, bit for bit
        rng = np.random.default_rng(631)
        betas, rhos = _parameter_grid(RecoveryConfig())
        if kind == "random":
            prices, returns, _ = _matrices(random_sloppy_dataset(rng, 175))
        elif kind == "equal":
            price = rng.uniform(0.005, 0.05, 30)
            prices, returns, _ = _priced(np.column_stack([price, price]), rng)
        elif kind == "adjacent":
            # bases one ulp above 1, and interior ratios within 3e-16 of 1 near rho = 1
            grid_betas = [float(b) for b in betas[::4]] + [GRID_ZERO_BETA]
            found = [prices for beta in grid_betas for side in "ab"
                     if (prices := _base_one_ulp_above_one(beta, 0.01, side))]
            prices, returns, _ = _priced(np.vstack([_kink_edge_prices(grid_betas[:6]), found]),
                                         rng)
        else:  # limit bundles where k overflows
            prices, returns, _ = _matrices(_costly_budgets(rng, 20))
            betas, rhos = _parameter_grid(RecoveryConfig(rho_min=1e-3))
            assert_limits_on_the_line(prices, betas, rhos)
        n = len(prices)
        dense = np.empty((2, len(betas), len(rhos), n))
        tokens_at = estimation._block_kernel(prices, returns, rhos)
        for rows in estimation._beta_blocks(betas, len(rhos) * n):
            dense[:, rows] = _dense_block(tokens_at(betas[rows], n),
                                          (rows.stop - rows.start, len(rhos), n))
        dense = dense.reshape(2, -1, n)
        tokens_of = estimation._cell_tokens(prices, returns, betas, rhos)
        cells = rng.permutation(len(betas) * len(rhos))
        for size in (n, (n + 1) // 2, 1):
            for chunk in np.array_split(cells, 7):
                for got, want in zip(tokens_of(chunk, size), dense):
                    assert got.shape == (len(chunk), size)
                    np.testing.assert_array_equal(_bits(got), _bits(want[chunk, :size]))
        # the tokens of a bundle on the budget line sum to 100
        assert np.isfinite(dense).all() and np.all(np.abs(dense[0] + dense[1] - 100.0) <= 1e-11)

    @pytest.mark.parametrize("sizes", [[175], LEARNING_SAMPLE_SIZES])
    def test_a_pass_leaves_no_reference_cycle(self, sizes):
        # a cycle among the pass's closures would hold its workspace and buffers until
        # the cyclic collector ran: in a long batch the process's peak memory grew
        # with every pass (about 0.2 MB a pass with a 10-round probe)
        ds = simulate_subject(DAParams(0.3, 1.2), generate_budgets(457, 175), "ex").dataset
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, tokens = _matrices(ds)
        gc.collect()
        gc.disable()
        try:
            estimation._grid_optima(prices, returns, [tokens, tokens[::-1]], sizes, betas, rhos)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cell_tokens_in_small_chunks(self, monkeypatch):
        # the cell kernel's tokens do not depend on _PAIR_CELLS, which sizes the chunks
        # of cells that a stage hands it
        rng = np.random.default_rng(633)
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, _ = _matrices(random_sloppy_dataset(rng, 7))
        want = estimation._cell_tokens(prices, returns, betas, rhos)(np.arange(2000), 7)
        for pair_cells in (2, 3, 40):
            monkeypatch.setattr(estimation, "_PAIR_CELLS", pair_cells)
            got = estimation._cell_tokens(prices, returns, betas, rhos)(np.arange(2000), 7)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(_bits(g), _bits(w))

    def test_grid_and_paired_losses_are_equal(self):
        # the grid kernels and _PairedLoss (fit_loss) take one demand rule, the closed
        # form: every per-round loss of every cell of the default grid, on two schedules,
        # has the same bits in both
        betas, rhos = _parameter_grid(RecoveryConfig())
        for seed in (19, 20):
            ((_, params),) = sample_population(seed, 1)
            ds = simulate_subject(params, generate_budgets(seed, 175), "s").dataset
            prices, returns, tokens = _matrices(ds)
            grid = _grid_losses(prices, returns, tokens, betas, rhos)
            # one-round datasets: each loss is its round's
            n = len(prices)
            loss = _PairedLoss([(prices[i:i + 1], returns[i:i + 1], tokens[i:i + 1])
                                for i in range(n)] * len(rhos))
            paired = np.concatenate([loss(np.full(n * len(rhos), beta), np.repeat(rhos, n))
                                     .reshape(len(rhos), n) for beta in betas])
            np.testing.assert_array_equal(_bits(grid), _bits(paired))


class TestBoxSearch:
    """A one-size pass is a branch and bound over boxes of cells
    (``estimation._box_optima``): each round's model tokens over a box lie between those
    of its corners ``(i, a)`` and ``(j, b)``, widened, and every optimum must be the
    full grid's first minimum, bit for bit."""

    @pytest.mark.parametrize("kind", ["default", "rho_min", "wide", "equal", "beta_next_to_minus_one"])
    def test_corners_bound_every_cell_of_a_box(self, kind):
        # random boxes of the three recovery grids, of equal prices, and of an axis
        # from beta one ulp above -1: the model's tokens are monotone only up to
        # rounding (they step back by up to about 6e-16 relative on each grid), so the
        # unwidened corner interval would not hold every cell
        rng = np.random.default_rng(661)
        configs = {"rho_min": RecoveryConfig(rho_min=1e-3),
                   "wide": RecoveryConfig(beta_min=-0.99, rho_max=20.0, rho_points=80)}
        betas, rhos = _parameter_grid(configs.get(kind, RecoveryConfig()))
        if kind == "equal":
            price = rng.uniform(0.005, 0.05, 40)
            prices, returns, _ = _priced(np.column_stack([price, price]), rng)
        else:
            prices, returns, _ = _matrices(random_sloppy_dataset(rng, 40))
        if kind == "beta_next_to_minus_one":
            betas = np.concatenate([[np.nextafter(-1.0, 0.0), -0.999], betas])
        n, shape = len(prices), (len(betas), len(rhos))
        model = np.stack(estimation._cell_tokens(prices, returns, betas, rhos)(
            np.arange(math.prod(shape)), n)).reshape(2, *shape, n)
        pad = estimation._token_pad(returns)
        for _ in range(150):
            (i, j), (a, b) = np.sort(rng.integers(0, shape[0], 2)), np.sort(rng.integers(0, shape[1], 2))
            low, high = estimation._token_range(model[:, i, a, None], model[:, j, b, None], pad)
            box = model[:, i:j + 1, a:b + 1].reshape(2, -1, n)
            assert np.all((low <= box) & (box <= high)), (i, j, a, b)

    @pytest.mark.parametrize("n_rounds", [1, 2, 25, 26, 60, 175])
    def test_first_minima(self, n_rounds):
        # exact, sigma = 10 and sigma = 25 members on one schedule; on budgets whose
        # price ratios stay below 1.5, the kink's tokens on every round, where every
        # cell of the rows with odds below 2/3 ties at loss 0, and tokens drawn at
        # random; and flat rounds (one budget, one choice): each optimum is np.argmin's
        # over the full grid, mean bits included, alone and shared
        rng = np.random.default_rng(673 + n_rounds)
        betas, rhos = _parameter_grid(RecoveryConfig())
        exact = simulate_subject(DAParams(0.4, 0.7), generate_budgets(677, n_rounds), "ex").dataset
        price, ratio = rng.uniform(0.005, 0.05, n_rounds), rng.uniform(1.0, 1.5, n_rounds)
        mild = np.column_stack([price, price * ratio])
        flip = rng.uniform(size=n_rounds) < 0.5
        mild[flip] = mild[flip][:, ::-1]
        mild, mild_returns, drawn = _priced(mild, rng)
        kink = (1.0 / mild.sum(axis=1))[:, None] / mild_returns
        flat = SubjectDataset.from_returns_tokens("flat", [(0.5, 0.9)] * n_rounds,
                                                  [(40.0, 60.0)] * n_rounds)
        groups = [(_matrices(exact)[:2], [exact.tokens] + [_gaussian_tokens(exact, rng, sigma)
                                                           for sigma in (10.0, 25.0)]),
                  ((mild, mild_returns), [kink, drawn]),
                  (_matrices(flat)[:2], [flat.tokens])]
        for (prices, returns), members in groups:
            want = [_first_minima(prices, returns, tokens, betas, rhos, [n_rounds])
                    for tokens in members]
            for group in [[m] for m in range(len(members))] + [list(range(len(members)))]:
                got = estimation._grid_optima(prices, returns, [members[m] for m in group],
                                              [n_rounds], betas, rhos)
                for m, per_size in zip(group, got):
                    assert_first_minima(per_size, want[m])
        losses = _grid_losses(mild, mild_returns, kink, betas, rhos).sum(axis=1)
        assert np.count_nonzero(losses == 0.0) > 1000

    def test_a_bound_equal_to_the_limit_keeps_its_box(self, grid_passes):
        # a return shrunk by 1e-200 makes every cell's loss inf, so each member's U and
        # each box's bound are inf: a box is left out only where its bound exceeds the
        # limit, so no box is, every cell is valued, and the first cell wins
        rng = np.random.default_rng(683)
        prices, returns, tokens = _matrices(random_sloppy_dataset(rng, 30))
        returns = returns.copy()
        returns[7, 0] *= 1e-200
        betas, rhos = _parameter_grid(RecoveryConfig())
        with np.errstate(over="ignore"):
            assert np.isinf(_grid_losses(prices, returns, tokens, betas, rhos).sum(axis=1)).all()
        ((got,),) = estimation._grid_optima(prices, returns, [tokens], [30], betas, rhos)
        assert got == (math.inf, 0)
        (calls,) = grid_passes
        np.testing.assert_array_equal(np.unique(_cells_at(calls, 30)),
                                      np.arange(len(betas) * len(rhos)))

    def test_a_bench_pair_values_few_cells(self, grid_passes):
        # an exact subject and its sigma = 10 copy on one schedule, as in the benchmark:
        # both optima are first minima, and the search values under a tenth of the grid
        rng = np.random.default_rng(611)
        exact = simulate_subject(DAParams(0.2, 0.6), generate_budgets(613, 175), "ex").dataset
        members = [exact.tokens, _gaussian_tokens(exact, rng, 10.0)]
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, _ = _matrices(exact)
        got = estimation._grid_optima(prices, returns, members, [175], betas, rhos)
        (calls,) = grid_passes
        for tokens, per_size in zip(members, got):
            assert_first_minima(per_size, _first_minima(prices, returns, tokens, betas, rhos,
                                                        [175]))
        assert len(np.unique(_cells_at(calls, 175))) < 0.1 * len(betas) * len(rhos)


def _staged_sizes(n: int) -> list[int]:
    """The learning-curve sizes clipped to ``n`` rounds, largest first, 1 twice."""
    return [min(size, n) for size in (*LEARNING_SAMPLE_SIZES[::-1], 1)]


@pytest.fixture(scope="module")
def first_minima_cases() -> list:
    """``(prices, returns, members' tokens, (betas, rhos), optima)`` per case; the optima
    are np.argmin of ``_grid_losses``' means, per member and ``_staged_sizes`` size."""
    rng = np.random.default_rng(449)
    # one round: 540 cells in the last 9 beta rows tie at the minimum, across blocks
    one_round = random_sloppy_dataset(rng, 1)
    # budgets costing more than 1 per unit at rho near 1e-3, on the beta axis reversed:
    # interiors at their k -> inf limits from row 64 on, after rows with none and in
    # several blocks
    costly = _costly_budgets(rng, 12)
    betas, rhos = _parameter_grid(RecoveryConfig(rho_min=1e-3))
    exact = simulate_subject(DAParams(0.3, 1.2), generate_budgets(451, 175), "ex").dataset
    shared = simulate_subject(DAParams(-0.3, 0.8), generate_budgets(453, 175), "sh").dataset
    # two exact subjects on one schedule: each keeps few rows, and not the same ones
    budgets = generate_budgets(459, 175)
    apart = [simulate_subject(params, budgets, "ap").dataset
             for params in (DAParams(0.3, 1.2), DAParams(1.5, 0.4))]
    # a return shrunk by 1e-200 in round 30 makes most cells' losses inf from there on
    prices, returns, tokens = _matrices(_sloppy_subject(455, DAParams(1.5, 3.0)))
    returns = returns.copy()
    returns[29, 0] *= 1e-200
    grid = _parameter_grid(RecoveryConfig())
    raw = [([one_round, _retokened(one_round, rng)], grid),
           ([costly, _retokened(costly, rng)], (np.ascontiguousarray(betas[::-1]), rhos)),
           ([exact], grid),
           ([_sloppy_subject(457, DAParams(0.0, 0.5))], grid),
           ([shared, _noisy_copy(shared, rng), _retokened(shared, rng)], grid),
           (apart, grid)]
    cases = [(*_matrices(datasets[0])[:2], [ds.tokens for ds in datasets], axes)
             for datasets, axes in raw]
    cases.append((prices, returns, [tokens], grid))
    with np.errstate(over="ignore"):
        assert np.isinf(_grid_losses(prices, returns, tokens, *grid)).any()
    return [(*case, [[int(np.argmin(_grid_losses(*case[:2], member, *case[3])[:, :size]
                                     .mean(axis=1))) for size in _staged_sizes(len(case[0]))]
                     for member in case[2]]) for case in cases]


def assert_kernel_matches_oracle(data, betas, rhos) -> np.ndarray:
    """``_grid_losses`` must return the oracle's floats, NaN equal to NaN; returns the oracle's."""
    got = _grid_losses(*data, np.asarray(betas, dtype=float), np.asarray(rhos, dtype=float))
    want = oracle_grid_losses(*data, np.asarray(betas, dtype=float), np.asarray(rhos, dtype=float))
    assert got.shape == want.shape == (len(betas) * len(rhos), len(data[0]))
    np.testing.assert_array_equal(got, want)
    return want


class TestGridLosses:
    """``_grid_losses`` must equal ``round_losses(grid_demand(...))`` on every input."""

    @pytest.mark.parametrize("seed", [251, 252])
    def test_random_sloppy_data(self, seed):
        rng = np.random.default_rng(seed)
        betas, rhos = _parameter_grid(RecoveryConfig())
        for n_rounds in (1, 25, 175):
            assert_kernel_matches_oracle(_matrices(random_sloppy_dataset(rng, n_rounds)),
                                         betas, rhos)

    def test_adversarial_budgets(self):
        # equal prices, and interior ratios k within 1e-6 .. 3e-16 of 1 for each beta;
        # at beta = -1e-17 the odds round to 1, so on equal prices neither interior
        # branch is admissible and a beta < 0 row takes the kink
        betas = (-0.95, -0.9, -0.5, -0.05, -1e-17, 0.0, GRID_ZERO_BETA, 0.05, 1.0, 3.0)
        rhos = (0.05, 0.3, 1.0 - 1e-9, 1.0 - 1e-11, 1.0, 1.0 + 1e-11, 1.0 + 1e-9, 2.0, 3.9, 5.0)
        rng = np.random.default_rng(257)
        assert_kernel_matches_oracle(_priced(_kink_edge_prices(betas), rng), betas, rhos)
        price = rng.uniform(0.005, 0.05, 40)
        assert_kernel_matches_oracle(_priced(np.column_stack([price, price]), rng), betas, rhos)

    def test_edge_points(self):
        # _PointLoss's edge points as grid axes (beta next to -1 and at the refinement's
        # clamps, rho at e^-60, 1e-300, both sides of the log branch's 1e-10 and e^60)
        # on budgets where the interior and kink utilities nearly tie; k overflows at the
        # smallest rhos
        rng = np.random.default_rng(259)
        data = _priced(_kink_edge_prices(_EDGE_BETAS), rng)
        assert_limits_on_the_line(data[0], _EDGE_BETAS, _EDGE_RHOS)
        assert np.isfinite(assert_kernel_matches_oracle(data, _EDGE_BETAS, _EDGE_RHOS)).all()

    def test_grid_whose_middle_rho_is_one(self):
        betas, rhos = _parameter_grid(RecoveryConfig(rho_min=0.5, rho_max=2.0, rho_points=3))
        assert rhos[1] == 1.0  # the log branch, with corners excluded
        rng = np.random.default_rng(263)
        assert_kernel_matches_oracle(_matrices(random_sloppy_dataset(rng, 175)), betas, rhos)

    def test_tiny_rho_overflows_the_interior_branches(self):
        # k = inf: the interior bundle is its limit, the whole budget on the higher holding,
        # on the experiments' budgets and on budgets costing more than 1 per unit, in
        # beta < 0 rows too
        betas, rhos = _parameter_grid(RecoveryConfig(rho_min=1e-3))
        rng = np.random.default_rng(269)
        for data in (_matrices(random_sloppy_dataset(rng, 175)),
                     _priced(rng.uniform(1.0, 2.0, size=(20, 2)), rng)):
            assert_limits_on_the_line(data[0], betas, rhos)
            assert np.isfinite(assert_kernel_matches_oracle(data, betas, rhos)).all()

    def test_price_ratio_overflows(self):
        # a return of 6e-311 prices asset A at about 1.67e308: the price sum is finite,
        # p_a / p_b overflows, k_b = inf gives the B-high limit, and the kernel must
        # neither differ nor warn
        rng = np.random.default_rng(270)
        returns = np.vstack([[6e-311, 0.5], rng.uniform(0.2, 2.0, (9, 2))])
        t_a = rng.uniform(0.0, 100.0, len(returns))
        data = 1.0 / (100.0 * returns), returns, np.column_stack([t_a, 100.0 - t_a])
        betas, rhos = _parameter_grid(RecoveryConfig())
        assert_limits_on_the_line(data[0], betas, rhos)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(assert_kernel_matches_oracle(data, betas, rhos)).all()

    def test_beta_near_minus_one(self):
        betas, rhos = _parameter_grid(RecoveryConfig(beta_min=-0.999))
        rng = np.random.default_rng(271)
        assert_kernel_matches_oracle(_matrices(random_sloppy_dataset(rng, 60)), betas, rhos)

    @pytest.mark.parametrize("config", [
        RecoveryConfig(beta_min=0.0),  # no beta < 0 row
        RecoveryConfig(beta_max=-0.05),  # only beta < 0 rows
        RecoveryConfig(beta_min=-0.95, beta_max=-0.95),  # one row
    ], ids=["nonnegative", "negative", "single"])
    def test_grids_of_one_sign(self, config):
        betas, rhos = _parameter_grid(config)
        rng = np.random.default_rng(277)
        assert_kernel_matches_oracle(_matrices(random_sloppy_dataset(rng, 50)), betas, rhos)

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 1000])
    def test_block_sizes(self, monkeypatch, block_rows):
        # the recovery grid has 19 beta < 0 and 61 beta >= 0 rows; blocks of 3 or 7
        # rows divide neither, and one holds rows of both signs
        betas, rhos = _parameter_grid(RecoveryConfig())
        rng = np.random.default_rng(281)
        data = _matrices(random_sloppy_dataset(rng, 25))
        monkeypatch.setattr(estimation, "_BLOCK_CELLS", block_rows * len(rhos) * 25)
        assert_kernel_matches_oracle(data, betas, rhos)

    def test_beta_axis_in_any_order(self):
        betas = np.array([0.5, -0.5, 0.0, -0.2, -0.9, 2.0, GRID_ZERO_BETA])
        rhos = np.array([0.7, 0.05, 1.3, 1.0, 2.0, 0.4])
        rng = np.random.default_rng(283)
        assert_kernel_matches_oracle(_matrices(random_sloppy_dataset(rng, 30)), betas, rhos)

    def test_no_grid_sized_demand_array(self):
        # a (G, N, 2) demand array next to the (G, N) result would triple the peak
        ds = _sloppy_subject(293, DAParams(0.2, 0.9))
        betas, rhos = _parameter_grid(RecoveryConfig())
        tracemalloc.start()
        try:
            losses = _grid_losses(*_matrices(ds), betas, rhos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * losses.nbytes


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def dense_tokens_at(prices: np.ndarray, returns: np.ndarray, rhos: np.ndarray,
                    betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``estimation._block_kernel``'s ``tokens_at(betas)`` computed densely.

    The kernel as it was before its (beta, round) classes: both interior ratios
    and both bundles at every cell, clamped to ``max(k, 1)``, and each round
    takes the bundle on its cheaper asset's side (A on equal prices), which
    at ``k = 1`` is the kink's.
    """
    p_a, p_b = prices[:, 0], prices[:, 1]
    rho = rhos[:, None]
    w = 1.0 / (2.0 + betas[:, None, None])
    odds = w / (1.0 - w)
    k_a, k_b = (np.maximum(np.power(odds * ratio, 1.0 / rho), 1.0)
                for ratio in (p_b / p_a, p_a / p_b))
    x_a_ia, x_b_ia = _interior(p_a, p_b, k_a)
    x_b_ib, x_a_ib = _interior(p_b, p_a, k_b)
    cheap_a = p_a <= p_b
    x_a = np.where(cheap_a, x_a_ia, x_a_ib)
    x_b = np.where(cheap_a, x_b_ia, x_b_ib)
    return x_a / returns[:, 0], x_b / returns[:, 1]


def assert_kernel_matches_dense(prices: np.ndarray, returns: np.ndarray, betas, rhos) -> list:
    """Every block of ``estimation._block_kernel`` must be ``dense_tokens_at``'s, as int64
    bits; returns the dense blocks."""
    betas, rhos = np.asarray(betas, dtype=float), np.asarray(rhos, dtype=float)
    tokens_at = estimation._block_kernel(prices, returns, rhos)
    blocks = []
    for rows in estimation._beta_blocks(betas, len(rhos) * len(prices)):
        want = dense_tokens_at(prices, returns, rhos, betas[rows])
        shape = (rows.stop - rows.start, len(rhos), len(prices))
        for got, wanted in zip(_dense_block(tokens_at(betas[rows], len(prices)), shape), want):
            assert got.shape == wanted.shape == (rows.stop - rows.start, len(rhos), len(prices))
            np.testing.assert_array_equal(_bits(got), _bits(wanted))
        # a prefix's tokens are the first rounds' tokens of the whole schedule
        size = (len(prices) + 1) // 2
        prefix = _dense_block(tokens_at(betas[rows], size), (*shape[:2], size))
        for got, wanted in zip(prefix, want):
            np.testing.assert_array_equal(_bits(got), _bits(wanted[:, :, :size]))
        blocks.append(want)
    return blocks


def _bases(prices: np.ndarray, betas) -> tuple[np.ndarray, np.ndarray]:
    """Each (beta, round) pair's interior bases ``odds * p_b / p_a`` and ``odds * p_a / p_b``,
    (B, N) each, with the kernel's expressions."""
    w = 1.0 / (2.0 + np.asarray(betas, dtype=float)[:, None])
    odds = w / (1.0 - w)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return odds * (prices[:, 1] / prices[:, 0]), odds * (prices[:, 0] / prices[:, 1])


_ONE_ULP_UP = float(np.nextafter(1.0, 2.0))


def _base_one_ulp_above_one(beta: float, p: float, side: str) -> tuple[float, float] | None:
    """Prices near ``p`` whose A-high (``side`` "a") or B-high base is exactly one ulp above
    1 at ``beta``, found by stepping the other price one float at a time; None if no
    step lands on it."""
    w = 1.0 / (2.0 + beta)
    odds = w / (1.0 - w)
    other = p / odds
    for _ in range(200):
        prices = (p, other) if side == "a" else (other, p)
        base = _bases(np.array([prices]), [beta])[0 if side == "a" else 1][0, 0]
        if base == _ONE_ULP_UP:
            return prices
        other = float(np.nextafter(other, math.inf if base < _ONE_ULP_UP else 0.0))
    return None


class TestClassedKernel:
    """``estimation._block_kernel`` classes each (beta, round) pair by its interior bases and
    computes demand only where a candidate can win; its tokens must be the dense kernel's,
    bit for bit."""

    @pytest.mark.parametrize("n_rounds", [1, 25, 175])
    def test_random_schedules(self, n_rounds):
        rng = np.random.default_rng(501 + n_rounds)
        prices, returns, _ = _matrices(random_sloppy_dataset(rng, n_rounds))
        assert_kernel_matches_dense(prices, returns, *_parameter_grid(RecoveryConfig()))

    def test_equal_prices_put_every_nonnegative_pair_at_the_kink(self):
        rng = np.random.default_rng(503)
        price = rng.uniform(0.005, 0.05, 30)
        prices, returns, _ = _priced(np.column_stack([price, price]), rng)
        betas, rhos = _parameter_grid(RecoveryConfig())
        base_a, base_b = _bases(prices, betas[betas >= 0.0])
        assert not (base_a > 1.0).any() and not (base_b > 1.0).any()
        blocks = assert_kernel_matches_dense(prices, returns, betas, rhos)
        kink = 1.0 / (prices[:, 0] + prices[:, 1])
        for rows, (model_a, model_b) in zip(estimation._beta_blocks(betas, len(rhos) * 30), blocks):
            nonnegative = betas[rows] >= 0.0  # the round's kink tokens at every rho
            for model, r in ((model_a[nonnegative], returns[:, 0]),
                             (model_b[nonnegative], returns[:, 1])):
                np.testing.assert_array_equal(_bits(model),
                                              _bits(np.broadcast_to(kink / r, model.shape)))

    def test_no_kink_pair(self):
        # each round's larger price ratio is above 4, so at beta <= 3 (odds >= 1/4) one
        # base exceeds 1 on every beta >= 0 pair
        rng = np.random.default_rng(505)
        p = rng.uniform(0.005, 0.05, 40)
        ratio = rng.uniform(4.5, 20.0, 40)
        high_b = rng.uniform(size=40) < 0.5
        prices = np.column_stack([np.where(high_b, p, p * ratio), np.where(high_b, p * ratio, p)])
        prices, returns, _ = _priced(prices, rng)
        betas, rhos = _parameter_grid(RecoveryConfig())
        base_a, base_b = _bases(prices, betas[betas >= 0.0])
        assert ((base_a > 1.0) | (base_b > 1.0)).all()
        assert_kernel_matches_dense(prices, returns, betas, rhos)

    def test_bases_one_ulp_above_one(self):
        # at rho = 5, k = (1 + 2^-52)^(1/5) rounds to exactly 1.0: such a pair is classed
        # interior, yet its bundle is the kink's
        assert np.power(_ONE_ULP_UP, 1.0 / 5.0) == 1.0
        betas = (-0.95, -0.5, -1e-17, 0.0, GRID_ZERO_BETA, 0.05, 1.0, 3.0)
        found = [prices for beta in betas for p in (0.004, 0.01, 0.02, 0.033, 0.05)
                 for side in "ab" if (prices := _base_one_ulp_above_one(beta, p, side))]
        assert len(found) >= 4 * len(betas)
        rng = np.random.default_rng(507)
        prices, returns, _ = _priced(np.array(found), rng)
        rhos = np.array([0.05, 0.5, 1.0, 2.0, 4.999, 5.0])
        assert_kernel_matches_dense(prices, returns, betas, rhos)

    def test_betas_next_to_zero(self):
        # -1e-17 has odds of exactly 1 in a beta < 0 row; the grid's 1.1e-16 point is
        # its first beta >= 0 row
        rng = np.random.default_rng(509)
        betas = (-1e-17, 0.0, GRID_ZERO_BETA)
        prices = np.vstack([_kink_edge_prices(betas), rng.uniform(0.005, 0.05, (30, 2))])
        prices, returns, _ = _priced(prices, rng)
        assert_kernel_matches_dense(prices, returns, betas, _parameter_grid(RecoveryConfig())[1])

    def test_powers_that_overflow_to_limit_bundles(self):
        # budgets costing more than 1 per unit at rho near 1e-3: k = inf gives the
        # interior's limit, (1 / p_a, 0) or (0, 1 / p_b), in beta < 0 rows too; its
        # tokens are finite and sum to 100
        rng = np.random.default_rng(511)
        prices, returns, _ = _matrices(_costly_budgets(rng, 20))
        axes = _parameter_grid(RecoveryConfig(rho_min=1e-3))
        assert_limits_on_the_line(prices, *axes)
        blocks = assert_kernel_matches_dense(prices, returns, *axes)
        assert all(np.isfinite(model_a).all() and np.all(np.abs(model_a + model_b - 100.0) <= 1e-11)
                   for model_a, model_b in blocks)

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 1000])
    @pytest.mark.parametrize("chunk_pairs", [1, 7, None])
    def test_block_and_chunk_sizes(self, monkeypatch, block_rows, chunk_pairs):
        betas, rhos = _parameter_grid(RecoveryConfig())
        rng = np.random.default_rng(513)
        prices, returns, _ = _matrices(random_sloppy_dataset(rng, 25))
        monkeypatch.setattr(estimation, "_BLOCK_CELLS", block_rows * len(rhos) * 25)
        if chunk_pairs is not None:
            monkeypatch.setattr(estimation, "_PAIR_CELLS", chunk_pairs * len(rhos))
        assert_kernel_matches_dense(prices, returns, betas, rhos)

    @pytest.mark.parametrize("kind", ["random", "equal"])
    def test_kink_pairs_take_the_rounds_kink_loss(self, kind):
        # a pair whose cheaper side's base is <= 1 (class 0; on this grid, only beta >= 0
        # pairs) is in no piece: its loss at every rho must be the round's kink loss, bit
        # for bit, and every cell's loss the gap formula on the dense kernel's tokens
        rng = np.random.default_rng(519)
        if kind == "equal":
            price = rng.uniform(0.005, 0.05, 60)
            prices, returns, tokens = _priced(np.column_stack([price, price]), rng)
        else:
            prices, returns, tokens = _matrices(random_sloppy_dataset(rng, 175))
        betas, rhos = _parameter_grid(RecoveryConfig())
        kink = 1.0 / (prices[:, 0] + prices[:, 1])
        gap_a = (kink / returns[:, 0] - tokens[:, 0]) / 100.0
        gap_b = (kink / returns[:, 1] - tokens[:, 1]) / 100.0
        kink_loss = gap_a * gap_a + gap_b * gap_b
        tokens_at = estimation._block_kernel(prices, returns, rhos)
        kink_cells = 0
        for rows in estimation._beta_blocks(betas, len(rhos) * len(prices)):
            model_a, model_b = dense_tokens_at(prices, returns, rhos, betas[rows])
            gap_a = (model_a - tokens[:, 0]) / 100.0
            gap_b = (model_b - tokens[:, 1]) / 100.0
            losses = estimation._block_losses(tokens_at(betas[rows], len(prices)), tokens,
                                              np.empty(model_a.shape))
            np.testing.assert_array_equal(_bits(losses), _bits(gap_a * gap_a + gap_b * gap_b))
            base_a, base_b = _bases(prices, betas[rows])
            cheap_a = prices[:, 0] <= prices[:, 1]
            at_kink = ~(np.where(cheap_a, base_a, base_b) > 1.0)
            want = np.broadcast_to(kink_loss, at_kink.shape)[at_kink]
            np.testing.assert_array_equal(
                _bits(losses.transpose(0, 2, 1)[at_kink]),
                _bits(np.repeat(want[:, None], len(rhos), axis=1)))
            kink_cells += np.count_nonzero(at_kink) * len(rhos)
        nonnegative_cells = np.count_nonzero(betas >= 0.0) * len(rhos) * len(prices)
        assert kink_cells == nonnegative_cells if kind == "equal" else kink_cells > 0.2 * nonnegative_cells

    @given(st.floats(0.0, 1e300), st.floats(5e-324, 1e300), st.floats(5e-324, 1e300),
           st.sampled_from(["random", "equal", "below", "above"]))
    def test_no_nonnegative_beta_pair_has_both_bases_above_one(self, beta, p_a, p_b, kind):
        # w = 1 / (2 + beta) <= 1/2 and 1 - w >= 1/2 in floats, so odds <= 1 and each base
        # is at most its price ratio; both ratios above 1 would need p_b > p_a > p_b
        if kind == "equal":
            p_b = p_a
        elif kind != "random":
            p_b = float(np.nextafter(p_a, 0.0 if kind == "below" else math.inf))
        base_a, base_b = _bases(np.array([[p_a, p_b]]), [beta])
        assert not (base_a[0, 0] > 1.0 and base_b[0, 0] > 1.0)

    def test_pass_memory_is_the_workspace_and_one_chunk(self):
        # the pass keeps four block-sized arrays (the two model token arrays and the
        # two loss buffers) and the gathered arrays of one chunk of pairs; measured
        # 4.62 MB against 2.02 MB of workspace and 0.13 MB chunks (the dense kernel's
        # per-block temporaries peaked at 8.97 MB)
        ds = _sloppy_subject(515, DAParams(0.2, 0.9))
        betas, rhos = _parameter_grid(RecoveryConfig())
        prices, returns, tokens = _matrices(ds)
        block_bytes = max(rows.stop - rows.start for rows in
                          estimation._beta_blocks(betas, len(rhos) * 175)) * len(rhos) * 175 * 8
        chunk_bytes = (estimation._PAIR_CELLS // len(rhos)) * len(rhos) * 8
        tracemalloc.start()
        try:
            estimation._grid_optima(prices, returns, [tokens], LEARNING_SAMPLE_SIZES, betas, rhos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block_bytes + 24 * chunk_bytes


def _schedule(seed: int, n_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """A generated schedule's prices and returns, (N, 2) each."""
    returns = np.array([[r.r_a, r.r_b] for r in generate_budgets(seed, n_rounds).rounds])
    return 1.0 / (100.0 * returns), returns


def _negative_rows(prices: np.ndarray, returns: np.ndarray, betas: np.ndarray,
                   rhos: np.ndarray):
    """The grid's tokens of the beta < 0 rows and the enumeration's demand there, (B, R, N)
    and (B, R, N, 2), with the enumeration's branch codes and where the two differ."""
    negative = betas[betas < 0.0]
    shape = (len(negative), len(rhos), len(prices))
    model = _dense_block(estimation._block_kernel(prices, returns, rhos)(negative, len(prices)),
                         shape)
    demand, code, _, _ = optimal_demand_grid(prices, *flat_grid(negative, rhos))
    demand, code = demand.reshape(*shape, 2), code.reshape(shape)
    differ = np.zeros(shape, dtype=bool)
    for got, i in zip(model, (0, 1)):
        differ |= _bits(got) != _bits(demand[..., i] / returns[:, i])
    return model, demand, code, differ


class TestClosedFormOnNegativeBetaRows:
    """The grid's beta < 0 rows take the closed form of its beta >= 0 rows, not the
    enumeration: the interior on the cheaper asset's side."""

    @pytest.mark.parametrize("seed", [701, 702, 703])
    def test_enumeration_tokens_but_at_exact_corners(self, seed):
        # on the default grid, bit for bit the enumeration's tokens, except where the
        # enumeration holds exactly 0 of one asset and the closed form a tiny amount
        prices, returns = _schedule(seed, 175)
        betas, rhos = _parameter_grid(RecoveryConfig())
        _, demand, _, differ = _negative_rows(prices, returns, betas, rhos)
        corner = (demand == 0.0).any(axis=-1)
        assert differ.any() and not (differ & ~corner).any()

    @pytest.mark.parametrize("seed", [701, 702, 703])
    def test_saturated_cells(self, seed):
        # at beta near -1 and rho near 10 and above, every candidate's utility rounds to
        # about 1 / (rho - 1), and the enumeration keeps the kink or the dearer side's
        # interior; the closed form's bundle is the maximizer, as the utility's small part
        # -(w x_hi^(1 - rho) + (1 - w) x_lo^(1 - rho)) / (rho - 1) shows
        prices, returns = _schedule(seed, 175)
        betas, rhos = _parameter_grid(RecoveryConfig(beta_min=-0.99, rho_max=20.0,
                                                     rho_points=80))
        model, demand, code, differ = _negative_rows(prices, returns, betas, rhos)
        saturated = differ & ~(demand == 0.0).any(axis=-1)
        row, col, rnd = np.nonzero(saturated)
        assert 0 in row and rhos[col].min() > 8.0
        dearer_a = prices[rnd, 0] > prices[rnd, 1]
        code = code[saturated]
        assert np.all((code == KINK) | ((code == INTERIOR_A_HIGH) & dearer_a)
                      | ((code == INTERIOR_B_HIGH) & ~dearer_a))
        w = (1.0 / (2.0 + betas[row]))[:, None]
        rho = rhos[col][:, None]

        def small(x):
            hi, lo = x.max(axis=1), x.min(axis=1)
            return -(w[:, 0] * hi ** (1.0 - rho[:, 0])
                     + (1.0 - w[:, 0]) * lo ** (1.0 - rho[:, 0])) / (rho[:, 0] - 1.0)

        closed = np.column_stack([model[0][saturated] * returns[rnd, 0],
                                  model[1][saturated] * returns[rnd, 1]])
        assert np.all(small(closed) > small(demand[saturated]))

    def test_beta_one_ulp_above_minus_one(self):
        # 2 + beta rounds to 1, so the odds and k are inf: the whole budget on the cheaper
        # asset, the k -> inf limit, which optimal_demand_grid and the enumeration oracle
        # give too
        beta = float(np.nextafter(-1.0, 0.0))
        assert 2.0 + beta == 1.0
        prices = np.array([[1.0, 2.0], [2.0, 1.0], [0.01, 0.01], [0.004, 0.02]])
        returns = 1.0 / (100.0 * prices)
        rhos = np.array([0.05, 0.5, 1.0, 5.0])
        want = np.where(prices[:, :1] <= prices[:, 1:], [1.0, 0.0], [0.0, 1.0]) / prices
        model = _dense_block(estimation._block_kernel(prices, returns, rhos)(np.array([beta]), 4),
                             (1, len(rhos), 4))
        tokens_of = estimation._cell_tokens(prices, returns, np.array([beta]), rhos)
        for got, cells in zip(model, tokens_of(np.arange(len(rhos)), 4)):
            np.testing.assert_array_equal(_bits(got[0]), _bits(cells))
        for i in (0, 1):
            np.testing.assert_array_equal(model[i][0], np.broadcast_to(want[:, i] / returns[:, i],
                                                                       model[i][0].shape))
        for rho in rhos:
            for demand in (da_model.optimal_demand_grid(prices, np.array([beta]),
                                                        np.array([rho]))[0],
                           optimal_demand_grid(prices, np.array([beta]), np.array([rho]))[0][0]):
                np.testing.assert_array_equal(demand, want)


class TestPairedKernelSides:
    """One-round datasets whose bases are next to 1, each alone in a ``_PairedLoss`` call,
    must get the reference loss: the kink where the cheaper side's ``k`` is at most 1,
    else its interior."""

    def test_one_round_datasets_next_to_the_kink(self):
        rng = np.random.default_rng(517)
        betas = (-0.5, -1e-17, 0.0, GRID_ZERO_BETA, 0.5, 2.0)
        found = [prices for beta in betas for side in "ab"
                 if (prices := _base_one_ulp_above_one(beta, 0.01, side))]
        prices, returns, tokens = _priced(np.vstack([_kink_edge_prices(betas)[::3], found]), rng)
        rhos = np.array([0.05, 0.5, 1.0, 2.0, 5.0])
        flat_betas, flat_rhos = flat_grid(np.array(betas), rhos)
        for i in range(len(prices)):
            data = prices[i:i + 1], returns[i:i + 1], tokens[i:i + 1]
            want = loss_grid(*data, flat_betas, flat_rhos).reshape(len(betas), len(rhos))
            for beta, wanted in zip(betas, want):
                got = _PairedLoss([data] * len(rhos))(np.full(len(rhos), beta), rhos)
                np.testing.assert_array_equal(_bits(got), _bits(wanted))


class TestTracerName:
    """``estimation.minimize`` resolves on first use, for the benchmark tracer.

    The tracer wraps the name it finds in the module's dict, so the first
    lookup must leave scipy's function there.
    """

    def test_minimize_is_scipys_and_is_kept_in_the_module_dict(self, monkeypatch):
        monkeypatch.delitem(vars(estimation), "minimize", raising=False)
        assert "minimize" not in vars(estimation)
        assert estimation.minimize is minimize
        assert vars(estimation)["minimize"] is minimize

    def test_other_missing_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            estimation.no_such_name
        assert not hasattr(estimation, "maximize")
