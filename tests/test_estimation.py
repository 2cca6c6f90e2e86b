from __future__ import annotations

import numpy as np
import pytest

from prefbench.da_model import DAParams
from prefbench.data import Allocation, ChoiceRound, Provenance, ReturnPair, SubjectDataset, dataset_prefix
from prefbench.estimation import RecoveryConfig, fit_loss, recover_params
from prefbench.simulation import BudgetSchedule, generate_budgets, simulate_subject


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
