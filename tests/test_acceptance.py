"""Acceptance gate: one test per criterion, each reporting a summary line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion PASS lines
are printed in the terminal summary section after the run.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

import conftest
from conftest import dataset_from_prices
from prefbench.da_model import DAParams
from prefbench.data import ReturnPair, SubjectDataset
from prefbench.estimation import recover_params
from prefbench.eu_deviation import deut_index
from prefbench.harness.backends import MockDecisionBackend
from prefbench.harness.parsing import parse_allocations
from prefbench.harness.prompts import Treatment, TreatmentKind, build_prompt
from prefbench.harness.sessions import (
    run_decision_session,
    run_recommendation_session,
    transcript_to_dataset,
)
from prefbench.rationality import ccei, fosd_violations
from prefbench.simulation import (
    evaluation_schedule,
    generate_budgets,
    sample_population,
    simulate_subject,
)
from prefbench.stats import regress_alignment, summarize, welch_t_test
from prefbench.workflows import learning_curve_direct
from test_eu_deviation import oracle_deut
from test_harness_prompts import golden_bytes, mini_schedule
from test_stats import hand_percentile


def record(line: str) -> None:
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_simulated_rationality():
    """CCEI is exactly 1.0 for every synthetic utility maximizer."""
    start = time.perf_counter()
    population = sample_population(seed=2024, n=100)
    for i, (sid, params) in enumerate(population):
        subject = simulate_subject(params, generate_budgets(10_000 + i, 175), sid)
        result = ccei(subject.dataset)
        assert result.ccei == 1.0, f"{sid}: ccei={result.ccei}"
        assert result.violating_pairs_at_1 == ()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record(f"PASS criterion 1: CCEI = 1.0 for 100/100 simulated subjects ({elapsed:.1f}s < 5s)")


def test_criterion_2_eu_consistency():
    """D-EUT vanishes for expected-utility data; matches the cycle-enumeration
    oracle for disappointment-averse data."""
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    for i in range(200):
        params = DAParams(0.0, float(rng.uniform(0.2, 3.0)))
        subject = simulate_subject(params, generate_budgets(20_000 + i, 25), f"eu{i}")
        result = deut_index(subject.dataset)
        assert abs(result.deut) <= 1e-9, f"eu{i}: deut={result.deut}"

    positive = 0
    for i in range(50):
        params = DAParams(0.5, float(rng.uniform(0.3, 2.0)))
        subject = simulate_subject(params, generate_budgets(30_000 + i, 25), f"da{i}")
        full = deut_index(subject.dataset)
        positive += full.deut > 1e-9
        for lo in (0, 9, 19):  # three distinct size-6 windows per subject
            ds = subject.dataset
            sub = SubjectDataset(f"da{i}w{lo}", *(column[lo:lo + 6] for column in (
                ds.round, ds.returns, ds.tokens, ds.prices, ds.demand, ds.rescaled)))
            got = deut_index(sub).deut
            want = oracle_deut(sub)
            assert got == pytest.approx(want, abs=1e-9), f"da{i}[{lo}]: {got} vs {want}"
    assert positive > 25  # beta=0.5 behavior genuinely deviates from EU
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    record(
        "PASS criterion 2: D-EUT = 0 for 200/200 EU subjects; exact oracle agreement on "
        f"size-6 subsamples of 50 DA subjects ({elapsed:.1f}s < 30s)"
    )


def test_criterion_3_round_trip_recovery():
    """Noiseless 25-round datasets recover (beta, rho) within +/-0.05."""
    start = time.perf_counter()
    worst = 0.0
    for i, beta0 in enumerate((-0.2, 0.0, 0.1, 0.3, 0.5)):
        for j, rho0 in enumerate((0.3, 0.6, 1.0, 1.5)):
            schedule = generate_budgets(40_000 + 10 * i + j, 25)
            subject = simulate_subject(DAParams(beta0, rho0), schedule, "rt")
            fit = recover_params(subject.dataset)
            err = max(abs(fit.params.beta - beta0), abs(fit.params.rho - rho0))
            worst = max(worst, err)
            assert abs(fit.params.beta - beta0) <= 0.05, f"beta at ({beta0},{rho0})"
            assert abs(fit.params.rho - rho0) <= 0.05, f"rho at ({beta0},{rho0})"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    record(
        f"PASS criterion 3: 20/20 round trips within 0.05 (worst gap {worst:.2e}, "
        f"{elapsed:.1f}s < 120s)"
    )


def test_criterion_4_learning_curve_shape():
    """Recovered-on-true regressions sharpen with sample size on the mock pipeline."""
    start = time.perf_counter()
    population = sample_population(seed=77, n=100)
    rows, _ = learning_curve_direct(population, provision_seed=50_000)
    gamma_rho = {
        row.sample_size: row.regression.gamma for row in rows if row.parameter == "rho"
    }
    assert gamma_rho[25] > gamma_rho[1]
    assert gamma_rho[175] >= 0.9

    truth_rho = [params.rho for _, params in population]
    control = regress_alignment(truth_rho, truth_rho)
    assert abs(control.gamma - 1.0) <= 1e-6
    assert abs(control.alpha) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0
    record(
        "PASS criterion 4: gamma_rho rises "
        f"{gamma_rho[1]:.3f} (s=1) -> {gamma_rho[25]:.3f} (s=25) -> {gamma_rho[175]:.3f} "
        f"(s=175, >= 0.9); perfect-information control gamma = 1 ({elapsed:.1f}s < 15s)"
    )


def test_criterion_5_index_oracles(crossing_dataset):
    """Hand-computed CCEI value and the dominated-bundle FOSD flag."""
    result = ccei(crossing_dataset)
    assert result.ccei == 0.5
    dominated = dataset_from_prices([(0.0237, 0.0125, 33.3, 17.0)])
    count, flags = fosd_violations(dominated)
    assert count == 1 and flags == (True,)
    record("PASS criterion 5: crossing dataset CCEI = 0.5 exactly; dominated bundle flagged")


def test_criterion_6_harness_golden():
    """Prompt bytes, parser fixtures, and the mock end-to-end pipeline."""
    start = time.perf_counter()
    system, assistant, user = build_prompt(
        Treatment(TreatmentKind.DECISION), ReturnPair(0.5, 0.9)
    )
    assert system.content.encode() == golden_bytes("decision_system.txt")
    assert assistant.content.encode() == golden_bytes("decision_assistant.txt")
    assert user.content.encode() == golden_bytes("decision_user_example.txt")
    rec_msgs = build_prompt(Treatment(TreatmentKind.RECOMMENDATION), mini_schedule())
    assert rec_msgs[0].content.encode() == golden_bytes("recommendation_system.txt")
    assert rec_msgs[2].content.encode() == golden_bytes("recommendation_user_example.txt")

    (single,) = parse_allocations(
        "I will invest 30 points to asset A and 70 points to asset B", mode="single"
    )
    assert (single.t_a, single.t_b) == (30.0, 70.0)
    multi_text = " ".join(
        f"In round {i}, I recommend investing 50 points in asset A and 50 points in asset B."
        for i in range(1, 26)
    )
    multi = parse_allocations(multi_text, mode="multi", n_rounds=25)
    assert len(multi) == 25 and all(a.ok for a in multi)

    schedule = evaluation_schedule()
    for params in (DAParams(0.1, 0.6), DAParams(-0.05, 0.9)):
        backend = MockDecisionBackend(params)
        t_dec = run_decision_session(backend, schedule, "acc-d")
        assert ccei(transcript_to_dataset(t_dec, schedule, "acc-d")).ccei == 1.0
        t_rec = run_recommendation_session(
            backend, Treatment(TreatmentKind.RECOMMENDATION), schedule, "acc-r"
        )
        assert ccei(transcript_to_dataset(t_rec, schedule, "acc-r")).ccei == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record(
        f"PASS criterion 6: golden prompt bytes, parser fixtures, mock end-to-end CCEI = 1 "
        f"({elapsed:.1f}s < 5s)"
    )


def test_criterion_7_statistics_oracles():
    """Regression, Welch, and summary agree with independent computations."""
    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    y = [1.0, 2.2, 2.8, 4.1, 4.9, 6.2]
    n, sx, sy = 6, sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    gamma_hand = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    alpha_hand = (sy - gamma_hand * sx) / n
    reg = regress_alignment(x, y)
    assert reg.gamma == pytest.approx(gamma_hand, abs=1e-10)
    assert reg.alpha == pytest.approx(alpha_hand, abs=1e-10)

    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 4.0, 6.0, 8.0, 10.0]
    var_a = sum((v - 2.5) ** 2 for v in a) / 3
    var_b = sum((v - 6.0) ** 2 for v in b) / 4
    se2 = var_a / 4 + var_b / 5
    t_hand = (2.5 - 6.0) / math.sqrt(se2)
    dof_hand = se2 ** 2 / ((var_a / 4) ** 2 / 3 + (var_b / 5) ** 2 / 4)
    t, dof, _ = welch_t_test(a, b)
    assert t == pytest.approx(t_hand, abs=1e-9)
    assert dof == pytest.approx(dof_hand, abs=1e-9)

    rng = np.random.default_rng(7)
    values = rng.normal(size=31).tolist()
    row = summarize(values)
    ordered = sorted(values)
    for q, got in [(0.05, row.p5), (0.25, row.p25), (0.50, row.p50),
                   (0.75, row.p75), (0.95, row.p95)]:
        assert got == pytest.approx(hand_percentile(ordered, q), abs=1e-12)
    record("PASS criterion 7: statistics match hand-computed oracles at stated tolerances")


@pytest.mark.skipif(
    not (os.environ.get("CHAT_API_KEY") and os.environ.get("PREFBENCH_LIVE")
         and os.environ.get("PREFBENCH_ENDPOINT") and os.environ.get("PREFBENCH_MODEL")),
    reason="live smoke test needs CHAT_API_KEY, PREFBENCH_LIVE=1, PREFBENCH_ENDPOINT, "
           "and PREFBENCH_MODEL",
)
def test_criterion_8_live_model_smoke():
    """Optional non-CI smoke run against a configured chat endpoint."""
    from prefbench.harness.backends import BackendConfig, HttpChatBackend

    config = BackendConfig(
        kind="http",
        endpoint=os.environ["PREFBENCH_ENDPOINT"],
        model=os.environ["PREFBENCH_MODEL"],
    )
    backend = HttpChatBackend(config)
    schedule = evaluation_schedule()
    t_dec = run_decision_session(backend, schedule, "live-d")
    assert sum(a.ok for a in t_dec.parsed_rounds()) >= 20
    sample = simulate_subject(DAParams(0.1, 0.6), schedule, "live-sample").dataset
    treatment = Treatment(
        TreatmentKind.PERSONALIZED_RECOMMENDATION, sample_data=sample, sample_size=25
    )
    t_rec = run_recommendation_session(backend, treatment, schedule, "live-pr")
    assert sum(a.ok for a in t_rec.parsed_rounds()) >= 20
    record("PASS criterion 8: live smoke sessions parsed >= 20/25 rounds")
