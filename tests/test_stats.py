from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.stats
from conftest import run_python

from prefbench.errors import ValidationError
from prefbench.stats import (
    regress_alignment,
    student_t_two_sided_p,
    summarize,
    welch_t_test,
)


def hand_percentile(sorted_values: list[float], q: float) -> float:
    """Independent oracle: inclusive linear interpolation between order statistics."""
    n = len(sorted_values)
    position = q * (n - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    frac = position - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class TestSummarize:
    def test_constant_sample(self):
        row = summarize([1.0, 1.0, 1.0])
        assert (row.p5, row.p25, row.p50, row.p75, row.p95) == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert row.mean == 1.0 and row.std == 0.0 and row.n == 3

    def test_symmetric_grid(self):
        row = summarize(list(range(101)))
        assert row.p50 == 50.0 and row.mean == 50.0

    def test_against_hand_rolled_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            values = rng.normal(size=int(rng.integers(2, 40))).tolist()
            row = summarize(values)
            ordered = sorted(values)
            for q, got in [(0.05, row.p5), (0.25, row.p25), (0.50, row.p50),
                           (0.75, row.p75), (0.95, row.p95)]:
                assert got == pytest.approx(hand_percentile(ordered, q), abs=1e-12)
            assert row.mean == pytest.approx(sum(values) / len(values), abs=1e-12)
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            assert row.std == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_order_statistic_probe_points(self):
        # at q = k/(n-1) the percentile equals the k-th order statistic exactly
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        ordered = sorted(values)
        arr = np.asarray(values)
        for k in range(5):
            q = k / 4
            assert float(np.quantile(arr, q, method="linear")) == ordered[k]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])


class TestRegression:
    def test_perfect_alignment(self):
        theta = [0.3, 0.5, 0.9, 1.4, 2.0]
        result = regress_alignment(theta, theta)
        assert result.gamma == pytest.approx(1.0, abs=1e-12)
        assert result.alpha == pytest.approx(0.0, abs=1e-12)
        assert result.se_gamma == pytest.approx(0.0, abs=1e-12)

    def test_constant_estimates_have_zero_slope(self):
        result = regress_alignment([0.3, 0.5, 0.9, 1.4], [0.7, 0.7, 0.7, 0.7])
        assert result.gamma == pytest.approx(0.0, abs=1e-12)
        assert result.alpha == pytest.approx(0.7, abs=1e-12)

    def test_six_point_fixture_against_normal_equations(self):
        x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        y = [1.0, 2.2, 2.8, 4.1, 4.9, 6.2]
        n = 6
        sx = sum(x)
        sy = sum(y)
        sxx = sum(v * v for v in x)
        sxy = sum(a * b for a, b in zip(x, y))
        denominator = n * sxx - sx * sx
        gamma_hand = (n * sxy - sx * sy) / denominator
        alpha_hand = (sy - gamma_hand * sx) / n
        result = regress_alignment(x, y)
        assert result.gamma == pytest.approx(gamma_hand, abs=1e-10)
        assert result.alpha == pytest.approx(alpha_hand, abs=1e-10)

        # hand-computed HC1 sandwich with the explicit 2x2 inverse
        residuals = [b - alpha_hand - gamma_hand * a for a, b in zip(x, y)]
        det = n * sxx - sx * sx
        inv = [[sxx / det, -sx / det], [-sx / det, n / det]]  # (X'X)^-1
        m00 = sum(e * e for e in residuals)
        m01 = sum(e * e * a for e, a in zip(residuals, x))
        m11 = sum(e * e * a * a for e, a in zip(residuals, x))
        meat = [[m00, m01], [m01, m11]]

        def matmul(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]

        cov = matmul(matmul(inv, meat), inv)
        scale = n / (n - 2)
        assert result.se_alpha == pytest.approx(math.sqrt(cov[0][0] * scale), abs=1e-10)
        assert result.se_gamma == pytest.approx(math.sqrt(cov[1][1] * scale), abs=1e-10)

    def test_equivariance_under_scaling(self):
        rng = np.random.default_rng(67)
        x = rng.uniform(0.2, 2.0, 30)
        y = 0.4 + 0.7 * x + rng.normal(0, 0.1, 30)
        base = regress_alignment(x, y)
        for c in (0.5, 2.0, 10.0):
            scaled = regress_alignment(x * c, y)
            assert scaled.gamma == pytest.approx(base.gamma / c, rel=1e-9)
            assert scaled.alpha == pytest.approx(base.alpha, rel=1e-9)

    def test_hc1_matches_classical_under_homoskedasticity_in_expectation(self):
        # HC1 is exactly unbiased for the classical variance when every
        # observation has the same leverage (n/(n-2) cancels the uniform
        # (1 - 2/n) residual shrinkage), so the mean difference over many
        # replications must vanish within sampling noise.  A balanced
        # two-group design keeps the leverages equal.
        rng = np.random.default_rng(101)
        reps, n = 10_000, 24
        x = np.repeat([0.0, 1.0], n // 2)
        design = np.column_stack([np.ones(n), x])
        bread = np.linalg.inv(design.T @ design)
        errors = rng.normal(0.0, 1.0, size=(reps, n))
        y = 1.0 + 2.0 * x + errors
        hc1_vars, classical_vars = [], []
        for rep in range(reps):
            coef = bread @ (design.T @ y[rep])
            resid = y[rep] - design @ coef
            meat = design.T @ (design * (resid * resid)[:, None])
            hc1_vars.append((bread @ meat @ bread)[1, 1] * n / (n - 2))
            classical_vars.append(float(resid @ resid) / (n - 2) * bread[1, 1])
        diffs = np.asarray(hc1_vars) - np.asarray(classical_vars)
        assert abs(diffs.mean()) <= 3.0 * diffs.std(ddof=1) / math.sqrt(reps) + 1e-12

    def test_singular_design_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            regress_alignment([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError):
            regress_alignment([1.0, 2.0], [1.0, 2.0])


class TestWelch:
    def test_identical_samples(self):
        t, dof, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == 1.0

    def test_zero_variance_equal_means(self):
        t, dof, p = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert t == 0.0 and p == 1.0

    def test_hand_computed_fixture(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 4.0, 6.0, 8.0, 10.0]
        mean_a, mean_b = 2.5, 6.0
        var_a = sum((v - mean_a) ** 2 for v in a) / 3  # 5/3
        var_b = sum((v - mean_b) ** 2 for v in b) / 4  # 10
        se2 = var_a / 4 + var_b / 5
        t_hand = (mean_a - mean_b) / math.sqrt(se2)
        dof_hand = se2 ** 2 / ((var_a / 4) ** 2 / 3 + (var_b / 5) ** 2 / 4)
        t, dof, p = welch_t_test(a, b)
        assert t == pytest.approx(t_hand, abs=1e-9)
        assert dof == pytest.approx(dof_hand, abs=1e-9)
        assert p == pytest.approx(2.0 * scipy.stats.t.sf(abs(t_hand), dof_hand), abs=1e-9)

    def test_large_fixture_against_scipy(self):
        rng = np.random.default_rng(103)
        a = rng.normal(0.0, 1.0, 1000)
        b = rng.normal(1.0, 1.0, 1000)
        t, dof, p = welch_t_test(a, b)
        assert p < 0.001
        reference = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(float(reference.statistic), abs=1e-9)
        assert p == pytest.approx(float(reference.pvalue), abs=1e-8)

    def test_t_cdf_accuracy_sweep(self):
        for dof in (1.0, 2.5, 7.0, 30.0, 240.5):
            for t in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
                mine = student_t_two_sided_p(t, dof)
                reference = 2.0 * float(scipy.stats.t.sf(t, dof))
                assert mine == pytest.approx(reference, abs=1e-10)

    def test_minimum_sizes(self):
        with pytest.raises(ValidationError):
            welch_t_test([1.0], [1.0, 2.0])


# Each module is imported in turn in one fresh interpreter, which prints
# ``sys.modules`` after each: ``prefbench.cli`` imports ``prefbench`` first, so
# the second snapshot is what a fresh ``import prefbench.cli`` loads.
_IMPORTED = ("prefbench", "prefbench.cli")
_SNAPSHOTS = """
import importlib, json, sys
for module in sys.argv[1:]:
    importlib.import_module(module)
    print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def modules_after_import() -> dict[str, frozenset[str]]:
    """Each of ``_IMPORTED`` -> the modules a fresh interpreter holds after importing it."""
    lines = run_python(_SNAPSHOTS, *_IMPORTED).splitlines()
    return {module: frozenset(json.loads(line)) for module, line in zip(_IMPORTED, lines)}


@pytest.fixture(scope="module")
def loaded_after_import(modules_after_import):
    """Whether ``import module`` in a fresh interpreter loads ``probe``."""
    return lambda module, probe: probe in modules_after_import[module]


def test_import_does_not_load_scipy_stats(loaded_after_import):
    # scipy.stats would make `import prefbench` about half again as slow
    assert not loaded_after_import("prefbench", "scipy.stats")


def test_cli_import_does_not_load_csgraph(loaded_after_import):
    # scipy.sparse.csgraph adds about 1.3 MB to the peak RSS of every command;
    # only scoring imports it, inside rationality._garp
    assert not loaded_after_import("prefbench.cli", "scipy.sparse.csgraph")


def test_cli_import_loads_no_scipy_and_no_requests(modules_after_import):
    # a module-level scipy.optimize costs about 0.6 s of every command's start;
    # scipy and requests are imported where they run (test_cli.TestImportFootprint)
    loaded = modules_after_import["prefbench.cli"]
    assert not {m for m in loaded if m.partition(".")[0] in ("scipy", "requests")}
