from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from conftest import dataset_from_prices, random_rows, random_sloppy_dataset
from prefbench.da_model import DAParams
from prefbench.data import SubjectDataset
from prefbench.errors import ValidationError
from prefbench.rationality import (
    CceiResult,
    _garp,
    _minimax_value,
    _strong_components,
    ccei,
    fosd_violations,
    garp_holds,
)
from prefbench.simulation import generate_budgets, simulate_subject

BISECT_TOL = 1e-6


def squaring_closure(direct: np.ndarray) -> np.ndarray:
    """Oracle: square the reachability matrix until it stops growing."""
    closure = direct.copy()
    while True:
        step = closure | ((closure.astype(np.uint8) @ closure.astype(np.uint8)) > 0)
        if np.array_equal(step, closure):
            return step
        closure = step


def expenditures(dataset: SubjectDataset) -> tuple[np.ndarray, np.ndarray]:
    """Cross expenditures E[i, j] = p^i . x^j and own expenditures E[i, i]."""
    cross = dataset.price_matrix() @ dataset.demand_matrix().T
    return cross, np.diag(cross).copy()


def oracle_pairs(cross: np.ndarray, own: np.ndarray, e: float) -> list[tuple[int, int]]:
    """GARP(e) violations read off the oracle closure of the relation at e, row-major."""
    closure = squaring_closure(e * own[:, None] >= cross - 1e-12)
    strictly_cheaper = e * own[None, :] > cross.T + 1e-12  # [i, j]: x^i cheap at p^j
    return [(int(i), int(j)) for i, j in np.argwhere(closure & strictly_cheaper)]


def random_expenditures(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross/own ratios uniform on [0, spread): the e = 1 relation has density about
    1 / spread; some ratios are set to 1 and to 1 -+ the tolerance."""
    own = rng.uniform(0.5, 2.0, n)
    ratios = rng.uniform(0.0, float(rng.uniform(1.01, 30.0)), (n, n))
    edge = rng.uniform(size=(n, n))
    ratios[edge < 0.05] = 1.0
    ratios[(edge >= 0.05) & (edge < 0.1)] = 1.0 - 1e-12
    ratios[(edge >= 0.1) & (edge < 0.15)] = 1.0 + 1e-12
    cross = ratios * own[:, None]
    np.fill_diagonal(cross, own)
    return cross, own


def full_pass_value(cross: np.ndarray, own: np.ndarray) -> float:
    """Oracle: ``min(1, min_ij max(B_ij, c_ji))`` with the (max, min) pass over all n."""
    closure = (cross - 1e-12) / own[:, None]
    for k in range(len(own)):
        np.minimum(closure, np.maximum(closure[:, k, None], closure[None, k, :]), out=closure)
    cheaper_from = (cross.T + 1e-12) / own[None, :]  # [i, j] = c_ji
    return min(1.0, float(np.maximum(closure, cheaper_from).min()))


def full_pass_ccei(dataset: SubjectDataset) -> CceiResult:
    """Oracle: ``ccei`` before the pass ran on strongly connected components only."""
    holds_at_1, pairs_at_1 = garp_holds(dataset, 1.0)
    if holds_at_1:
        return CceiResult(1.0, tuple(pairs_at_1))
    cross = dataset.price_matrix() @ dataset.demand_matrix().T
    own = np.diag(cross).copy()
    value = full_pass_value(cross, own)
    candidates = candidate_ratios(dataset)
    return CceiResult(float(candidates[np.argmin(np.abs(candidates - value))]), tuple(pairs_at_1))


def candidate_ratios(dataset: SubjectDataset) -> np.ndarray:
    """Cross/own expenditure ratios in [0, 1] plus 0 and 1: where GARP(e) can change."""
    cross = dataset.price_matrix() @ dataset.demand_matrix().T
    ratios = (cross / np.diag(cross)[:, None])[~np.eye(dataset.n, dtype=bool)]
    return np.unique(np.concatenate([ratios[(ratios >= 0.0) & (ratios <= 1.0)], [0.0, 1.0]]))


def candidate_search_oracle(dataset: SubjectDataset) -> tuple[float, bool]:
    """Binary search for the largest candidate ratio at which GARP holds.

    GARP can fail AT the next candidate (a new weak edge completes a cycle)
    while holding on the open interval below it; the supremum is then that
    candidate itself, which one midpoint probe settles.  Returns the CCEI and
    whether the probe moved it up to the next candidate.
    """
    if garp_holds(dataset, 1.0)[0]:
        return 1.0, False
    candidates = candidate_ratios(dataset)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if garp_holds(dataset, float(candidates[mid]))[0]:
            lo = mid
        else:
            hi = mid - 1
    if lo + 1 < len(candidates):
        midpoint = 0.5 * (candidates[lo] + candidates[lo + 1])
        if garp_holds(dataset, float(midpoint))[0]:
            return float(candidates[lo + 1]), True
    return float(candidates[lo]), False


def bisection_oracle(dataset: SubjectDataset) -> float:
    """Bisection on GARP(e) over [0, 1], resolved to ``BISECT_TOL``."""
    if garp_holds(dataset, 1.0)[0]:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if garp_holds(dataset, mid)[0]:
            lo = mid
        else:
            hi = mid
    return lo


def _random_sloppy(rng):
    for _ in range(60):
        yield random_sloppy_dataset(rng, int(rng.integers(2, 41)))


def _duplicated_observations(rng):
    for _ in range(40):
        rows = random_rows(rng, int(rng.integers(2, 9)))
        rows += [rows[i] for i in rng.integers(0, len(rows), size=int(rng.integers(1, 6)))]
        yield dataset_from_prices([rows[i] for i in rng.permutation(len(rows))])


def _corner_bundles(rng):
    for _ in range(40):
        yield dataset_from_prices(random_rows(rng, int(rng.integers(2, 13)), corner_share=0.6))


def _close_ratio_pairs(rng):
    # r_01 = 1/b and r_10 = a differ by less than 1e-12 (either sign)
    for gap in (1e-13, -1e-13, 4e-13, -4e-13, 7e-13, -7e-13, 9.9e-13, -9.9e-13):
        b = float(rng.uniform(1.2, 3.0))
        yield dataset_from_prices([(1.0, 1.0, 1.0, 0.0), (1.0 / b + gap, b, 0.0, 1.0 / b)])


def _noisy_copy(dataset: SubjectDataset, rng, subject_id: str) -> SubjectDataset:
    """The dataset's budgets with its tokens plus N(0, 10) noise, rounded to cents."""
    t_a = [round(float(np.clip(rd.tokens.t_a + rng.normal(0.0, 10.0), 0.0, 100.0)), 2)
           for rd in dataset.rounds]
    return SubjectDataset.from_returns_tokens(
        subject_id, dataset.returns, [(t, round(100.0 - t, 2)) for t in t_a], dataset.round)


def _noisy_exact_subjects(rng):
    # exact choices plus N(0, 10) token noise, rounded to cents, 175 rounds
    for i in range(3):
        subject = simulate_subject(DAParams(0.3, 0.7), generate_budgets(600 + i, 175), f"n{i}")
        yield _noisy_copy(subject.dataset, rng, f"n{i}")


def _exact_175_round_subjects(rng):
    for i in range(3):
        params = DAParams(float(rng.uniform(-0.5, 1.0)), float(rng.uniform(0.2, 3.0)))
        yield simulate_subject(params, generate_budgets(800 + i, 175), f"x{i}").dataset


def _efficiency_levels(dataset: SubjectDataset, rng) -> list[float]:
    """e = 1, two candidate ratios (the CCEI and a random one) and the midpoints around each."""
    candidates = candidate_ratios(dataset)
    levels = [1.0]
    for at in (int(np.searchsorted(candidates, ccei(dataset).ccei)),
               int(rng.integers(len(candidates)))):
        levels.append(float(candidates[at]))
        if at > 0:
            levels.append(float(0.5 * (candidates[at - 1] + candidates[at])))
        if at + 1 < len(candidates):
            levels.append(float(0.5 * (candidates[at] + candidates[at + 1])))
    return levels


class TestClosureOracle:
    """GARP(e) read from strong components equals the pairs of the squaring closure."""

    @pytest.mark.parametrize(
        "family",
        [_random_sloppy, _duplicated_observations, _corner_bundles, _close_ratio_pairs,
         _exact_175_round_subjects],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_equals_squaring_closure_on_datasets(self, family):
        rng = np.random.default_rng(71)
        violated = 0
        for ds in family(rng):
            cross, own = expenditures(ds)
            for e in _efficiency_levels(ds, rng):
                pairs = oracle_pairs(cross, own, e)
                assert garp_holds(ds, e) == (not pairs, pairs)
                violated += bool(pairs)
            assert ccei(ds).violating_pairs_at_1 == tuple(oracle_pairs(cross, own, 1.0))
        assert violated > 0 or family is _exact_175_round_subjects

    def test_equals_squaring_closure_on_random_relations(self):
        # read at e = 1, at a random level and at 0
        rng = np.random.default_rng(73)
        violated = 0
        for n in [int(m) for m in rng.integers(3, 61, size=80)] + [175, 175]:
            cross, own = random_expenditures(rng, n)
            for e in (1.0, float(rng.uniform()), 0.0):
                pairs = oracle_pairs(cross, own, e)
                assert _garp(cross, own, e)[1] == pairs
                violated += bool(pairs)
        assert violated > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_squaring_closure_on_every_small_relation(self, n):
        # every off-diagonal cross/own ratio in {1/2, 1, 2}: at e = 1 an edge
        # that is strict, weak only, or absent
        off_diagonal = ~np.eye(n, dtype=bool)
        own = np.ones(n)
        for values in np.ndindex(*(3,) * (n * n - n)):
            cross = np.ones((n, n))
            cross[off_diagonal] = np.array([0.5, 1.0, 2.0])[list(values)]
            for e in (1.0, 0.75, 0.5, 0.0):
                assert _garp(cross, own, e)[1] == oracle_pairs(cross, own, e)


class TestComponentPassOracle:
    """``ccei`` runs the (max, min) pass on the e = 1 relation's strongly connected
    components only; it must give the full pass's result, bit for bit."""

    @pytest.mark.parametrize(
        "family",
        [_random_sloppy, _duplicated_observations, _corner_bundles, _close_ratio_pairs,
         _noisy_exact_subjects],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_equals_the_full_pass_on_datasets(self, family):
        rng = np.random.default_rng(83)
        imperfect = 0
        for ds in family(rng):
            result = ccei(ds)
            assert result == full_pass_ccei(ds)
            imperfect += result.ccei < 1.0
        assert imperfect > 0

    def test_pinned_longer_cycle_case(self):
        ds = random_sloppy_dataset(np.random.default_rng(3884), 6)
        assert ccei(ds) == full_pass_ccei(ds)

    def test_sloppy_175_round_subjects(self):
        # several components per subject, the largest 10-73 nodes
        rng = np.random.default_rng(89)
        for i in range(6):
            params = DAParams(float(rng.uniform(-0.5, 1.0)), float(rng.uniform(0.2, 3.0)))
            exact = simulate_subject(params, generate_budgets(900 + i, 175), f"s{i}").dataset
            ds = _noisy_copy(exact, rng, f"s{i}")
            cross = ds.price_matrix() @ ds.demand_matrix().T
            own = np.diag(cross)
            components = connected_components(own[:, None] >= cross - 1e-12, connection="strong")[0]
            assert 1 < components < ds.n
            result = ccei(ds)
            assert result == full_pass_ccei(ds)
            assert result.ccei < 1.0

    def test_random_relations(self):
        rng = np.random.default_rng(97)
        below = 0
        for n in [int(m) for m in rng.integers(1, 61, size=150)] + [175, 175]:
            cross, own = random_expenditures(rng, n)
            labels = connected_components(own[:, None] >= cross - 1e-12, connection="strong")[1]
            value = _minimax_value(cross, own, labels)
            want = full_pass_value(cross, own)
            assert np.float64(value).view(np.int64) == np.float64(want).view(np.int64)
            below += value < 1.0
        assert below > 0


def assert_scipy_partition(relation: np.ndarray) -> None:
    """``_strong_components`` labels the components of scipy's strong
    ``connected_components``, numbered 0..k-1 in any order."""
    count, want = connected_components(relation, connection="strong")
    got = _strong_components(relation)
    assert got.shape == want.shape and sorted(set(got.tolist())) == list(range(count))
    assert np.array_equal(got[:, None] == got[None, :], want[:, None] == want[None, :])


class TestStrongComponentsOracle:
    """The bitset Kosaraju-Sharir pass must find scipy's strong components."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 175])
    def test_random_relations(self, n):
        # sizes on each side of the packed rows' byte and word boundaries; densities
        # from a few nontrivial components to one, with and without the diagonal
        rng = np.random.default_rng(101 + n)
        for density in (0.5 / n, 1.0 / n, 2.0 / n, 0.1, 0.5):
            for _ in range(4):
                relation = rng.uniform(size=(n, n)) < density
                relation[np.diag_indices(n)] = rng.uniform() < 0.5
                assert_scipy_partition(relation)

    @pytest.mark.parametrize("n", [1, 9, 64, 175])
    @pytest.mark.parametrize("kind", ["empty", "complete", "diagonal"])
    def test_fixed_relations(self, n, kind):
        relation = {"empty": np.zeros((n, n), dtype=bool), "complete": np.ones((n, n), dtype=bool),
                    "diagonal": np.eye(n, dtype=bool)}[kind]
        assert_scipy_partition(relation)

    @pytest.mark.parametrize("step", [1, -1])
    def test_175_node_path_and_cycle(self, step):
        # a 175-deep search, no recursion: a path has 175 components, a cycle one
        path = np.zeros((175, 175), dtype=bool)
        nodes = np.arange(175)[::step]
        path[nodes[:-1], nodes[1:]] = True
        assert_scipy_partition(path)
        assert len(set(_strong_components(path).tolist())) == 175
        cycle = path.copy()
        cycle[nodes[-1], nodes[0]] = True
        assert_scipy_partition(cycle)
        assert len(set(_strong_components(cycle).tolist())) == 1


class TestDirectRelation:
    """The direct relation, observed through the components and pairs GARP reads."""

    def test_identical_observations_all_related(self):
        ds = dataset_from_prices([(0.01, 0.01, 50.0, 50.0), (0.01, 0.01, 50.0, 50.0)])
        labels, pairs = _garp(*expenditures(ds), 1.0)
        assert labels[0] == labels[1] and pairs == []

    def test_crossing_pair_related_both_ways(self, crossing_dataset):
        # both edges exist from e = 0.5 on, and each bundle is strictly cheaper
        # at the other's prices from just above 0.5
        assert garp_holds(crossing_dataset, 0.6) == (False, [(0, 1), (1, 0)])

    def test_deflated_budgets_drop_the_edges(self, crossing_dataset):
        labels, pairs = _garp(*expenditures(crossing_dataset), 0.4)
        assert labels[0] != labels[1]
        assert garp_holds(crossing_dataset, 0.4) == (True, [])

    def test_diagonal_follows_the_inequality(self, crossing_dataset):
        # x^i is never strictly cheaper than itself, so no (i, i) pair at any e,
        # and the oracle's diagonal (an edge only at e = 1) gives the same pairs
        cross, own = expenditures(crossing_dataset)
        for e in (1.0, 0.9, 0.5, 0.0):
            _, pairs = garp_holds(crossing_dataset, e)
            assert pairs == oracle_pairs(cross, own, e)
            assert all(i != j for i, j in pairs)

    def test_efficiency_domain(self, crossing_dataset):
        for e in (1.5, -0.1):
            with pytest.raises(ValidationError):
                garp_holds(crossing_dataset, e)


class TestGarp:
    def test_single_observation_always_consistent(self):
        ds = dataset_from_prices([(0.02, 0.02, 30.0, 20.0)])
        holds, violations = garp_holds(ds, 1.0)
        assert holds and violations == []

    def test_crossing_violates_at_full_efficiency(self, crossing_dataset):
        holds, violations = garp_holds(crossing_dataset, 1.0)
        assert not holds
        assert set(violations) == {(0, 1), (1, 0)}

    def test_crossing_consistent_at_half_efficiency(self, crossing_dataset):
        holds, violations = garp_holds(crossing_dataset, 0.5)
        assert holds and violations == []

    def test_monotone_in_efficiency(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            ds = random_sloppy_dataset(rng, 6)
            grid = np.linspace(0.0, 1.0, 21)
            results = [garp_holds(ds, float(e))[0] for e in grid]
            # once it fails it must keep failing at larger e
            assert results == sorted(results, reverse=True)


class TestCcei:
    def test_simulated_maximizers_score_one(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            params = DAParams(float(rng.uniform(-0.5, 1.0)), float(rng.uniform(0.2, 3.0)))
            subject = simulate_subject(params, generate_budgets(100 + i, 25), f"m{i}")
            assert ccei(subject.dataset).ccei == 1.0

    def test_crossing_dataset_exact_value(self, crossing_dataset):
        result = ccei(crossing_dataset)
        assert result.ccei == 0.5
        assert set(result.violating_pairs_at_1) == {(0, 1), (1, 0)}

    def test_crossing_dataset_against_grid_scan_oracle(self, crossing_dataset):
        grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
        largest = max(float(e) for e in grid if garp_holds(crossing_dataset, float(e))[0])
        assert abs(ccei(crossing_dataset).ccei - largest) <= 1e-4

    def test_value_one_iff_no_violations(self):
        rng = np.random.default_rng(23)
        seen_imperfect = False
        for _ in range(30):
            ds = random_sloppy_dataset(rng, 5)
            result = ccei(ds)
            assert (result.ccei == 1.0) == (len(result.violating_pairs_at_1) == 0)
            seen_imperfect |= result.ccei < 1.0
        assert seen_imperfect  # sanity: random behavior does violate sometimes

    def test_binary_search_agrees_with_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            ds = random_sloppy_dataset(rng, int(rng.integers(2, 7)))
            assert abs(ccei(ds).ccei - bisection_oracle(ds)) <= BISECT_TOL

    @pytest.mark.parametrize(
        "family",
        [_random_sloppy, _duplicated_observations, _corner_bundles, _close_ratio_pairs,
         _noisy_exact_subjects],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_equals_candidate_search_oracle(self, family):
        rng = np.random.default_rng(61)
        imperfect = 0
        for ds in family(rng):
            value = ccei(ds).ccei
            assert value == candidate_search_oracle(ds)[0]
            assert value in candidate_ratios(ds)
            imperfect += value < 1.0
        assert imperfect > 0

    def test_ccei_where_garp_fails_at_the_candidate_itself(self):
        # r_01 = 0.65 > r_10 = 0.5: at e = 0.65 the edge 0 -> 1 appears and
        # closes a violation at once, while GARP holds everywhere below
        ds = dataset_from_prices([(1.0, 1.0, 1.0, 0.0), (0.5, 2.0, 0.2, 0.45)])
        assert not garp_holds(ds, 0.65)[0]
        assert garp_holds(ds, 0.65 - 1e-9)[0]
        value, probed = candidate_search_oracle(ds)
        assert probed
        assert ccei(ds).ccei == value == 0.65

    def test_a_longer_cycle_sets_the_value(self):
        # no two observations alone violate GARP below about 0.876: the pairwise
        # value min_ij max(a_ij, c_ji), with no path closure, is 0.0129 above the
        # CCEI, which a path through a third observation sets
        ds = random_sloppy_dataset(np.random.default_rng(3884), 6)
        cross = ds.price_matrix() @ ds.demand_matrix().T
        own = np.diag(cross)
        appears = (cross - 1e-12) / own[:, None]  # a_ij
        cheaper = (cross.T + 1e-12) / own[None, :]  # [i, j] = c_ji
        pairwise = float(np.maximum(appears, cheaper).min())
        value = ccei(ds).ccei
        assert value == 0.8628740061766474
        assert value == candidate_search_oracle(ds)[0]
        assert pairwise > value + 0.01

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        rows = [(0.02, 0.01, 20.0, 60.0), (0.01, 0.03, 40.0, 20.0), (0.025, 0.02, 30.0, 12.5)]
        base = ccei(dataset_from_prices(rows)).ccei
        for _ in range(5):
            c = float(rng.uniform(0.2, 5.0))
            scaled = [(p_a * c, p_b * c, x_a / c, x_b / c) for p_a, p_b, x_a, x_b in rows]
            assert ccei(dataset_from_prices(scaled)).ccei == base


class TestFosd:
    def test_dominated_bundle_flagged(self):
        ds = dataset_from_prices([(0.0237, 0.0125, 33.3, 17.0)])
        count, flags = fosd_violations(ds)
        assert count == 1 and flags == (True,)

    def test_equal_prices_never_flag(self):
        ds = dataset_from_prices([(0.01, 0.01, 99.0, 1.0), (0.02, 0.02, 10.0, 40.0)])
        assert fosd_violations(ds) == (0, (False, False))

    def test_cheap_asset_held_in_larger_quantity_ok(self):
        ds = dataset_from_prices([(0.01, 0.02, 60.0, 20.0)])
        assert fosd_violations(ds) == (0, (False,))

    def test_disappointment_averse_subjects_never_violate(self):
        rng = np.random.default_rng(9)
        for i in range(10):
            params = DAParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.2, 3.0)))
            subject = simulate_subject(params, generate_budgets(200 + i, 25), f"d{i}")
            assert fosd_violations(subject.dataset)[0] == 0

    def test_flags_match_swap_test_for_elation_seekers(self):
        # oracle: a round violates iff swapping holdings makes the bundle strictly
        # cheaper.  Exact optimizers of the state-symmetric objective never trip
        # it (the swapped bundle would dominate), so agreement is a zero-zero match.
        rng = np.random.default_rng(13)
        for i in range(10):
            params = DAParams(float(rng.uniform(-0.8, -0.1)), float(rng.uniform(0.2, 2.0)))
            subject = simulate_subject(params, generate_budgets(300 + i, 25), f"e{i}")
            _, flags = fosd_violations(subject.dataset)
            for rd, flag in zip(subject.dataset.rounds, flags):
                swap_cost = rd.prices.p_a * rd.demand[1] + rd.prices.p_b * rd.demand[0]
                own_cost = rd.prices.p_a * rd.demand[0] + rd.prices.p_b * rd.demand[1]
                assert flag == (swap_cost < own_cost - 1e-9)

    def test_flags_match_swap_test_on_noisy_behavior(self):
        rng = np.random.default_rng(29)
        flagged_any = False
        for _ in range(20):
            ds = random_sloppy_dataset(rng, 8)
            _, flags = fosd_violations(ds)
            for rd, flag in zip(ds.rounds, flags):
                swap_cost = rd.prices.p_a * rd.demand[1] + rd.prices.p_b * rd.demand[0]
                own_cost = rd.prices.p_a * rd.demand[0] + rd.prices.p_b * rd.demand[1]
                assert flag == (swap_cost < own_cost - 1e-9)
            flagged_any |= any(flags)
        assert flagged_any  # random behavior does violate dominance sometimes
