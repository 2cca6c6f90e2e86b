from __future__ import annotations

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from conftest import dataset_from_prices, random_rows, random_sloppy_dataset
from prefbench import eu_deviation
from prefbench.da_model import DAParams
from prefbench.data import SubjectDataset
from prefbench.errors import DegenerateDataError
from prefbench.eu_deviation import (
    CYCLE_TOL,
    STRICT_ZERO_SENTINEL,
    _eu_matrices,
    _howard_min_mean_cycle,
    _karp_min_mean_cycle,
    build_eu_graph,
    deut_index,
)
from prefbench.simulation import generate_budgets, simulate_subject


def collapse_edges(graph) -> tuple[np.ndarray, np.ndarray]:
    """Lightest edge per node pair (inf = none), and where a strict edge lies within 1e-12 of it."""
    weight = np.full((graph.n_obs, graph.n_obs), np.inf)
    for e in graph.edges:
        if e.weight < weight[e.src, e.dst]:
            weight[e.src, e.dst] = e.weight
    strict_at_min = np.zeros((graph.n_obs, graph.n_obs), dtype=bool)
    for e in graph.edges:
        if e.strict and e.weight <= weight[e.src, e.dst] + 1e-12:
            strict_at_min[e.src, e.dst] = True
    return weight, strict_at_min


def enumerate_min_mean_cycle(graph) -> tuple[float, bool]:
    """Oracle: exhaustive minimum over all simple cycles of the collapsed graph.

    Returns (min mean, whether some zero-mean cycle uses a strict edge).
    Parallel edges are collapsed to their minimum weight first; a cycle with a
    total below zero would otherwise always prefer the lighter edge anyway.
    """
    weight, strict_at = collapse_edges(graph)
    g = nx.DiGraph()
    g.add_edges_from(zip(*(idx.tolist() for idx in np.nonzero(np.isfinite(weight)))))
    best = math.inf
    strict_zero = False
    for cycle in nx.simple_cycles(g):
        edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
        mean = sum(weight[e] for e in edges) / len(edges)
        best = min(best, mean)
        if abs(sum(weight[e] for e in edges)) <= CYCLE_TOL and any(strict_at[e] for e in edges):
            strict_zero = True
    return best, strict_zero


def cycle_edges(cycle) -> list[tuple[int, int]]:
    return [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def cycle_mean(weight, cycle) -> float:
    edges = cycle_edges(cycle)
    return sum(weight[e] for e in edges) / len(edges)


def fsum_mean(weight, cycle) -> float:
    edges = cycle_edges(cycle)
    return math.fsum(weight[e] for e in edges) / len(edges)


def exact_mean(weight, cycle) -> Fraction:
    edges = cycle_edges(cycle)
    return sum(Fraction(float(weight[e])) for e in edges) / len(edges)


def assert_at_least_as_close(mu, karp_mu, weight, cycle) -> None:
    """mu is no farther than Karp's value from the exact rational mean of ``cycle``."""
    exact = exact_mean(weight, cycle)
    assert abs(Fraction(mu) - exact) <= abs(Fraction(karp_mu) - exact)


def karp_nested_witness(weight) -> tuple[float, tuple[int, ...] | None]:
    """Oracle: Karp's mu* and the lightest-mean cycle among all cycles on the n-edge walk.

    This is the exhaustive witness search that the one-pass first-repeat
    recovery in ``_karp_min_mean_cycle`` replaced; it is cubic in n.
    """
    n = weight.shape[0]
    d = np.full((n + 1, n), np.inf)
    parent = np.zeros((n + 1, n), dtype=np.intp)
    d[0] = 0.0
    for k in range(1, n + 1):
        via = d[k - 1][:, None] + weight
        parent[k] = np.argmin(via, axis=0)
        d[k] = via[parent[k], np.arange(n)]
    finite_n = np.isfinite(d[n])
    if not finite_n.any():
        return math.inf, None
    with np.errstate(invalid="ignore"):
        ratios = (d[n][None, :] - d[:n]) / (n - np.arange(n))[:, None]
    ratios[~np.isfinite(d[:n])] = -np.inf
    per_node = np.max(ratios, axis=0)
    per_node[~finite_n] = np.inf
    v_star = int(np.argmin(per_node))

    walk = [v_star]
    v = v_star
    for k in range(n, 0, -1):
        v = int(parent[k, v])
        walk.append(v)
    walk.reverse()
    best_mean, best_cycle = math.inf, None
    seen: dict[int, int] = {}
    for j, node in enumerate(walk):
        if node in seen:
            for i in (idx for idx, w in enumerate(walk[:j]) if w == node):
                cycle = walk[i:j]
                mean = cycle_mean(weight, cycle)
                if mean < best_mean:
                    best_mean, best_cycle = mean, tuple(cycle)
        seen[node] = j
    return float(per_node[v_star]), best_cycle


def karp_parent_table(weight) -> tuple[float, tuple[int, ...] | None]:
    """Oracle: Karp with an (n + 1, n) parent table filled by a per-step argmin.

    ``_karp_min_mean_cycle`` keeps no table and recomputes each parent along
    the witness walk; both must return the same bits.
    """
    n = weight.shape[0]
    d = np.full((n + 1, n), np.inf)
    parent = np.zeros((n + 1, n), dtype=np.intp)
    d[0] = 0.0
    for k in range(1, n + 1):
        via = d[k - 1][:, None] + weight
        parent[k] = np.argmin(via, axis=0)
        d[k] = via[parent[k], np.arange(n)]

    finite_n = np.isfinite(d[n])
    if not finite_n.any():
        return math.inf, None
    with np.errstate(invalid="ignore"):
        ratios = (d[n][None, :] - d[:n]) / (n - np.arange(n))[:, None]
    ratios[~np.isfinite(d[:n])] = -np.inf
    per_node = np.max(ratios, axis=0)
    per_node[~finite_n] = np.inf
    v_star = int(np.argmin(per_node))
    mu = float(per_node[v_star])

    walk = [v_star]
    for k in range(n, 0, -1):
        walk.append(int(parent[k, walk[-1]]))
    walk.reverse()
    seen: dict[int, int] = {}
    j = 0
    while walk[j] not in seen:
        seen[walk[j]] = j
        j += 1
    return mu, tuple(walk[seen[walk[j]]:j])


def assert_same_karp(weight) -> None:
    mu, witness = _karp_min_mean_cycle(weight)
    oracle_mu, oracle_witness = karp_parent_table(weight)
    assert np.float64(mu).tobytes() == np.float64(oracle_mu).tobytes()
    assert witness == oracle_witness


def oracle_deut(dataset) -> float:
    mu, strict_zero = enumerate_min_mean_cycle(build_eu_graph(dataset))
    if mu < -CYCLE_TOL:
        return -mu
    if strict_zero:
        return STRICT_ZERO_SENTINEL
    return 0.0


def _all_zero_dataset() -> SubjectDataset:
    """One round holding nothing.

    Valid rounds always hold something (budget identity), so the columns go
    straight to the constructor, which does not validate them.
    """
    return SubjectDataset("z", np.array([1]), np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]]),
                          np.array([[0.02, 0.02]]), np.array([[0.0, 0.0]]), np.array([False]))


class TestGraphConstruction:
    def test_single_observation_self_edge(self):
        ds = dataset_from_prices([(0.01, 0.02, 60.0, 20.0)])  # x_a > x_b > 0
        graph = build_eu_graph(ds)
        assert graph.dropped_pairs == 0
        assert len(graph.edges) == 1
        (edge,) = graph.edges
        assert (edge.src, edge.dst) == (0, 0)
        assert edge.strict
        assert edge.weight == pytest.approx(math.log(0.02) - math.log(0.01), abs=1e-15)

    def test_two_observations_all_distinct_quantities(self):
        ds = dataset_from_prices([(0.01, 0.02, 60.0, 20.0), (0.025, 0.01, 30.0, 25.0)])
        graph = build_eu_graph(ds)
        # 4 slots, one directed edge per ordered strict comparison
        assert len(graph.edges) == 6
        assert len(graph.edges) <= 12

    def test_equal_quantities_produce_both_directions(self):
        ds = dataset_from_prices([(0.01, 0.01, 50.0, 50.0)])
        graph = build_eu_graph(ds)
        assert len(graph.edges) == 2
        assert all(not e.strict and e.weight == 0.0 for e in graph.edges)

    def test_corner_quantities_dropped(self):
        ds = dataset_from_prices([(0.01, 0.02, 100.0, 0.0)])
        graph = build_eu_graph(ds)
        assert graph.dropped_pairs == 1
        assert len(graph.edges) == 0

    def test_opposite_corners_drop_two_slots(self):
        ds = dataset_from_prices([(0.01, 0.02, 100.0, 0.0), (0.02, 0.01, 0.0, 100.0)])
        graph = build_eu_graph(ds)
        assert graph.dropped_pairs == 2

    def test_all_zero_quantities_degenerate(self):
        with pytest.raises(DegenerateDataError):
            build_eu_graph(_all_zero_dataset())


def _random_sloppy(rng):
    for _ in range(60):
        yield random_sloppy_dataset(rng, int(rng.integers(2, 41)))


def _equal_quantities(rng):
    # quantities from a pool of three recur across observations and states;
    # prices follow from a random budget share on asset A
    for _ in range(30):
        pool = rng.uniform(5.0, 40.0, size=3)
        rows = []
        for _ in range(8):
            x_a, x_b = (float(x) for x in rng.choice(pool, size=2))
            p_a = float(rng.uniform(0.2, 0.8)) / x_a
            rows.append((p_a, (1.0 - p_a * x_a) / x_b, x_a, x_b))
        yield dataset_from_prices(rows)


def _ties_at_the_tolerances(rng):
    # A quantities exactly QUANTITY_TOL apart (2e-9 - 1e-9 is exact in floating
    # point); at these prices their comparison gives the lightest edge 1 -> 0,
    # respectively the lightest edge 0 -> 1
    for p_a0, p_b0, p_a1, p_b1 in ((0.03, 0.02, 0.025, 0.03), (0.02, 0.03, 0.025, 0.02)):
        yield dataset_from_prices([
            (p_a0, p_b0, 1e-9, (1.0 - p_a0 * 1e-9) / p_b0),
            (p_a1, p_b1, 2e-9, (1.0 - p_a1 * 2e-9) / p_b1),
        ])
    # nearly proportional prices and a shared B quantity: parallel edges whose
    # weights differ by about 5e-13, one from a strict and one from an equal
    # comparison
    for delta in (5e-13, -5e-13, 5e-13, -5e-13):
        p_a, p_b = (float(p) for p in rng.uniform(0.005, 0.05, size=2))
        c = float(rng.uniform(0.5, 2.0))
        p_b2 = p_b * c * (1.0 + delta)
        x_b = float(rng.uniform(0.2, 0.8)) / max(p_b, p_b2)
        yield dataset_from_prices([
            (p_a, p_b, (1.0 - p_b * x_b) / p_a, x_b),
            (p_a * c, p_b2, (1.0 - p_b2 * x_b) / (p_a * c), x_b),
        ])


def _zero_quantity_corners(rng):
    for _ in range(30):
        yield dataset_from_prices(random_rows(rng, int(rng.integers(2, 13)), corner_share=0.6))


def _equal_prices_unequal_holdings(rng):
    for _ in range(20):
        rows = random_rows(rng, int(rng.integers(1, 8)))
        for i in rng.choice(len(rows), size=max(1, len(rows) // 2), replace=False):
            p = float(rng.uniform(0.005, 0.05))
            share = float(rng.uniform(0.05, 0.95))
            rows[i] = (p, p, share / p, (1.0 - share) / p)
        yield dataset_from_prices(rows)


def _simulated(betas, rhos):
    for i, params in enumerate(DAParams(beta, rho) for beta in betas for rho in rhos):
        yield simulate_subject(params, generate_budgets(700 + i, 25), f"sim{i}").dataset


def _kink_subjects(rng):
    # disappointment aversion puts many choices exactly at x_a = x_b
    yield from _simulated((0.5, 1.5, 3.0), (0.3, 0.8))


def _rho_near_one_beta_near_minus_one(rng):
    yield from _simulated((-0.99, -0.9), (1.0 - 1e-9, 1.0, 1.0 + 1e-9))


class TestDenseMatrices:
    @pytest.mark.parametrize(
        "family",
        [_random_sloppy, _equal_quantities, _ties_at_the_tolerances, _zero_quantity_corners,
         _equal_prices_unequal_holdings, _kink_subjects, _rho_near_one_beta_near_minus_one],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_equal_to_collapsed_edge_list(self, family):
        rng = np.random.default_rng(67)
        for ds in family(rng):
            weight, strict_at_min, dropped = _eu_matrices(ds)
            graph = build_eu_graph(ds)
            ref_weight, ref_strict = collapse_edges(graph)
            np.testing.assert_array_equal(weight.view(np.int64), ref_weight.view(np.int64))
            np.testing.assert_array_equal(strict_at_min, ref_strict)
            assert dropped == graph.dropped_pairs

    def test_all_zero_quantities_degenerate(self):
        with pytest.raises(DegenerateDataError):
            _eu_matrices(_all_zero_dataset())


def _small_integer_weights(rng):
    # integer sums are exact, so d[k-1] + weight ties often and the
    # first-minimum rule picks the parent
    for n in [1, 2, 3] + [int(m) for m in rng.integers(4, 31, size=40)]:
        weight = rng.integers(-3, 4, size=(n, n)).astype(float)
        weight[rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.8)] = np.inf
        yield weight


class TestKarpOracle:
    @pytest.mark.parametrize(
        "family",
        [_random_sloppy, _equal_quantities, _ties_at_the_tolerances, _zero_quantity_corners,
         _equal_prices_unequal_holdings, _kink_subjects, _rho_near_one_beta_near_minus_one],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_equals_parent_table_on_dense_matrices(self, family):
        rng = np.random.default_rng(83)
        for ds in family(rng):
            assert_same_karp(_eu_matrices(ds)[0])

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    def test_equals_parent_table_on_simulated_subjects(self, beta):
        # beta = 0: expected utility; beta > 0: disappointment aversion
        rng = np.random.default_rng(89)
        for i, n_rounds in enumerate((25, 25, 175)):
            params = DAParams(beta, float(rng.uniform(0.3, 2.0)))
            subject = simulate_subject(params, generate_budgets(900 + i, n_rounds), f"k{i}")
            assert_same_karp(_eu_matrices(subject.dataset)[0])

    def test_equals_parent_table_with_integer_ties(self):
        cycles = 0
        for weight in _small_integer_weights(np.random.default_rng(97)):
            assert_same_karp(weight)
            cycles += _karp_min_mean_cycle(weight)[1] is not None
        assert cycles > 20

    @pytest.mark.parametrize(
        "weight",
        [np.array([[np.inf, -1.0], [np.inf, np.inf]]),
         np.array([[-0.5]]),
         np.array([[np.inf, np.inf], [np.inf, 2.0]])],
        ids=["acyclic", "self_loop", "self_loop_on_the_last_node"],
    )
    def test_equals_parent_table_on_small_graphs(self, weight):
        assert_same_karp(weight)


class TestDeutIndex:
    def test_expected_utility_maximizers_score_zero(self):
        rng = np.random.default_rng(31)
        for i in range(25):
            params = DAParams(0.0, float(rng.uniform(0.2, 4.0)))
            subject = simulate_subject(params, generate_budgets(400 + i, 25), f"eu{i}")
            result = deut_index(subject.dataset)
            assert result.deut == 0.0
            assert result.witness_cycle is None

    def test_symmetric_rounds_score_zero(self):
        ds = dataset_from_prices(
            [(0.01, 0.01, 50.0, 50.0), (0.02, 0.02, 25.0, 25.0), (0.005, 0.005, 100.0, 100.0)]
        )
        assert deut_index(ds).deut == 0.0

    def test_hand_built_negative_cycle(self):
        # second observation holds more of the dearer asset: the dominated
        # choice forces a negative self-loop of weight -ln(2.5)
        ds = dataset_from_prices([(1.0, 2.0, 0.6, 0.2), (2.5, 1.0, 0.3, 0.25)])
        result = deut_index(ds)
        assert result.deut == pytest.approx(math.log(2.5), abs=1e-12)
        assert result.witness_cycle == (1,)
        # the enumeration oracle agrees exactly
        assert result.deut == pytest.approx(oracle_deut(ds), abs=1e-12)

    def test_strict_zero_cycle_flagged_with_sentinel(self):
        # equal prices with strictly unequal holdings: rationalizable only with
        # a kinked felicity; zero-weight strict self-loop
        ds = dataset_from_prices([(0.01, 0.01, 60.0, 40.0)])
        result = deut_index(ds)
        assert result.deut == STRICT_ZERO_SENTINEL
        assert result.deut > 0.0
        assert result.witness_cycle == (0,)

    def test_disappointment_averse_kink_severity(self):
        # a kink choice at unequal prices deviates by at least |log price ratio|
        ds = dataset_from_prices([(0.012, 0.01, 45.45454545454546, 45.45454545454545)])
        result = deut_index(ds)
        assert result.deut >= abs(math.log(0.012 / 0.01)) - 1e-9

    def test_matches_enumeration_oracle_on_random_data(self):
        rng = np.random.default_rng(37)
        positives = 0
        for _ in range(60):
            ds = random_sloppy_dataset(rng, int(rng.integers(2, 7)))
            result = deut_index(ds)
            assert result.deut == pytest.approx(oracle_deut(ds), abs=1e-9)
            positives += result.deut > 1e-6
        assert positives > 10  # random behavior is usually not EU-rational

    def test_matches_oracle_on_disappointment_averse_subjects(self):
        rng = np.random.default_rng(41)
        for i in range(15):
            params = DAParams(0.5, float(rng.uniform(0.3, 2.0)))
            subject = simulate_subject(params, generate_budgets(500 + i, 6), f"da{i}")
            result = deut_index(subject.dataset)
            assert result.deut == pytest.approx(oracle_deut(subject.dataset), abs=1e-9)

    def test_witness_cycle_achieves_the_minimum_mean(self):
        rng = np.random.default_rng(43)
        checked = 0
        for n_rounds in [5] * 40 + [12, 30, 60, 120, 175, 175]:
            ds = random_sloppy_dataset(rng, n_rounds)
            result = deut_index(ds)
            if result.deut <= 1e-6 or result.witness_cycle is None:
                continue
            # small graphs: the edge list itself; large ones: its dense form
            # (equal bitwise, see TestDenseMatrices)
            weight = (collapse_edges(build_eu_graph(ds))[0] if n_rounds <= 12
                      else _eu_matrices(ds)[0])
            mean = cycle_mean(weight, result.witness_cycle)
            assert -mean == pytest.approx(result.deut, abs=1e-12)
            mu, oracle_cycle = karp_nested_witness(weight)
            # the value is the witness's fsum mean, no farther than Karp's from its exact mean
            assert -result.deut == fsum_mean(weight, result.witness_cycle)
            assert_at_least_as_close(-result.deut, mu, weight, result.witness_cycle)
            assert mean == pytest.approx(cycle_mean(weight, oracle_cycle), abs=1e-12)
            assert len(set(result.witness_cycle)) == len(result.witness_cycle)
            checked += 1
        assert checked > 10

    def test_karp_equals_nested_oracle_on_the_minimum_mean(self):
        # mu* is bitwise the oracle's; the witness may differ from the oracle's
        # cycle only where float sums break a tie between equal-mean cycles
        rng = np.random.default_rng(61)
        for _ in range(30):
            weight = _eu_matrices(random_sloppy_dataset(rng, int(rng.integers(2, 30))))[0]
            mu, cycle = _karp_min_mean_cycle(weight)
            oracle_mu, oracle_cycle = karp_nested_witness(weight)
            assert mu == oracle_mu
            assert cycle_mean(weight, cycle) == pytest.approx(
                cycle_mean(weight, oracle_cycle), abs=1e-12)

    def test_acyclic_graph_has_no_witness(self):
        weight = np.array([[np.inf, -1.0], [np.inf, np.inf]])
        assert _karp_min_mean_cycle(weight) == (math.inf, None)

    def test_uniform_slack_restores_feasibility(self):
        # Bellman-Ford oracle: adding deut to every edge weight leaves no
        # negative cycle
        rng = np.random.default_rng(47)
        for _ in range(20):
            ds = random_sloppy_dataset(rng, 5)
            result = deut_index(ds)
            graph = build_eu_graph(ds)
            n = graph.n_obs
            dist = [0.0] * n
            edges = [(e.src, e.dst, e.weight + result.deut) for e in graph.edges]
            for _ in range(n):
                for src, dst, w in edges:
                    if dist[src] + w < dist[dst]:
                        dist[dst] = dist[src] + w
            for src, dst, w in edges:
                assert dist[src] + w >= dist[dst] - 1e-7

    def test_invariant_to_relabeling_observations(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            rows = []
            for _ in range(5):
                p = rng.uniform(0.005, 0.05, size=2)
                share = float(rng.uniform(0.05, 0.95))
                rows.append((float(p[0]), float(p[1]), share / p[0], (1 - share) / p[1]))
            base = deut_index(dataset_from_prices(rows)).deut
            perm = rng.permutation(len(rows))
            shuffled = deut_index(dataset_from_prices([rows[i] for i in perm])).deut
            assert shuffled == pytest.approx(base, abs=1e-12)

    def test_invariant_to_swapping_state_labels(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            rows = []
            for _ in range(5):
                p = rng.uniform(0.005, 0.05, size=2)
                share = float(rng.uniform(0.05, 0.95))
                rows.append((float(p[0]), float(p[1]), share / p[0], (1 - share) / p[1]))
            base = deut_index(dataset_from_prices(rows)).deut
            swapped_rows = [(p_b, p_a, x_b, x_a) for p_a, p_b, x_a, x_b in rows]
            swapped = deut_index(dataset_from_prices(swapped_rows)).deut
            assert swapped == pytest.approx(base, abs=1e-12)


def assert_howard_matches_karp(weight) -> None:
    """Howard against the Karp oracle on one weight matrix.

    Within 1e-12 of Karp's value with the same decisions at +-CYCLE_TOL, a
    simple witness cycle whose fsum mean is the value bit for bit, and no
    farther than Karp's value from that cycle's exact mean.
    """
    mu, cycle = _howard_min_mean_cycle(weight)
    karp_mu, karp_cycle = _karp_min_mean_cycle(weight)
    if karp_cycle is None:
        assert (mu, cycle) == (math.inf, None)
        return
    assert abs(mu - karp_mu) <= 1e-12
    assert (mu < -CYCLE_TOL) == (karp_mu < -CYCLE_TOL)
    assert (mu <= CYCLE_TOL) == (karp_mu <= CYCLE_TOL)
    assert len(set(cycle)) == len(cycle)
    assert np.float64(mu).tobytes() == np.float64(fsum_mean(weight, cycle)).tobytes()
    assert_at_least_as_close(mu, karp_mu, weight, cycle)


def _decision(result) -> str:
    if result.deut == 0.0:
        return "zero"
    return "sentinel" if result.deut == STRICT_ZERO_SENTINEL else "positive"


@pytest.fixture(scope="module")
def howard_cases() -> dict[str, list[tuple[SubjectDataset, np.ndarray]]]:
    """Datasets with their weight matrices, built once for the Howard tests."""
    rng = np.random.default_rng(71)
    sloppy = [random_sloppy_dataset(rng, int(n)) for n in rng.integers(2, 61, size=30)]
    simulated = [
        simulate_subject(DAParams(beta, float(rng.uniform(0.3, 2.0))),
                         generate_budgets(1100 + i, n_rounds), f"h{i}").dataset
        for i, (beta, n_rounds) in enumerate(itertools.product((-0.5, 0.0, 0.5, 1.5), (25, 25, 175)))
    ]
    return {name: [(ds, _eu_matrices(ds)[0]) for ds in family]
            for name, family in (("sloppy", sloppy), ("simulated", simulated))}


def _equal_mean_cycles() -> np.ndarray:
    # the first policy holds two cycles of mean -0.5, 0 <-> 1 and 2 <-> 3; the
    # edges 0 -> 3 and 3 -> 1 between them tie exactly in potential, so no
    # move helps, and the witness is the cycle through the smaller node
    weight = np.full((4, 4), np.inf)
    weight[0, 1], weight[1, 0], weight[2, 3], weight[3, 2] = 0.0, -1.0, 0.25, -1.25
    weight[0, 3], weight[3, 1] = 0.25, -0.75
    return weight


def _dead_ends() -> np.ndarray:
    # 3 has no out-edge and 2 leads only to 3: both are pruned, one after the
    # other; 1's lightest edge leads to 2, so the first policy would walk off
    weight = np.full((4, 4), np.inf)
    weight[0, 1], weight[1, 0], weight[1, 2], weight[2, 3] = 1.0, 0.5, -3.0, -3.0
    return weight


class TestHowardAgainstKarp:
    @pytest.mark.parametrize("family", ["sloppy", "simulated"])
    def test_matches_karp(self, howard_cases, family):
        for _, weight in howard_cases[family]:
            assert_howard_matches_karp(weight)

    @pytest.mark.parametrize(
        "weight, expected",
        [(_dead_ends(), (0.75, (0, 1))),
         (np.array([[np.inf, -1.0, 2.0], [np.inf, np.inf, -4.0], [np.inf] * 3]), (math.inf, None)),
         (np.diag([2.0, -1.0, 0.5]) + np.where(np.eye(3, dtype=bool), 0.0, np.inf), (-1.0, (1,))),
         (_equal_mean_cycles(), (-0.5, (0, 1)))],
        ids=["dead_ends", "acyclic", "self_loops_only", "equal_mean_cycles"],
    )
    def test_adversarial_graphs(self, weight, expected):
        assert _howard_min_mean_cycle(weight) == expected
        assert_howard_matches_karp(weight)

    def test_value_is_the_fsum_mean(self):
        # 1e16 + 1.0 rounds to 1e16, so a plain left-to-right sum of this
        # cycle is 0; fsum keeps the 1.0
        weight = np.full((3, 3), np.inf)
        weight[0, 1], weight[1, 2], weight[2, 0] = 1e16, 1.0, -1e16
        assert _howard_min_mean_cycle(weight) == (1.0 / 3.0, (0, 1, 2))

    def test_deut_index_decides_as_with_karp(self, howard_cases, monkeypatch):
        # the zero-weight cycle 0 -> 1 -> 0 runs through the strict edge 0 -> 1
        # (45 > 40 at equal prices in both rounds): the sentinel path
        sentinel = dataset_from_prices([(0.01, 0.01, 60.0, 40.0), (0.02, 0.02, 45.0, 5.0)])
        datasets = [sentinel] + [ds for cases in howard_cases.values() for ds, _ in cases]
        howard = [deut_index(ds) for ds in datasets]
        monkeypatch.setattr(eu_deviation, "_howard_min_mean_cycle", _karp_min_mean_cycle)
        karp = [deut_index(ds) for ds in datasets]
        assert howard[0].deut == karp[0].deut == STRICT_ZERO_SENTINEL
        for ours, theirs in zip(howard, karp):
            assert _decision(ours) == _decision(theirs)
            assert abs(ours.deut - theirs.deut) <= 1e-12
            assert ours.dropped_pairs == theirs.dropped_pairs

    def test_iteration_cap_hands_over_to_karp(self, howard_cases, monkeypatch):
        cases = [case for case in howard_cases["simulated"] if case[0].n == 175]
        monkeypatch.setattr(eu_deviation, "_howard_min_mean_cycle", _karp_min_mean_cycle)
        karp = [deut_index(ds) for ds, _ in cases]
        monkeypatch.undo()
        calls = []

        def counted_karp(weight):
            calls.append(weight)
            return _karp_min_mean_cycle(weight)

        monkeypatch.setattr(eu_deviation, "HOWARD_MAX_ITERATIONS", 1)
        monkeypatch.setattr(eu_deviation, "_karp_min_mean_cycle", counted_karp)
        for (ds, weight), expected in zip(cases, karp):
            mu, cycle = _howard_min_mean_cycle(weight)
            karp_mu, karp_cycle = _karp_min_mean_cycle(weight)
            assert np.float64(mu).tobytes() == np.float64(karp_mu).tobytes()
            assert cycle == karp_cycle
            result = deut_index(ds)
            assert np.float64(result.deut).tobytes() == np.float64(expected.deut).tobytes()
            assert result.witness_cycle == expected.witness_cycle
        assert len(calls) == 2 * len(cases)  # every one of them needed a second policy
