"""Deviation from expected-utility maximization under two equally likely states.

A dataset is rationalizable by expected utility with concave felicity exactly
when the first-order conditions admit positive round multipliers lambda^k:
whenever quantity ``x_s^k`` exceeds ``x_{s'}^{k'}``, decreasing marginal
felicity forces

    ln lambda^k + ln p_s^k  <=  ln lambda^{k'} + ln p_{s'}^{k'}.

These are difference constraints on ``L^k = ln lambda^k``: one edge from k'
to k with weight ``ln p_{s'}^{k'} - ln p_s^k`` per ordered quantity
comparison (both directions for equal quantities; corner quantities of zero
are excluded, since no first-order condition binds there).  The system is
feasible iff the edge-weighted digraph has no negative cycle, and the minimal
uniform slack that restores feasibility when it fails is the negated minimum
cycle mean.  The index is therefore

    deut = max(0, -mu*),    mu* = minimum mean cycle weight,

computed with Karp's dynamic program on the dense (n, n) matrix of lightest
edges, which is built directly by broadcasting the quantity comparisons
(``build_eu_graph`` lists the same edges one by one).  A zero-weight cycle
through an edge generated by a *strict* quantity comparison is reported
with the smallest positive double as a tie-diagnostic sentinel: such data is
rationalizable only by felicities with kinks, not by smooth strictly concave
ones.

Sign decisions on cycle weights carry a 1e-9 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SubjectDataset
from .errors import DegenerateDataError

CYCLE_TOL = 1e-9
QUANTITY_TOL = 1e-9
STRICT_ZERO_SENTINEL = 5e-324  # smallest positive double


@dataclass(frozen=True)
class EuEdge:
    src: int
    dst: int
    weight: float
    strict: bool


@dataclass(frozen=True)
class EuConstraintGraph:
    n_obs: int
    edges: tuple[EuEdge, ...]
    dropped_pairs: int


@dataclass(frozen=True)
class DeutResult:
    deut: float
    witness_cycle: tuple[int, ...] | None
    dropped_pairs: int


def build_eu_graph(dataset: SubjectDataset) -> EuConstraintGraph:
    """Difference-constraint multigraph over observations.

    Quantities within ``QUANTITY_TOL`` of each other count as equal; pairs
    where either quantity is zero are dropped and counted.
    """
    demand = dataset.demand_matrix()
    prices = dataset.price_matrix()
    obs = np.repeat(np.arange(dataset.n), 2)
    qty = demand.reshape(-1)
    logp = np.full_like(qty, np.nan)
    positive = qty > 0.0
    logp[positive] = np.log(prices.reshape(-1)[positive])
    dropped = int(np.count_nonzero(~positive))
    if not positive.any():
        raise DegenerateDataError("all quantities are zero; no comparisons available")

    q = qty[positive]
    lp = logp[positive]
    ob = obs[positive]
    diff = q[:, None] - q[None, :]
    distinct = ~np.eye(len(q), dtype=bool)
    strict = (diff > QUANTITY_TOL) & distinct
    equal = (np.abs(diff) <= QUANTITY_TOL) & distinct

    edges = []
    for a, b in np.argwhere(strict | equal):
        # slot a holds at least as much as slot b: L^{k_a} <= L^{k_b} + w
        edges.append(EuEdge(int(ob[b]), int(ob[a]), float(lp[b] - lp[a]), bool(strict[a, b])))
    return EuConstraintGraph(dataset.n, tuple(edges), dropped)


def _eu_matrices(dataset: SubjectDataset) -> tuple[np.ndarray, np.ndarray, int]:
    """The constraint graph collapsed to dense (n, n) matrices.

    ``weight[k', k]`` is the lightest edge k' -> k (inf when there is none)
    and ``strict_at_min[k', k]`` marks a strict comparison within 1e-12 of
    that minimum.  Each of the four (source state, target state) slot
    pairings contributes one broadcast comparison; a slot is never compared
    with itself.  Also returns the number of zero quantities.
    """
    demand = dataset.demand_matrix()
    log_prices = np.log(dataset.price_matrix())
    held = demand > 0.0
    if not held.any():
        raise DegenerateDataError("all quantities are zero; no comparisons available")
    n = dataset.n
    other_slot = ~np.eye(n, dtype=bool)
    weight = np.full((n, n), np.inf)
    pairings = []
    for s_src in range(2):
        for s_dst in range(2):
            # the target slot holds at least as much as the source slot
            gap = demand[None, :, s_dst] - demand[:, None, s_src]
            edge = (gap >= -QUANTITY_TOL) & held[:, None, s_src] & held[None, :, s_dst]
            if s_src == s_dst:
                edge &= other_slot
            w = np.where(edge, log_prices[:, None, s_src] - log_prices[None, :, s_dst], np.inf)
            weight = np.minimum(weight, w)
            pairings.append((w, edge & (gap > QUANTITY_TOL)))
    strict_at_min = np.zeros((n, n), dtype=bool)
    for w, strict in pairings:
        strict_at_min |= strict & (w <= weight + 1e-12)
    return weight, strict_at_min, int(np.count_nonzero(~held))


def _karp_min_mean_cycle(weight: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Karp's algorithm on a dense weight matrix (inf = no edge).

    Returns (mu*, witness cycle as a node tuple) or (inf, None) when acyclic.
    Walk lengths start from every node at once, which is the standard
    virtual-source formulation.  The witness is the first cycle closed on
    the optimal n-edge walk, found in one pass.
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

    # Every cycle on the optimal n-edge walk ending at v_star has mean mu*
    # (Chaturvedi & McConnell 2017): return the first one the walk closes.
    walk = [v_star]
    for k in range(n, 0, -1):
        walk.append(int(parent[k, walk[-1]]))
    walk.reverse()
    seen: dict[int, int] = {}
    j = 0
    while walk[j] not in seen:  # n + 1 nodes on n vertices: some node repeats
        seen[walk[j]] = j
        j += 1
    return mu, tuple(walk[seen[walk[j]]:j])


def _floyd_warshall(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = weight.shape[0]
    dist = weight.copy()
    nxt = np.where(np.isfinite(weight), np.arange(n)[None, :], -1)
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        better = via < dist
        dist = np.where(better, via, dist)
        nxt = np.where(better, nxt[:, k, None], nxt)
    return dist, nxt


def deut_index(dataset: SubjectDataset) -> DeutResult:
    """Index value, an optional witness cycle, and the dropped-pair count."""
    weight, strict_at_min, dropped = _eu_matrices(dataset)
    mu, witness = _karp_min_mean_cycle(weight)

    if mu < -CYCLE_TOL:
        return DeutResult(-mu, witness, dropped)

    if mu <= CYCLE_TOL and strict_at_min.any():
        # A strict edge closing a zero-weight cycle: w(u->v) + dist(v->u) == 0.
        dist, nxt = _floyd_warshall(weight)
        for u, v in np.argwhere(strict_at_min):
            if weight[u, v] + dist[v, u] <= CYCLE_TOL:
                cycle = [int(u)]
                node = int(v)
                while node != int(u) and len(cycle) <= weight.shape[0]:
                    cycle.append(node)
                    node = int(nxt[node, u])
                return DeutResult(STRICT_ZERO_SENTINEL, tuple(cycle), dropped)
    return DeutResult(0.0, None, dropped)
