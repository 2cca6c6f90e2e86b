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

computed by Howard's policy iteration on the dense (n, n) matrix of lightest
edges, which is built directly by broadcasting the quantity comparisons
(``build_eu_graph`` lists the same edges one by one).  mu* is the mean of a
witness cycle, the ``math.fsum`` of its weights over its length; Karp's
dynamic program decides instead if policy iteration reaches its iteration
cap.  A zero-weight cycle through an edge generated by a *strict* quantity
comparison is reported with the smallest positive double as a
tie-diagnostic sentinel: such data is rationalizable only by felicities
with kinks, not by smooth strictly concave ones.

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
HOWARD_TOL = 1e-12  # least change in a cycle mean or potential that moves a policy edge
HOWARD_MAX_ITERATIONS = 100  # policies evaluated before Karp decides instead


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
    demand = dataset.demand
    prices = dataset.prices
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
    demand = dataset.demand
    log_prices = np.log(dataset.prices)
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
    the optimal n-edge walk, found in one pass.  No parent table is kept:
    the walk recomputes each parent from the one column it needs, with the
    same float sums and the same first-minimum rule.
    """
    n = weight.shape[0]
    d = np.full((n + 1, n), np.inf)
    d[0] = 0.0
    for k in range(1, n + 1):
        d[k] = (d[k - 1][:, None] + weight).min(axis=0)

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
        walk.append(int((d[k - 1] + weight[:, walk[-1]]).argmin()))
    walk.reverse()
    seen: dict[int, int] = {}
    j = 0
    while walk[j] not in seen:  # n + 1 nodes on n vertices: some node repeats
        seen[walk[j]] = j
        j += 1
    return mu, tuple(walk[seen[walk[j]]:j])


def _policy_values(step: np.ndarray, policy: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Cycle mean ``eta`` and potential ``x`` of every node under a policy.

    A policy picks one out-edge per node (weight ``step[u]``), so every walk
    ends on a cycle; the nodes the walks reach after 2**b > m steps are the
    cycle nodes (pointer doubling).  A cycle's mean is the ``math.fsum`` of
    its weights over its length, and its smallest node has potential 0, so
    a cycle the policy keeps keeps its potentials.  Every other node has
    ``x[u] = step[u] - eta[u] + x[policy[u]]``, summed up to its cycle by
    pointer doubling.  Also returns the cycles as (mean, nodes from the
    smallest), in the order of their smallest nodes.
    """
    m = len(policy)
    doublings = m.bit_length()
    ahead = policy
    for _ in range(doublings):
        ahead = ahead[ahead]
    on_cycle = np.zeros(m, dtype=bool)
    on_cycle[ahead] = True
    eta = np.zeros(m)
    x = np.zeros(m)
    cycles = []
    next_node = policy.tolist()
    weights = step.tolist()
    placed = set()
    for first in np.flatnonzero(on_cycle).tolist():
        if first in placed:
            continue
        cycle = [first]
        while next_node[cycle[-1]] != first:
            cycle.append(next_node[cycle[-1]])
        placed.update(cycle)
        mean = math.fsum(weights[c] for c in cycle) / len(cycle)
        cycles.append((mean, cycle))
        eta[cycle] = mean
        potential = 0.0
        for c in reversed(cycle[1:]):
            potential = weights[c] - mean + potential
            x[c] = potential
    eta = eta[ahead]
    rise = np.where(on_cycle, 0.0, step - eta)
    to = np.where(on_cycle, np.arange(m), policy)
    for _ in range(doublings):
        rise = rise + rise[to]
        to = to[to]
    return eta, rise + x[to], cycles


def _howard_min_mean_cycle(weight: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Howard's policy iteration on a dense weight matrix (inf = no edge).

    Same contract as ``_karp_min_mean_cycle``, at O(n^2) per iteration
    (Cochet-Terrasson, Cohen, Gaubert, McGettrick & Quadrat 1998).  Nodes
    without an out-edge lie on no cycle and are pruned until none is left;
    the first policy is each node's lightest edge.  Each iteration moves
    nodes to an out-edge that reaches a lower cycle mean or, where none
    does, among edges to their own mean, to one with a lower potential,
    both by more than ``HOWARD_TOL``.  With no move left, the policy's
    lightest cycle (the first of equal means) is a minimum-mean cycle, and
    its mean is the value.  After ``HOWARD_MAX_ITERATIONS`` policies, Karp
    decides instead.
    """
    nodes = np.arange(weight.shape[0])
    sub = weight
    while True:
        has_out = np.isfinite(sub).any(axis=1)
        if has_out.all():
            break
        nodes = nodes[has_out]
        sub = weight[np.ix_(nodes, nodes)]
    if len(nodes) == 0:
        return math.inf, None
    blocked = np.where(np.isfinite(sub), 0.0, np.inf)
    rows = np.arange(len(nodes))
    policy = sub.argmin(axis=1)
    for _ in range(HOWARD_MAX_ITERATIONS):
        eta, x, cycles = _policy_values(sub[rows, policy], policy)
        mixed = eta.max() - eta.min() > HOWARD_TOL
        if mixed:
            reach = blocked + eta
            target = reach.argmin(axis=1)
            better = reach[rows, target] < eta - HOWARD_TOL
            if better.any():
                policy[better] = target[better]
                continue
        via = sub + x
        if mixed:  # only edges to the node's own mean
            via[eta > eta[:, None] + HOWARD_TOL] = np.inf
        target = via.argmin(axis=1)
        # rounding in large potentials can make a node's own edge look better
        better = (via[rows, target] - eta < x - HOWARD_TOL) & (target != policy)
        if not better.any():
            mean, cycle = min(cycles, key=lambda c: c[0])
            return mean, tuple(nodes[cycle].tolist())
        policy[better] = target[better]
    return _karp_min_mean_cycle(weight)


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
    mu, witness = _howard_min_mean_cycle(weight)

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
