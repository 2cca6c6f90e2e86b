"""Revealed-preference tests: GARP, CCEI, FOSD checks.

For observations ``(p^i, x^i)`` with expenditure normalized to one, bundle
``x^i`` is directly revealed preferred to ``x^j`` at efficiency ``e`` when
``e (p^i . x^i) >= p^i . x^j``.  GARP(e) fails when some ``x^i`` is revealed
preferred (through direct edges) to an ``x^j`` that is strictly cheaper than
``e`` times own expenditure at ``p^j``.  That strict inequality is itself the
edge j -> i, so a violation lies inside one strongly connected component of
the direct relation, and GARP(e) is read from those components with no
transitive closure (Talla Nobibon, Smeulders & Spieksma 2015); the components
come from a two-pass Kosaraju-Sharir search on bitset rows, numpy and the
standard library only, so scoring loads no scipy.  The CCEI is the
largest ``e`` in [0, 1] at which GARP(e) holds: 1 when the data has no
violation at full efficiency, otherwise read off Floyd-Warshall passes in
(max, min) algebra -- the minimax path closure of the thresholds at which each
direct edge appears (Varian 1990), one pass per component of the relation at
e = 1 -- and snapped to the nearest cross/own expenditure ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SubjectDataset
from .errors import ValidationError

RELATION_TOL = 1e-12
FOSD_TOL = 1e-9


@dataclass(frozen=True)
class CceiResult:
    ccei: float
    violating_pairs_at_1: tuple[tuple[int, int], ...]


def _expenditures(dataset: SubjectDataset) -> tuple[np.ndarray, np.ndarray]:
    """Cross-expenditure matrix E[i, j] = p^i . x^j and own expenditures."""
    prices = dataset.prices
    demand = dataset.demand
    cross = prices @ demand.T
    return cross, np.diag(cross).copy()


def _strong_components(relation: np.ndarray) -> np.ndarray:
    """Strong-component labels of the digraph with (n, n) bool adjacency ``relation``.

    Two-pass Kosaraju-Sharir (Sharir 1981), iterative, on Python-int bitsets:
    row i of ``relation`` (and of its transpose) packed into one int, bit j
    set for the edge i -> j (j -> i).  The first pass records depth-first
    finishing order on the relation; the second takes the unreached nodes
    reachable in the transpose from each root, latest finisher first, as one
    component.  Labels number components in the order the second pass meets
    them, not scipy's order; callers only compare labels and take per-component
    minima.
    """
    n = len(relation)

    def bitsets(matrix: np.ndarray) -> list[int]:
        packed = np.packbits(matrix, axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        return [int.from_bytes(data[k:k + width], "little") for k in range(0, n * width, width)]

    out, into = bitsets(relation), bitsets(relation.T)
    unreached = (1 << n) - 1
    finished: list[int] = []
    for root in range(n):
        if not unreached >> root & 1:
            continue
        unreached ^= 1 << root
        path = [root]
        while path:
            nxt = out[path[-1]] & unreached
            if nxt:
                low = nxt & -nxt
                unreached ^= low
                path.append(low.bit_length() - 1)
            else:
                finished.append(path.pop())

    labels = np.empty(n, dtype=np.intp)
    unreached = (1 << n) - 1
    label = 0
    for root in reversed(finished):
        if not unreached >> root & 1:
            continue
        unreached ^= 1 << root
        todo = [root]
        while todo:
            node = todo.pop()
            labels[node] = label
            nxt = into[node] & unreached
            unreached ^= nxt
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                todo.append(low.bit_length() - 1)
        label += 1
    return labels


def _garp(cross: np.ndarray, own: np.ndarray, e: float) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Strong-component labels of R^D(e) and the GARP(e) violating pairs (i, j), row-major.

    For e <= 1, ``e own_j > cross_ji + tol`` implies the edge j -> i, so an i
    that reaches such a j shares its component: the violations are the
    same-component pairs with that inequality.
    """
    labels = _strong_components(e * own[:, None] >= cross - RELATION_TOL)
    strictly_cheaper = (e * own[None, :]) > cross.T + RELATION_TOL  # [i, j]: x^i cheap at p^j
    violations = (labels[:, None] == labels[None, :]) & strictly_cheaper
    return labels, [(i, j) for i, j in np.argwhere(violations).tolist()]


def garp_holds(dataset: SubjectDataset, e: float) -> tuple[bool, list[tuple[int, int]]]:
    """GARP(e) with the list of violating ordered pairs (i, j), 0-based."""
    if not 0.0 <= e <= 1.0:
        raise ValidationError(f"efficiency must lie in [0, 1], got {e}")
    cross, own = _expenditures(dataset)
    _, pairs = _garp(cross, own, e)
    return not pairs, pairs


def _minimax_value(cross: np.ndarray, own: np.ndarray, labels: np.ndarray) -> float:
    """``min(1, min_ij max(B_ij, c_ji))`` from the cross and own expenditures (see :func:`ccei`).

    ``labels`` are the strongly connected components of the e = 1 relation.
    A term below 1 needs an i -> j path whose thresholds are all below 1, and
    ``c_ji < 1``; both mean edges of the e = 1 relation, so i, j and the path
    lie in one component.  Terms across components are >= 1, which
    ``min(1, .)`` caps, so the (max, min) pass runs on each component of more
    than one node alone; min and max are exact, so the value has the bits of
    the pass over all n observations.
    """
    thresholds = (cross - RELATION_TOL) / own[:, None]  # [i, j] = a_ij
    cheaper_from = (cross.T + RELATION_TOL) / own[None, :]  # [i, j] = c_ji
    value = 1.0
    for label in np.flatnonzero(np.bincount(labels) > 1):
        nodes = np.ix_(labels == label, labels == label)
        closure = thresholds[nodes]
        for k in range(len(closure)):
            np.minimum(closure, np.maximum(closure[:, k, None], closure[None, k, :]), out=closure)
        value = min(value, float(np.maximum(closure, cheaper_from[nodes]).min()))
    return value


def ccei(dataset: SubjectDataset) -> CceiResult:
    """Largest efficiency level at which GARP holds.

    GARP(e) fails exactly when some i reaches j through direct edges that
    all exist at e (edge k -> l exists from ``a_kl = (E_kl - tol) / E_kk``
    upward) while ``e > c_ji = (E_ji + tol) / E_jj``.  With ``B`` the
    minimax path closure of ``a``, the supremum of the consistent levels is
    therefore ``min_ij max(B_ij, c_ji)``, which :func:`_minimax_value` takes
    on the strongly connected components of the e = 1 relation.  That value
    sits within the tolerance of a cross/own expenditure ratio, where GARP's
    status changes, and is reported as the nearest such ratio.
    """
    cross, own = _expenditures(dataset)
    labels, pairs_at_1 = _garp(cross, own, 1.0)
    pairs = tuple(pairs_at_1)
    if not pairs:
        return CceiResult(1.0, pairs)

    value = _minimax_value(cross, own, labels)
    ratios = (cross / own[:, None])[~np.eye(dataset.n, dtype=bool)]
    candidates = np.unique(np.concatenate([ratios[(ratios >= 0.0) & (ratios <= 1.0)], [0.0, 1.0]]))
    return CceiResult(float(candidates[np.argmin(np.abs(candidates - value))]), pairs)


def fosd_violations(dataset: SubjectDataset) -> tuple[int, tuple[bool, ...]]:
    """Count rounds holding strictly more of the strictly dearer asset.

    With two equally likely states, swapping the holdings of such a bundle
    yields the same payoff distribution at strictly lower cost, so the chosen
    bundle is first-order stochastically dominated.
    """
    p_a, p_b = dataset.prices.T
    x_a, x_b = dataset.demand.T
    flags = ((p_a - p_b > FOSD_TOL) & (x_a - x_b > FOSD_TOL)) | (
        (p_b - p_a > FOSD_TOL) & (x_b - x_a > FOSD_TOL))
    return int(np.count_nonzero(flags)), tuple(flags.tolist())
