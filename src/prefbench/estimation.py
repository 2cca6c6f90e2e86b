"""Parametric recovery of (beta, rho) from choice data.

The criterion is nonlinear least squares in token-share space: the mean over
rounds of the squared gaps between observed and model-optimal allocations,
both divided by the 100-point budget.  The loss surface is piecewise smooth
with kink-induced flats, so the search runs in two stages: a coarse global
grid (beta linear, rho log-spaced), then a Nelder-Mead simplex refinement
from the grid optimum in an unconstrained reparameterization

    beta = beta_min + exp(b),    rho = exp(r).

Grid ties are broken lexicographically by (beta, rho); results are
deterministic given data and configuration.

The grid stage makes one pass per budget schedule (:func:`_grid_optima`):
datasets whose price and return matrices are equal byte for byte share it.
The model's demand depends on the prices only, so a pass computes it once per
block of beta rows (:func:`_block_kernel`), for every dataset on the
schedule, and never calls :func:`optimal_demand_grid`.  It computes demand
only where a candidate can win.  An interior's ratio is ``k = base^(1/rho)``,
and its base depends on the beta and the round but not on rho, so the kernel
classes each (beta, round) pair once per block by which of its two bases
exceed 1.  Rows with beta >= 0 take the closed-form maximizer (the utility
is concave on the budget line there), and at most one base exceeds 1: a pair
with none takes the round's kink tokens at every rho with no power, and a
pair with one takes one power per rho and one interior bundle.  Rows with
beta < 0 run the enumeration that :func:`optimal_demand_grid` runs, its
candidates (``da_model._candidates``) and its one selection and tie rule
(``da_model._Best``), with an interior left out on the pairs whose base is
<= 1, where it is inadmissible at every rho; the kink and corner felicities
of each rho column are computed once per schedule.  The classed pairs are
gathered in chunks of ``_PAIR_CELLS`` cells, so the kernel's temporaries
stay cache-sized, and a block's tokens stay in that gathered order, shared
by every dataset on the schedule.  Each dataset's per-round losses of a
block (:func:`_block_losses`) go into one reusable buffer: the kink pairs
take the round's kink loss, one number per round, and each chunk's loss is
formed on its gathered cells and scattered once.  Only a running first
minimum per dataset survives the block, so no per-round grid is kept.

With several prefix sizes, a pass runs them as stages, smallest first, each
on the schedule's first ``s`` rounds with the same kernel.  The first stage
runs every beta row; a later one runs only the rows that can still hold an
optimum (branch and bound, Land & Doig 1960).  A per-round loss is a
square, so a cell's sum over ``s`` rounds is at least its sum over fewer,
and a cell whose known sum already exceeds an achieved ``s``-round sum, by
a margin far above rounding, can neither win nor tie.  Rows where an
interior ratio may overflow, the only source of NaN losses, always run, so
every optimum is the full grid's bit for bit.  :func:`recover_batch` fits
every prefix of every dataset from its schedule's one staged pass.

The refinements of a whole batch (every prefix of every dataset) run in lock
step as :func:`_nelder_mead` generators, one per fit (scipy's algorithm
transcribed, on Python floats).  Each step values the pending points of all
fits in one call of a paired kernel (:class:`_PairedLoss`: K datasets, K
parameter pairs, K losses), which runs the same enumeration and selection on
the rounds of all K.  The same kernel serves :func:`fit_loss` and the final
comparison with the grid optimum, so the fits are those of scipy's
``minimize`` on one prefix at a time, evaluation counts included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .da_model import DAParams, _Budgets, _candidates, _demand, _interior, _optimum, _Valuation
from .data import SubjectDataset, dataset_prefix


def __getattr__(name: str):
    # only the benchmark tracer (bench/tracing.py) uses ``minimize``, and it
    # wraps the name it finds in this module's dict; a module-level import of
    # scipy.optimize adds about 0.6 s to every command's start.  Delete this
    # with the tracer target (ROADMAP item 2).
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RecoveryConfig:
    beta_min: float = -0.95
    beta_max: float = 3.0
    beta_step: float = 0.05
    rho_points: int = 60
    rho_min: float = 0.05
    rho_max: float = 5.0
    max_evals: int = 2000
    tol: float = 1e-6


@dataclass(frozen=True)
class FitResult:
    """A fit: ``evaluations`` counts every grid cell, whether or not a stage of the grid
    pass left cells out, plus the refinement's loss evaluations."""

    params: DAParams
    loss: float
    grid_best: DAParams
    converged: bool
    evaluations: int
    flags: tuple[str, ...] = ()


# grid cells per block of beta rows in a grid pass: bounds its temporaries
_BLOCK_CELLS = 1 << 16
# rounds refined in lock step at once: bounds the paired kernel's temporaries
_LOCK_STEP_ROUNDS = 1 << 16
# grid cells per chunk of (beta, round) pairs in a block: keeps the kernel's
# temporaries cache-sized
_PAIR_CELLS = 1 << 13
# a later stage of a grid pass leaves out a cell only if its known round-sum
# exceeds the stage's bound by this relative margin, far above rounding, and by
# _TINY per round (_grid_optima)
_SLACK = 1e-9
_TINY = float(np.finfo(float).tiny)
# a beta row whose interior ratio could exceed this is never left out (_unbounded_rows)
_RATIO_CAP = 1e300


def _beta_blocks(betas: np.ndarray, row_cells: int) -> list[slice]:
    """Consecutive blocks of beta rows of one sign, about ``_BLOCK_CELLS`` cells each, in order."""
    block = max(1, _BLOCK_CELLS // row_cells)
    negative = betas < 0.0
    edges = [0, *(np.flatnonzero(np.diff(negative)) + 1), len(betas)]
    return [slice(start, min(start + block, hi))
            for lo, hi in zip(edges, edges[1:]) for start in range(lo, hi, block)]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _block_kernel(prices: np.ndarray, returns: np.ndarray, rhos: np.ndarray):
    """The model's token allocations on one schedule, for a block of beta rows at a time.

    Returns ``tokens_at(betas, size)``, which maps betas of one sign, (B,), to
    the tokens ``(x_a / r_a, x_b / r_b)`` at the optimal demand ``x`` of every
    (beta, rho) pair and each of the schedule's first ``size`` rounds, as
    ``(kink, pieces)``.  ``pieces`` lists ``(rows, rounds, model_a,
    model_b)``: the (beta, round) pairs of one chunk, (pairs,) each, and their
    tokens in that gathered order, (pairs, R) each.  Every pair in no piece
    takes the round's kink tokens ``kink = (kink_a, kink_b)``, (size,) each, at
    every rho; with beta < 0 the pieces hold every pair and ``kink`` is None.
    Each token is computed on its own, so a round's tokens do not depend on
    ``size``.  Only the prices and returns enter, so every dataset on the
    schedule shares them (:func:`_block_losses`).  The pieces'
    tokens are views of one workspace per schedule, no larger than a block's
    two token arrays, and the next call overwrites them.

    Each interior's ratio is ``k = base^(1/rho)``, whose base depends on the
    beta and the round but not on rho: ``odds * p_b / p_a`` for A-high and
    ``odds * p_a / p_b`` for B-high, ``odds = w / (1 - w)``.  A base <= 1
    gives ``k <= 1`` at every rho, so the kernel classes each (beta, round)
    pair by which bases exceed 1, once per block, and computes an interior's
    power, bundle and felicities only on the pairs of its classes.  A class's
    pairs are gathered into (pairs, R) arrays, ``_PAIR_CELLS`` cells at a
    time so that the temporaries stay in cache, and their tokens are written
    into the workspace in that gathered order.

    With beta >= 0 the weight on the better outcome is at most 1/2, so U is
    the minimum of the two one-sided objectives ``w u(x_a) + (1-w) u(x_b)``
    and ``w u(x_b) + (1-w) u(x_a)``, which is concave on the budget line: an
    admissible interior (``k > 1``) is the maximizer, otherwise the kink is,
    and CRRA's infinite marginal felicity at zero rules out the corners.  At
    most one base exceeds 1, in floats too: ``w = fl(1 / (2 + beta)) <= 1/2``
    and ``fl(1 - w) >= 1/2``, so ``odds <= 1`` and each base is at most its
    price ratio, and ``fl(p_b / p_a) > 1`` and ``fl(p_a / p_b) > 1`` would need
    ``p_b > p_a`` and ``p_a > p_b``.  So a pair whose bases are both <= 1
    takes the kink's tokens at every rho with no power at all and is in no
    piece; a pair with a base above 1 takes one power per rho and its side's
    bundle at ``max(k, 1)``, which at ``k = 1`` is the kink bit for bit
    (``p_hi * 1.0 + p_lo`` is exactly ``p_a + p_b``).

    With beta < 0 each class goes through the enumeration that
    :func:`optimal_demand_grid` runs (``da_model._candidates`` and the tie rule
    of ``da_model._Best``) on its pairs, with an interior left out where its
    base is <= 1: there it is inadmissible at every rho, its utility -inf,
    and such a candidate never replaces the best.  So the demand is the
    enumeration's bit for bit.  The kink and corner felicities depend on rho
    and the round only, so they are computed once per schedule and gathered.
    """
    budgets = _Budgets(prices)
    r_a, r_b = returns[:, 0], returns[:, 1]
    inv_rho = 1.0 / rhos
    # (N, 2, 1) prices make (N, 1) price columns, which broadcast against (R,)
    # rho: the kink and corner felicities are (N, R), gathered by round
    value = _Valuation(rhos)
    f_kink, f_corners = value.fixed_felicities(_Budgets(prices[:, :, None]))
    kink = budgets.kink / r_a, budgets.kink / r_b
    step = max(1, _PAIR_CELLS // len(rhos))
    workspace = np.empty((2, 0))

    def chunks(mask: np.ndarray):
        """``(rows, rounds)`` of the pairs where ``mask``, at most ``step`` pairs at a time."""
        rows, rounds = np.nonzero(mask)
        for start in range(0, len(rows), step):
            yield rows[start:start + step], rounds[start:start + step]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def tokens_at(betas: np.ndarray, size: int):
        nonlocal workspace
        cells = len(betas) * len(rhos) * size
        if workspace.shape[1] < cells:
            workspace = np.empty((2, cells))
        pieces, used = [], 0

        def add(rows: np.ndarray, rounds: np.ndarray, x_a: np.ndarray, x_b: np.ndarray):
            """A piece of the pairs' tokens at demand ``x``, written into the workspace after
            the pieces before it."""
            nonlocal used
            size = len(rows) * len(rhos)
            model_a, model_b = (part[used:used + size].reshape(len(rows), len(rhos))
                                for part in workspace)
            np.divide(x_a, r_a[rounds, None], out=model_a)
            np.divide(x_b, r_b[rounds, None], out=model_b)
            pieces.append((rows, rounds, model_a, model_b))
            used += size

        w = 1.0 / (2.0 + betas[:, None])
        odds = w / (1.0 - w)
        base_a, base_b = odds * budgets.ratio_a[:size], odds * budgets.ratio_b[:size]
        if betas[0] < 0.0:
            above_a, above_b = base_a > 1.0, base_b > 1.0
            for has_a, has_b in ((True, True), (True, False), (False, True), (False, False)):
                for rows, rounds in chunks((above_a == has_a) & (above_b == has_b)):
                    k_a = np.power(base_a[rows, rounds][:, None], inv_rho) if has_a else None
                    k_b = np.power(base_b[rows, rounds][:, None], inv_rho) if has_b else None
                    felicities = f_kink[rounds], (None if f_corners is None else
                                                  (f_corners[0][rounds], f_corners[1][rounds]))
                    x_a, x_b = _optimum(_candidates(_Budgets(prices[rounds, :, None]),
                                                    value.weighted(w[rows]), k_a, k_b, felicities))
                    add(rows, rounds, x_a, x_b)
            return None, pieces
        for base, p_hi, p_lo, high_a in ((base_a, budgets.p_a, budgets.p_b, True),
                                         (base_b, budgets.p_b, budgets.p_a, False)):
            for rows, rounds in chunks(base > 1.0):
                k = np.maximum(np.power(base[rows, rounds][:, None], inv_rho), 1.0)
                x_hi, x_lo = _interior(p_hi[rounds, None], p_lo[rounds, None], k)
                add(rows, rounds, *((x_hi, x_lo) if high_a else (x_lo, x_hi)))
        return (kink[0][:size], kink[1][:size]), pieces

    return tokens_at


@np.errstate(over="ignore", invalid="ignore")
def _token_losses(model_a: np.ndarray, model_b: np.ndarray, t_a: np.ndarray,
                  t_b: np.ndarray) -> np.ndarray:
    """Squared token-share gap per cell, ``gap_a**2 + gap_b**2``, in a new array.

    ``gap_i = (model_i - t_i) / 100`` for the model's token allocations and
    a dataset's tokens ``t_a`` and ``t_b``, which broadcast against them.
    """
    loss = np.subtract(model_a, t_a)
    loss /= 100.0
    loss *= loss
    gap_b = np.subtract(model_b, t_b)
    gap_b /= 100.0
    gap_b *= gap_b
    loss += gap_b
    return loss


def _block_losses(block, tokens: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One dataset's squared token-share gap per cell of a block, written into ``out``.

    ``block`` is ``tokens_at(betas, size)`` of :func:`_block_kernel`,
    ``tokens`` the dataset's first ``size`` rounds, (size, 2), and ``out``
    (B, R, size).  A pair that takes the kink at every rho takes the round's
    kink loss, one number per round broadcast over its rows and rho columns;
    the loss of each piece is computed on its gathered (pairs, R) cells and
    scattered once.  Every cell's float is that of the gap formula on the
    full token array.
    """
    kink, pieces = block
    t_a, t_b = tokens[:, 0], tokens[:, 1]
    if kink is not None:
        out[...] = _token_losses(*kink, t_a, t_b)
    for rows, rounds, model_a, model_b in pieces:
        out[rows, :, rounds] = _token_losses(model_a, model_b, t_a[rounds, None], t_b[rounds, None])
    return out


def _unbounded_rows(prices: np.ndarray, betas: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The beta rows whose interior ratio ``k = base^(1/rho)`` may overflow at some round
    and rho, as a (B,) mask: a bundle, and so a loss, can be NaN only there.

    A row's largest base is its odds times the schedule's largest price ratio,
    and its largest power is at the grid's largest ``1/rho``; a row is flagged
    unless that power is <= ``_RATIO_CAP``, far below the overflow, NaN
    included.
    """
    w = 1.0 / (2.0 + betas)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = max(np.max(prices[:, 1] / prices[:, 0]), np.max(prices[:, 0] / prices[:, 1]))
        return ~(np.power(w / (1.0 - w) * ratio, np.max(1.0 / rhos)) <= _RATIO_CAP)


def _argmin_order(cell: tuple[float, int]) -> tuple[bool, float, int]:
    """A (mean, flat index) cell's place in ``np.argmin``'s order: a NaN mean first, then
    the smaller mean, then the earlier cell."""
    mean, index = cell
    return not math.isnan(mean), 0.0 if math.isnan(mean) else mean, index


def _grid_optima(prices: np.ndarray, returns: np.ndarray, members: Sequence[np.ndarray],
                 sizes: Sequence[int], betas: np.ndarray, rhos: np.ndarray) -> list[list[int]]:
    """Each member's grid optimum for each prefix size, as a flat (beta, rho) index.

    ``members`` are the token matrices of datasets on one schedule.  The
    distinct sizes run as stages, smallest first, each on the schedule's first
    ``s`` rounds, with one kernel (:func:`_block_kernel`) for all of them.  A
    stage computes the model's token allocations once per block of the beta
    rows it runs, in the kernel's gathered order, and shares them; each
    member's per-round losses of the block go into one reusable buffer
    (:func:`_block_losses`), and the sum of a row's ``s`` columns divided by
    ``s`` is the grid loss of the ``s``-round prefix on its own.  Only a
    running first minimum per member is kept across the blocks, by
    ``np.argmin``'s rule (:func:`_argmin_order`): the first NaN if there is one,
    else the first smallest mean, which is the lexicographic (beta, rho) tie
    rule.

    The first stage runs every row.  A later stage ``s`` can leave rows out,
    because a per-round loss is a square, so >= 0, and a cell's sum over its
    first ``s`` rounds is at least its sum over fewer (branch and bound; Land
    & Doig 1960).  Each member keeps ``known``, every cell's round-sum from
    the latest stage that ran it.  The stage first runs the rows of the
    members' previous optima; a member's smallest mean there, ``U``, times
    ``s`` bounds its ``s``-round minimum sum from above.  The stage then runs
    every other row in which some member has a cell that is not ``known >
    U * s * (1 + _SLACK) + s * _TINY``, and every row of
    :func:`_unbounded_rows`.  A pairwise sum errs by about ``n * eps``, far
    below ``_SLACK``, and the ``_TINY`` per round keeps a left-out sum normal
    when ``U`` is subnormal or zero, so a left-out cell's ``s``-round mean is
    strictly above ``U``: it can neither win nor tie.  A NaN mean comes only
    from a NaN bundle, where ``k`` overflows, so it lies in a row that always
    runs; a NaN ``U`` or ``known`` fails the ``>`` test and leaves nothing
    out.  So every optimum is the one of the full grid, bit for bit.  With a
    single size there is one stage over every row, and no bound or ``known``.
    """
    stages = sorted(set(sizes))
    cols = len(rhos)
    tokens_at = _block_kernel(prices, returns, rhos)
    # each stage's blocks have at most max(_BLOCK_CELLS, one row) cells
    buffer = np.empty(max((min(len(betas), max(1, _BLOCK_CELLS // (cols * s))) * cols * s
                           for s in stages), default=0))
    known = np.empty((len(members), len(betas), cols)) if len(stages) > 1 else None
    unbounded = _unbounded_rows(prices, betas, rhos) if known is not None else None
    best: list[tuple[float, int]] = []

    def run(rows: np.ndarray, size: int):
        """Every member's ``size``-round losses on ``rows``, merged into ``best`` and ``known``."""
        row_cells = cols * size
        for block in _beta_blocks(betas[rows], row_cells):
            at = rows[block]
            tokens = tokens_at(betas[at], size)
            out = buffer[:len(at) * row_cells].reshape(len(at), cols, size)
            for m, member in enumerate(members):
                per_round = _block_losses(tokens, member[:size], out).reshape(-1, size)
                sums = np.add.reduce(per_round, axis=1)
                means = sums / size  # the bits of .mean
                i = int(np.argmin(means))
                cell = float(means[i]), int(at[i // cols]) * cols + i % cols
                best[m] = min(best[m], cell, key=_argmin_order)
                if known is not None:
                    known[m, at] = sums.reshape(len(at), cols)

    optima = {}
    for size in stages:
        # the first stage runs every row, a later one first the rows of the last optima
        seeds = (np.array(sorted({index // cols for _, index in best})) if best
                 else np.arange(len(betas)))
        best[:] = [(math.inf, len(betas) * cols)] * len(members)  # every cell beats it
        run(seeds, size)
        if optima:
            limit = np.array([mean for mean, _ in best]) * size * (1.0 + _SLACK) + size * _TINY
            rest = ~np.all(known > limit[:, None, None], axis=(0, 2)) | unbounded
            rest[seeds] = False
            run(np.flatnonzero(rest), size)
        optima[size] = [index for _, index in best]
    return [[optima[size][m] for size in sizes] for m in range(len(members))]


class _PairedLoss:
    """Token-share loss of K datasets, each at its own parameter pair: K pairs -> K losses.

    ``loss(beta, rho)`` gives, for dataset ``i``, the float that
    :func:`optimal_demand_grid` at G = 1 on that dataset followed by the mean
    squared token-share gap gives at ``(beta[i], rho[i])``, for positive prices
    with a finite sum and finite ratios: it makes the same demand call
    (``da_model._demand``).  The datasets' rounds are concatenated once, with
    the price ratios, kink and corner bundles.  A call spreads beta and rho
    over each dataset's rounds with ``np.repeat`` and derives everything else
    per round: the log felicity is taken only on rounds whose rho is within
    ``_LOG_RHO_EPS`` of 1, the corners are evaluated only if some pair has
    rho < 1, and an interior is left out when its base is <= 1 on every
    round.  The datasets are stored by length, so the losses are row means of
    one (datasets, rounds) block per length, which give the bits of each
    dataset's own mean.
    """

    def __init__(self, data: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        lengths = np.array([len(prices) for prices, _, _ in data], dtype=np.intp)
        self._order = np.argsort(lengths, kind="stable")
        self._lengths = lengths[self._order]
        prices, returns, tokens = (np.concatenate([data[i][k] for i in self._order])
                                   for k in range(3))
        self._budgets = _Budgets(prices)
        self._r_a, self._r_b = returns[:, 0], returns[:, 1]
        self._t_a, self._t_b = tokens[:, 0], tokens[:, 1]
        # (first round, datasets, rounds each) per length
        sizes, counts = np.unique(self._lengths, return_counts=True)
        firsts = np.concatenate([[0], np.cumsum(sizes * counts)])
        self._blocks = list(zip(firsts.tolist(), counts.tolist(), sizes.tolist()))

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def __call__(self, beta: np.ndarray, rho: np.ndarray) -> np.ndarray:
        rho = np.repeat(rho[self._order], self._lengths)
        w = 1.0 / (2.0 + np.repeat(beta[self._order], self._lengths))
        best_xa, best_xb = _demand(self._budgets, w, rho)
        gap_a = (best_xa / self._r_a - self._t_a) / 100.0
        gap_b = (best_xb / self._r_b - self._t_b) / 100.0
        per_round = gap_a * gap_a + gap_b * gap_b
        losses = np.empty(len(beta))
        losses[self._order] = np.concatenate([
            np.add.reduce(per_round[first:first + count * length].reshape(count, length), axis=1)
            / length
            for first, count, length in self._blocks
        ])
        return losses


def fit_loss(dataset: SubjectDataset, params: DAParams) -> float:
    """Mean squared token-share distance between data and model-optimal choices."""
    loss = _PairedLoss([(dataset.prices, dataset.returns, dataset.tokens)])
    return float(loss(np.array([params.beta]), np.array([params.rho]))[0])


class _MaxEvalsReached(Exception):
    """The evaluation cap, raised before the evaluation that would exceed it."""


def _nelder_mead(z0: Sequence[float], maxfev: int, xatol: float, fatol: float):
    """Nelder-Mead as a generator: yields each point it wants, is sent that point's loss.

    A transcription of ``_minimize_neldermead`` from scipy 1.17.1
    (``scipy/optimize/_optimize.py``; BSD 3-clause licence, copyright the
    SciPy developers) in two dimensions, restricted to the path the
    refinement uses: no bounds, not adaptive, the default initial simplex
    (each nonzero coordinate of ``z0`` scaled by 1.05 in turn, a zero one
    set to 0.00025) and only ``maxfev`` set, so ``maxiter`` is infinite and
    the iteration count decides nothing.  The control flow is scipy's, and
    its numpy expressions are written out on Python floats, whose arithmetic
    and comparisons are the same float64 ones; the simplex is sorted by
    ``np.argsort``, as scipy sorts it, ties and NaN included.  So the
    iterates, the evaluation count and the outcome are those of
    ``minimize(..., method="Nelder-Mead", options={"maxfev", "xatol",
    "fatol"})`` bit for bit.  As in scipy, the cap is checked before each
    evaluation; reaching it leaves the current iteration, and the simplex is
    still sorted.  Returns ``(x, nfev, success)``; success is false exactly
    when the cap was reached.
    """
    nonzdelt, zdelt = 0.05, 0.00025
    a, b = (float(z) for z in z0)
    sim = [[a, b], [(1 + nonzdelt) * a if a != 0 else zdelt, b],
           [a, (1 + nonzdelt) * b if b != 0 else zdelt]]
    fsim = [math.inf] * 3
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxEvalsReached
        nfev += 1
        return (yield x)

    def sort():
        f0, f1, f2 = fsim
        # three distinct numbers have one order; ties, signed zeros and NaN take
        # np.argsort's, as in scipy
        if f0 < f1 < f2:
            return
        if f0 != f1 != f2 != f0 and not math.isnan(f0 + f1 + f2):
            order = sorted(range(3), key=fsim.__getitem__)
        else:
            order = np.argsort(fsim).tolist()
        sim[:] = [sim[k] for k in order]
        fsim[:] = [fsim[k] for k in order]

    try:
        for k in range(3):
            fsim[k] = yield from func(sim[k])
    except _MaxEvalsReached:
        pass
    sort()
    sort()

    # scipy's coefficients rho, chi, psi, sigma = 1, 2, 0.5, 0.5 multiplied out
    while nfev < maxfev:
        try:
            (a0, b0), (a1, b1), (w0, w1) = sim
            # np.max(...) <= tol, NaN included, is every element <= tol
            if (abs(a1 - a0) <= xatol and abs(b1 - b0) <= xatol and abs(w0 - a0) <= xatol
                    and abs(w1 - b0) <= xatol and abs(fsim[0] - fsim[1]) <= fatol
                    and abs(fsim[0] - fsim[2]) <= fatol):
                break

            c0, c1 = (a0 + a1) / 2, (b0 + b1) / 2  # xbar, the centroid of the best two
            xr = [2 * c0 - w0, 2 * c1 - w1]  # (1 + rho) xbar - rho x_worst
            fxr = yield from func(xr)
            doshrink = False

            if fxr < fsim[0]:
                # (1 + rho chi) xbar - rho chi x_worst
                xe = [3 * c0 - 2 * w0, 3 * c1 - 2 * w1]
                fxe = yield from func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                # (1 + psi rho) xbar - psi rho x_worst
                xc = [1.5 * c0 - 0.5 * w0, 1.5 * c1 - 0.5 * w1]
                fxc = yield from func(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                xcc = [0.5 * c0 + 0.5 * w0, 0.5 * c1 + 0.5 * w1]  # (1 - psi) xbar + psi x_worst
                fxcc = yield from func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True

            if doshrink:
                for j in (1, 2):  # x_0 + sigma (x_j - x_0)
                    sim[j] = [a0 + 0.5 * (sim[j][0] - a0), b0 + 0.5 * (sim[j][1] - b0)]
                    fsim[j] = yield from func(sim[j])
        except _MaxEvalsReached:
            pass
        sort()

    return sim[0], nfev, nfev < maxfev


def _beta_rows(config: RecoveryConfig) -> float:
    """Rows of the grid's beta axis, as a float (inf where the count overflows one)."""
    return round((config.beta_max - config.beta_min) / config.beta_step, 0) + 1


def _parameter_grid(config: RecoveryConfig) -> tuple[np.ndarray, np.ndarray]:
    """The grid's axes: betas (linear) and rhos (log-spaced)."""
    betas = config.beta_min + config.beta_step * np.arange(int(_beta_rows(config)))
    rhos = np.exp(np.linspace(math.log(config.rho_min), math.log(config.rho_max), config.rho_points))
    return betas, rhos


def recover_params(dataset: SubjectDataset, config: RecoveryConfig | None = None) -> FitResult:
    """Two-stage recovery; degenerate data yields a flagged, unconverged result.

    The refinement never loses to the grid optimum: the returned parameters
    are whichever of the two has the smaller loss under :func:`fit_loss`.
    """
    return recover_batch([dataset], None, config)[0][dataset.n]


def recover_batch(
    datasets: Iterable[SubjectDataset], sizes: Sequence[int] | None = None,
    config: RecoveryConfig | None = None,
) -> list[dict[int, FitResult]]:
    """:func:`recover_params` on the first ``s`` rounds of every dataset, for every ``s`` in
    ``sizes``; on each one's full length if ``sizes`` is None.

    Datasets whose price and return matrices are equal byte for byte share
    one schedule, and each schedule gets one grid pass (:func:`_grid_optima`):
    the model's demand is computed once per block of beta rows for all of its
    datasets, and only their token gaps are computed per dataset.  The
    distinct sizes run as stages, smallest first, and a later stage skips
    the beta rows that provably hold no optimum of its size; the optima are
    those of a full pass per size, bit for bit.  No per-round grid is kept:
    with one size a pass keeps a running minimum per dataset, and with
    several also each cell's latest round-sum, ``B * R`` floats per dataset.
    Only the data matrices are kept, so a generator of datasets holds one at
    a time.  Then the refinements of
    every dataset and prefix advance in lock step (:func:`_refine_batch`), in
    dataset order.  The fits are those of one dataset at a time, bit for bit,
    whatever the batch.
    """
    config = config or RecoveryConfig()
    betas, rhos = _parameter_grid(config)
    entries = []  # (sizes and flags, data matrices) per dataset
    schedules: dict[tuple[int, bytes, bytes], list[int]] = {}
    for dataset in datasets:
        flagged = [(size, _flags(dataset_prefix(dataset, size)))
                   for size in (sizes if sizes is not None else (dataset.n,))]
        data = dataset.prices, dataset.returns, dataset.tokens
        schedules.setdefault((dataset.n, data[0].tobytes(), data[1].tobytes()),
                             []).append(len(entries))
        entries.append((flagged, data))
    optima: dict[int, list[int]] = {}
    for members in schedules.values():
        flagged, (prices, returns, _) = entries[members[0]]
        optima.update(zip(members, _grid_optima(
            prices, returns, [entries[i][1][2] for i in members],
            [size for size, _ in flagged], betas, rhos)))
    results: list[dict[int, FitResult]] = []
    slots, fits = [], []
    for i, (flagged, data) in enumerate(entries):
        results.append({})
        for (size, flags), best_at in zip(flagged, optima[i]):
            beta_at, rho_at = divmod(best_at, len(rhos))
            grid_best = DAParams(float(betas[beta_at]), float(rhos[rho_at]))
            slots.append((results[-1], size))
            fits.append((flags, grid_best, tuple(column[:size] for column in data)))
    for (by_size, size), fit in zip(slots, _refine_batch(fits, len(betas) * len(rhos), config)):
        by_size[size] = fit
    return results


def _flags(dataset: SubjectDataset) -> tuple[str, ...]:
    """Why the rounds cannot pin two parameters, if they cannot."""
    if dataset.n < 2:
        return ("insufficient_rounds",)
    if (dataset.prices == dataset.prices[0]).all() and (dataset.tokens == dataset.tokens[0]).all():
        return ("degenerate_rounds",)
    return ()


def _refine_batch(
    fits: Sequence[tuple[tuple[str, ...], DAParams, tuple[np.ndarray, np.ndarray, np.ndarray]]],
    evaluations: int, config: RecoveryConfig,
) -> list[FitResult]:
    """Nelder-Mead from each grid optimum, unless the rounds cannot pin two parameters.

    ``fits`` holds (flags, grid optimum, price, return and token matrices); a
    flagged fit keeps its grid optimum.  Consecutive fits of at most
    ``_LOCK_STEP_ROUNDS`` rounds in all are refined together
    (:func:`_refine_group`), which bounds the paired kernel's temporaries
    whatever the batch size.
    """
    results: list[FitResult] = []
    group: list = []
    rounds = 0
    for fit in fits:
        if group and rounds + len(fit[2][0]) > _LOCK_STEP_ROUNDS:
            results += _refine_group(group, evaluations, config)
            group, rounds = [], 0
        group.append(fit)
        rounds += len(fit[2][0])
    if group:
        results += _refine_group(group, evaluations, config)
    return results


def _refine_group(
    fits: Sequence[tuple[tuple[str, ...], DAParams, tuple[np.ndarray, np.ndarray, np.ndarray]]],
    evaluations: int, config: RecoveryConfig,
) -> list[FitResult]:
    """:func:`_refine_batch` on fits whose refinements all advance in lock step.

    The refinements run as :func:`_nelder_mead` generators: each step
    evaluates the next point of every active one in one :class:`_PairedLoss`
    call, and the kernel is rebuilt only when a refinement finishes.  One more
    call values every grid optimum and every refined point, for the flagged
    fits and the final comparisons.
    """
    beta_floor = config.beta_min

    def from_unconstrained(z: Sequence[float]) -> tuple[float, float]:
        # exponents clamped so stray simplex probes stay finite; the loss is
        # flat (all-kink demand) at such extreme parameters anyway
        beta = beta_floor + math.exp(min(max(float(z[0]), -60.0), 60.0))
        rho = math.exp(min(max(float(z[1]), -60.0), 60.0))
        return beta, rho

    runs = {
        i: _nelder_mead(np.array([math.log(max(grid_best.beta - beta_floor, 1e-8)),
                                  math.log(grid_best.rho)]),
                        config.max_evals, config.tol, 1e-14)
        for i, (flags, grid_best, _) in enumerate(fits) if not flags
    }
    points: dict[int, list[float]] = {}
    outcomes: dict[int, tuple[list[float], int, bool]] = {}

    def advance(i: int, loss: float | None) -> bool:
        try:
            points[i] = runs[i].send(loss)
            return True
        except StopIteration as stop:
            outcomes[i] = stop.value
            return False

    active = [i for i in runs if advance(i, None)]
    while active:
        loss, stepping = _PairedLoss([fits[i][2] for i in active]), len(active)
        while len(active) == stepping:
            beta, rho = np.array([from_unconstrained(points[i]) for i in active]).T
            active = [i for i, value in zip(active, loss(beta, rho).tolist()) if advance(i, value)]

    refined = {i: DAParams(*from_unconstrained(outcomes[i][0])) for i in runs}
    valued = [(data, grid_best) for _, grid_best, data in fits]
    valued += [(fits[i][2], refined[i]) for i in runs]
    values = _PairedLoss([data for data, _ in valued])(
        np.array([params.beta for _, params in valued]),
        np.array([params.rho for _, params in valued]),
    ).tolist()
    refined_loss = dict(zip(runs, values[len(fits):]))

    results = []
    for i, (flags, grid_best, _) in enumerate(fits):
        grid_loss = values[i]
        if flags:
            results.append(FitResult(grid_best, grid_loss, grid_best, False, evaluations, flags))
            continue
        _, nfev, success = outcomes[i]
        if refined_loss[i] <= grid_loss:
            params, best = refined[i], refined_loss[i]
        else:
            params, best = grid_best, grid_loss
        results.append(FitResult(params, best, grid_best, success, evaluations + nfev, ()))
    return results
