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
stay cache-sized, and its tokens go into one workspace per pass.  Each
dataset's per-round losses of a block (:func:`_token_losses`) go into one
reusable buffer, averaged over the first ``s`` rounds for every prefix size
``s``; only a running first minimum per dataset and size survives the block,
so no per-round grid is kept and :func:`recover_batch` fits every prefix of
every dataset from its schedule's one pass.

The refinements of a whole batch (every prefix of every dataset) run in lock
step: each is a Nelder-Mead generator (:func:`_nelder_mead`, scipy's
algorithm transcribed) that yields the point it wants next, and each step
values the pending points of all of them in one call of a paired kernel
(:class:`_PairedLoss`: K datasets, K parameter pairs, K losses), which runs
the same enumeration and selection on the rounds of all K.  The same kernel serves
:func:`fit_loss` and the final comparison with the grid optimum, so the fits
are those of scipy's ``minimize`` on one prefix at a time, evaluation counts
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
# unused here: the benchmark tracer (bench/tracing.py) wraps this name when a
# traced run starts and fails if it is missing
from scipy.optimize import minimize  # noqa: F401

from .da_model import DAParams, _Budgets, _candidates, _interior, _optimum, _Valuation
from .data import SubjectDataset, dataset_prefix


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

    Returns ``tokens_at(betas)``, which maps betas of one sign, (B,), to
    ``(x_a / r_a, x_b / r_b)``, each (B, R, N), at the optimal demand ``x`` of
    every (beta, rho) pair and round.  Only the prices and returns enter, so
    every dataset on the schedule shares them.  The two arrays are views of
    one workspace per schedule, overwritten by the next call.

    Each interior's ratio is ``k = base^(1/rho)``, whose base depends on the
    beta and the round but not on rho: ``odds * p_b / p_a`` for A-high and
    ``odds * p_a / p_b`` for B-high, ``odds = w / (1 - w)``.  A base <= 1
    gives ``k <= 1`` at every rho, so the kernel classes each (beta, round)
    pair by which bases exceed 1, once per block, and computes an interior's
    power, bundle and felicities only on the pairs of its classes.  A class's
    pairs are gathered into (pairs, R) arrays, ``_PAIR_CELLS`` cells at a
    time so that the temporaries stay in cache, and their tokens are scattered
    back into the workspace.

    With beta >= 0 the weight on the better outcome is at most 1/2, so U is
    the minimum of the two one-sided objectives ``w u(x_a) + (1-w) u(x_b)``
    and ``w u(x_b) + (1-w) u(x_a)``, which is concave on the budget line: an
    admissible interior (``k > 1``) is the maximizer, otherwise the kink is,
    and CRRA's infinite marginal felicity at zero rules out the corners.  At
    most one base exceeds 1, in floats too: ``w = fl(1 / (2 + beta)) <= 1/2``
    and ``fl(1 - w) >= 1/2``, so ``odds <= 1`` and each base is at most its
    price ratio, and ``fl(p_b / p_a) > 1`` and ``fl(p_a / p_b) > 1`` would need
    ``p_b > p_a`` and ``p_a > p_b``.  So a pair whose bases are both <= 1
    takes the kink's tokens, computed once per round, at every rho with no
    power at all; a pair with a base above 1 takes one power per rho and its
    side's bundle at ``max(k, 1)``, which at ``k = 1`` is the kink bit for bit
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
    kink_a, kink_b = budgets.kink / r_a, budgets.kink / r_b
    step = max(1, _PAIR_CELLS // len(rhos))
    workspace = np.empty((2, 0))

    def chunks(mask: np.ndarray):
        """``(rows, rounds)`` of the pairs where ``mask``, at most ``step`` pairs at a time."""
        rows, rounds = np.nonzero(mask)
        for start in range(0, len(rows), step):
            yield rows[start:start + step], rounds[start:start + step]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def tokens_at(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal workspace
        shape = (len(betas), len(rhos), len(prices))
        cells = math.prod(shape)
        if workspace.shape[1] < cells:
            workspace = np.empty((2, cells))
        model_a, model_b = (part[:cells].reshape(shape) for part in workspace)
        w = 1.0 / (2.0 + betas[:, None])
        odds = w / (1.0 - w)
        base_a, base_b = odds * budgets.ratio_a, odds * budgets.ratio_b
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
                    model_a[rows, :, rounds] = x_a / r_a[rounds, None]
                    model_b[rows, :, rounds] = x_b / r_b[rounds, None]
        else:
            model_a[...] = kink_a
            model_b[...] = kink_b
            for base, p_hi, p_lo, (out_hi, r_hi), (out_lo, r_lo) in (
                    (base_a, budgets.p_a, budgets.p_b, (model_a, r_a), (model_b, r_b)),
                    (base_b, budgets.p_b, budgets.p_a, (model_b, r_b), (model_a, r_a))):
                for rows, rounds in chunks(base > 1.0):
                    k = np.maximum(np.power(base[rows, rounds][:, None], inv_rho), 1.0)
                    x_hi, x_lo = _interior(p_hi[rounds, None], p_lo[rounds, None], k)
                    out_hi[rows, :, rounds] = x_hi / r_hi[rounds, None]
                    out_lo[rows, :, rounds] = x_lo / r_lo[rounds, None]
        return model_a, model_b

    return tokens_at


@np.errstate(over="ignore", invalid="ignore")
def _token_losses(model_a: np.ndarray, model_b: np.ndarray, tokens: np.ndarray,
                  out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Squared token-share gap per cell, ``gap_a**2 + gap_b**2``, written into ``out``.

    ``gap_i = (model_i - t_i) / 100`` for the model's token allocations
    (:func:`_block_kernel`) and one dataset's tokens, (N, 2); ``scratch``
    has ``out``'s shape and is overwritten.
    """
    for model, column, gap in ((model_a, 0, out), (model_b, 1, scratch)):
        np.subtract(model, tokens[:, column], out=gap)
        gap /= 100.0
        gap *= gap
    out += scratch
    return out


def _grid_optima(prices: np.ndarray, returns: np.ndarray, members: Sequence[np.ndarray],
                 sizes: Sequence[int], betas: np.ndarray, rhos: np.ndarray) -> list[list[int]]:
    """Each member's grid optimum for each prefix size, as a flat (beta, rho) index.

    ``members`` are the token matrices of datasets on one schedule.  The
    model's token allocations are computed once per block of beta rows and
    shared; each member's per-round losses of the block go into one reusable
    buffer, whose first ``s`` columns are averaged for every size ``s``.  The
    mean of a row's first ``s`` columns is the grid loss of the ``s``-round
    prefix on its own.  Only a running first minimum per member and size is
    kept, merged across the blocks in grid order by ``np.argmin``'s rule: the
    first NaN if there is one, else the first smallest mean, which is the
    lexicographic (beta, rho) tie rule.
    """
    row_cells = len(rhos) * len(prices)
    blocks = _beta_blocks(betas, row_cells)
    tokens_at = _block_kernel(prices, returns, rhos)
    buffers = np.empty((2, max(rows.stop - rows.start for rows in blocks) * row_cells))
    minima: list[list[tuple[float, int] | None]] = [[None] * len(sizes) for _ in members]
    for rows in blocks:
        model_a, model_b = tokens_at(betas[rows])
        out, scratch = (buffer[:model_a.size].reshape(model_a.shape) for buffer in buffers)
        first = rows.start * len(rhos)
        for tokens, best in zip(members, minima):
            per_round = _token_losses(model_a, model_b, tokens, out, scratch).reshape(-1, len(prices))
            for k, size in enumerate(sizes):
                means = np.add.reduce(per_round[:, :size], axis=1) / size  # the bits of .mean
                at = int(np.argmin(means))
                value = float(means[at])
                if best[k] is None or (not math.isnan(best[k][0])
                                       and (math.isnan(value) or value < best[k][0])):
                    best[k] = value, first + at
    return [[index for _, index in best] for best in minima]


class _PairedLoss:
    """Token-share loss of K datasets, each at its own parameter pair: K pairs -> K losses.

    ``loss(beta, rho)`` gives, for dataset ``i``, the float that
    :func:`optimal_demand_grid` at G = 1 on that dataset followed by the mean
    squared token-share gap gives at ``(beta[i], rho[i])``, for positive prices
    with a finite sum and finite ratios: it runs the same enumeration
    (``da_model._candidates`` and the tie rule of ``da_model._Best``).  The
    datasets' rounds are concatenated once, with the price ratios, kink and
    corner bundles.  A call spreads beta and rho over each dataset's rounds
    with ``np.repeat`` and derives everything else per round: the log
    felicity is taken only on rounds whose rho is within ``_LOG_RHO_EPS`` of
    1, the corners are evaluated only if some pair has rho < 1, and an
    interior is left out when its base is <= 1 on every round.  The datasets
    are stored by length, so the losses are row means of one (datasets,
    rounds) block per length, which give the bits of each dataset's own mean.
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
        value = _Valuation(rho, w)
        odds, inv_rho = w / (1.0 - w), 1.0 / rho
        # an interior whose base is <= 1 on every round is inadmissible on all of them
        k_a, k_b = (np.power(base, inv_rho) if np.count_nonzero(base > 1.0) else None
                    for base in (odds * self._budgets.ratio_a, odds * self._budgets.ratio_b))
        best_xa, best_xb = _optimum(_candidates(self._budgets, value, k_a, k_b,
                                                value.fixed_felicities(self._budgets)))

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
    loss = _PairedLoss([(dataset.price_matrix(), dataset.return_matrix(), dataset.token_matrix())])
    return float(loss(np.array([params.beta]), np.array([params.rho]))[0])


class _MaxEvalsReached(Exception):
    """The evaluation cap, raised before the evaluation that would exceed it."""


def _nelder_mead(z0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Nelder-Mead as a generator: yields each point it wants, is sent that point's loss.

    A transcription of ``_minimize_neldermead`` from scipy 1.17.1
    (``scipy/optimize/_optimize.py``; BSD 3-clause licence, copyright the
    SciPy developers), restricted to the path the refinement uses: no bounds,
    not adaptive, the default initial simplex (each nonzero coordinate of
    ``z0`` scaled by 1.05 in turn, a zero one set to 0.00025) and only
    ``maxfev`` set, so ``maxiter`` is infinite and the iteration count decides
    nothing.  The numpy expressions and their order are scipy's, and each
    point is yielded as a copy, as scipy's wrapper passes it; so the iterates,
    the evaluation count and the outcome are those of ``minimize(...,
    method="Nelder-Mead", options={"maxfev", "xatol", "fatol"})`` bit for bit.
    As in scipy, the cap is checked before each evaluation; reaching it leaves
    the current iteration, and the simplex is still sorted.  Returns ``(x,
    nfev, success)``; success is false exactly when the cap was reached.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(np.atleast_1d(z0).flatten(), dtype=float)
    n = len(x0)
    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxEvalsReached
        nfev += 1
        return (yield np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = yield from func(sim[k])
    except _MaxEvalsReached:
        pass
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)

    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break

            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = yield from func(xr)
            doshrink = 0

            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = yield from func(xe)

                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            else:  # fsim[0] <= fxr
                if fxr < fsim[-2]:
                    sim[-1] = xr
                    fsim[-1] = fxr
                else:  # fxr >= fsim[-2]
                    # contraction
                    if fxr < fsim[-1]:
                        xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                        fxc = yield from func(xc)

                        if fxc <= fxr:
                            sim[-1] = xc
                            fsim[-1] = fxc
                        else:
                            doshrink = 1
                    else:
                        # inside contraction
                        xcc = (1 - psi) * xbar + psi * sim[-1]
                        fxcc = yield from func(xcc)

                        if fxcc < fsim[-1]:
                            sim[-1] = xcc
                            fsim[-1] = fxcc
                        else:
                            doshrink = 1

                    if doshrink:
                        for j in range(1, n + 1):
                            sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                            fsim[j] = yield from func(sim[j])
        except _MaxEvalsReached:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

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


def recover_prefixes(
    dataset: SubjectDataset, sizes: Sequence[int], config: RecoveryConfig | None = None,
) -> dict[int, FitResult]:
    """:func:`recover_params` on the first ``s`` rounds, for every ``s`` in ``sizes``."""
    return recover_batch([dataset], sizes, config)[0]


def recover_batch(
    datasets: Iterable[SubjectDataset], sizes: Sequence[int] | None = None,
    config: RecoveryConfig | None = None,
) -> list[dict[int, FitResult]]:
    """:func:`recover_prefixes` for every dataset; each one's full length if ``sizes`` is None.

    Datasets whose price and return matrices are equal byte for byte share
    one schedule, and each schedule gets one grid pass (:func:`_grid_optima`):
    the model's demand is computed once per block of beta rows for all of its
    datasets, and only their token gaps are computed per dataset.  No
    per-round grid is kept, so the memory of a pass does not grow with the
    number of datasets on its schedule.  Only the data matrices are kept, so
    a generator of datasets holds one at a time.  Then the refinements of
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
        data = dataset.price_matrix(), dataset.return_matrix(), dataset.token_matrix()
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
    if all(rd.prices == dataset.rounds[0].prices for rd in dataset.rounds) and all(
        rd.tokens == dataset.rounds[0].tokens for rd in dataset.rounds
    ):
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

    def from_unconstrained(z: np.ndarray) -> tuple[float, float]:
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
    points: dict[int, np.ndarray] = {}
    outcomes: dict[int, tuple[np.ndarray, int, bool]] = {}

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
