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

A pass runs its prefix sizes as stages, smallest first, each on the
schedule's first ``s`` rounds.  The first stage runs every beta row; a later
one runs only the (beta, rho) cells that can still hold an optimum of some
size still to come (branch and bound, Land & Doig 1960).  A per-round loss is
a square, so a cell's sum over ``s`` rounds is at least its sum over fewer,
and a cell whose known sum already exceeds an achieved sum of a later size,
by a margin far above rounding, can neither win nor tie there.  A cell kernel
(:func:`_cell_tokens`) repeats the pair kernel's float operations for each
(cell, round) entry on its own, classed by the same bases, so a stage runs
the rows where most cells are left in through the pair kernel and the other
cells one by one.  A one-size pass on more than ``_BOUNDING_LENGTH`` rounds
(every ``analyze``) first runs unreported stages: a short probe over every
row, then each longer stage only where its predicted savings exceed its cost,
a cost guard that noisy datasets, which leave most cells in, skip.  Every
optimum is the full grid's bit for bit.  :func:`recover_batch` fits every
prefix of every dataset from its schedule's one staged pass.

The refinements of a whole batch (every prefix of every dataset) run in lock
step as :func:`_nelder_mead` generators, one per fit (scipy's algorithm
transcribed, on Python floats).  Each step values the pending points of all
fits in one call of a paired kernel (:class:`_PairedLoss`: K datasets, K
parameter pairs, K losses), which runs the same enumeration and selection on
the rounds of all K.  The same kernel values the refined points and serves
:func:`fit_loss`.  A grid optimum's loss is its mean from the grid pass, and
that is not always the float :func:`fit_loss` gives there: the grid's
beta >= 0 rows take the closed-form maximizer and :func:`fit_loss` the
enumeration, and the two bundles differ on a few cells.  Where the
interior's ratio ``k`` is about 1e15 or more (the smallest rho columns), the
enumeration takes the corner, a holding of exactly 0, where the closed form
holds a tiny amount; next to the kink at large rho, it takes the kink where
the closed form takes an interior just off it.  The per-round losses then
differ in their last bits, or by about 5e-5 relative next to the kink
(``test_grid_and_paired_losses_differ_only_where_pinned``).  The fits are
those of scipy's ``minimize`` on one prefix at a time, evaluation counts
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from .da_model import DAParams, _Budgets, _candidates, _demand, _interior, _optimum, _Valuation
from .data import SubjectDataset, dataset_prefix


def __getattr__(name: str):
    # only the benchmark tracer (bench/tracing.py) uses ``minimize``, and it
    # wraps the name it finds in this module's dict; a module-level import of
    # scipy.optimize adds about 0.6 s to every command's start.  Delete this
    # with the tracer (ROADMAP item 3c).
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
    pass left cells out, plus the refinement's loss evaluations.

    ``loss`` is the loss at ``params``: :func:`fit_loss` there when the
    refinement's point is kept, else the grid pass's mean at ``grid_best``,
    which on a few beta >= 0 cells differs from :func:`fit_loss` there (the
    closed form against the enumeration; see the module docstring)."""

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
# a one-size pass on datasets longer than _BOUNDING_LENGTH rounds first runs an
# unreported stage on the first of _BOUNDING_STAGES, the probe, then each later one that
# pays (_grid_optima); the lengths are from a measured table (CHANGES.md)
_BOUNDING_LENGTH = 25
_BOUNDING_STAGES = (10, 50, 100)
# the cost of a cell-round with beta < 0 and with beta >= 0 in the pair kernel and in the
# cell kernel, relative to the pair kernel's with beta < 0 (measured at 175 rounds): a
# stage runs a row through the cell kernel only where its cells cost less than the row
_PAIR_COST, _CELL_COST = (1.0, 0.07), (1.5, 0.25)


def _beta_blocks(betas: np.ndarray, row_cells: int) -> list[slice]:
    """Consecutive blocks of beta rows of one sign, about ``_BLOCK_CELLS`` cells each, in order."""
    block = max(1, _BLOCK_CELLS // row_cells)
    negative = betas < 0.0
    edges = [0, *(np.flatnonzero(np.diff(negative)) + 1), len(betas)]
    return [slice(start, min(start + block, hi))
            for lo, hi in zip(edges, edges[1:]) for start in range(lo, hi, block)]


def _fixed_felicities(prices: np.ndarray, rhos: np.ndarray):
    """The kink and corner felicities of every (round, rho) pair, (N, R) each, as
    ``_Valuation.fixed_felicities`` gives them: they depend on rho and the budget only."""
    # (N, 2, 1) prices make (N, 1) price columns, which broadcast against (R,) rho
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _Valuation(rhos).fixed_felicities(_Budgets(prices[:, :, None]))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _block_kernel(prices: np.ndarray, returns: np.ndarray, rhos: np.ndarray, felicities=None):
    """The model's token allocations on one schedule, for a block of beta rows at a time.

    Returns ``tokens_at(betas, size, lo=0)``, which maps betas of one sign,
    (B,), to the tokens ``(x_a / r_a, x_b / r_b)`` at the optimal demand ``x``
    of every (beta, rho) pair and each of the schedule's rounds ``lo .. size -
    1``, as ``(kink, pieces)``.  ``pieces`` lists ``(rows, rounds, model_a,
    model_b)``: the (beta, round) pairs of one chunk, (pairs,) each, rounds
    counted from ``lo``, and their tokens in that gathered order, (pairs, R)
    each.  Every pair in no piece takes the round's kink tokens ``kink =
    (kink_a, kink_b)``, (size - lo,) each, at every rho; with beta < 0 the
    pieces hold every pair and ``kink`` is None.  Each token is computed on
    its own, so a round's tokens do not depend on ``size`` or ``lo``.  Only
    the prices and returns enter, so every dataset on the schedule shares
    them (:func:`_block_losses`).  The pieces' tokens are views of one
    workspace per schedule, no larger than a block's two token arrays, and
    the next call overwrites them.  ``felicities`` are the schedule's
    :func:`_fixed_felicities`, computed here if not given.

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
    value = _Valuation(rhos)
    # the kink and corner felicities are (N, R), gathered by round
    f_kink, f_corners = felicities or _fixed_felicities(prices, rhos)
    kink = budgets.kink / r_a, budgets.kink / r_b
    step = max(1, _PAIR_CELLS // len(rhos))
    workspace = np.empty((2, 0))

    def chunks(mask: np.ndarray):
        """``(rows, rounds)`` of the pairs where ``mask``, at most ``step`` pairs at a time."""
        rows, rounds = np.nonzero(mask)
        for start in range(0, len(rows), step):
            yield rows[start:start + step], rounds[start:start + step]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def tokens_at(betas: np.ndarray, size: int, lo: int = 0):
        nonlocal workspace
        cells = len(betas) * len(rhos) * (size - lo)
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
            np.divide(x_a, r_a[rounds + lo, None], out=model_a)
            np.divide(x_b, r_b[rounds + lo, None], out=model_b)
            pieces.append((rows, rounds, model_a, model_b))
            used += size

        w = 1.0 / (2.0 + betas[:, None])
        odds = w / (1.0 - w)
        base_a, base_b = odds * budgets.ratio_a[lo:size], odds * budgets.ratio_b[lo:size]
        if betas[0] < 0.0:
            above_a, above_b = base_a > 1.0, base_b > 1.0
            for has_a, has_b in ((True, True), (True, False), (False, True), (False, False)):
                for rows, rounds in chunks((above_a == has_a) & (above_b == has_b)):
                    k_a = np.power(base_a[rows, rounds][:, None], inv_rho) if has_a else None
                    k_b = np.power(base_b[rows, rounds][:, None], inv_rho) if has_b else None
                    at = rounds + lo
                    felicities = f_kink[at], (None if f_corners is None else
                                              (f_corners[0][at], f_corners[1][at]))
                    x_a, x_b = _optimum(_candidates(_Budgets(prices[at, :, None]),
                                                    value.weighted(w[rows]), k_a, k_b, felicities))
                    add(rows, rounds, x_a, x_b)
            return None, pieces
        for base, p_hi, p_lo, high_a in ((base_a, budgets.p_a, budgets.p_b, True),
                                         (base_b, budgets.p_b, budgets.p_a, False)):
            for rows, rounds in chunks(base > 1.0):
                k = np.maximum(np.power(base[rows, rounds][:, None], inv_rho), 1.0)
                at = rounds + lo
                x_hi, x_lo = _interior(p_hi[at, None], p_lo[at, None], k)
                add(rows, rounds, *((x_hi, x_lo) if high_a else (x_lo, x_hi)))
        return (kink[0][lo:size], kink[1][lo:size]), pieces

    return tokens_at


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cell_tokens(prices: np.ndarray, returns: np.ndarray, betas: np.ndarray, rhos: np.ndarray,
                 felicities=None):
    """The model's token allocations on one schedule, for any grid cells and rounds.

    Returns ``tokens_of(cells, lo, hi)``, which maps flat (beta, rho) cell
    indices, (C,), to the tokens of each cell at each of the schedule's rounds
    ``lo .. hi - 1``, as ``(model_a, model_b)``, (C, hi - lo) each.  It
    repeats :func:`_block_kernel`'s float operations for each (cell, round)
    entry on its own, so every token is that kernel's bit for bit: the closed
    form where beta >= 0, and where beta < 0 the enumeration
    (``da_model._candidates`` and ``da_model._Best``), with the kink and
    corner felicities gathered from the schedule's (round, rho) tables.  It
    classes the entries as the pair kernel classes its (beta, round) pairs,
    by which interior bases exceed 1, and each class computes only the
    candidates that can win there; a beta >= 0 entry with no base above 1
    takes its round's kink tokens with no power.  Each class's entries are
    gathered, their tokens computed and scattered back into (cell, round)
    order; the enumerated ones go ``_PAIR_CELLS // 2`` at a time, since each
    holds about twice the temporaries of a pair-kernel cell.  It never calls
    ``da_model._demand``, whose enumeration differs from the closed form on a
    few beta >= 0 cells (see the module docstring).  ``felicities`` are the
    schedule's :func:`_fixed_felicities`, computed here if not given.
    """
    budgets = _Budgets(prices)
    p_a, p_b = budgets.p_a, budgets.p_b
    r_a, r_b = returns[:, 0], returns[:, 1]
    n, cols = len(prices), len(rhos)
    inv_rho = 1.0 / rhos
    f_kink, f_corners = felicities or _fixed_felicities(prices, rhos)
    f_kink = f_kink.ravel()
    f_corners = None if f_corners is None else tuple(f.ravel() for f in f_corners)
    kink_a, kink_b = budgets.kink / r_a, budgets.kink / r_b
    w = 1.0 / (2.0 + betas)
    odds = w / (1.0 - w)
    ratio_a, ratio_b = budgets.ratio_a, budgets.ratio_b
    # a (beta, round) pair's class, (B * N,): 1 if its A-high base exceeds 1, + 2 if its
    # B-high one does, + 4 where beta < 0
    classes = ((odds[:, None] * ratio_a > 1.0) + 2 * (odds[:, None] * ratio_b > 1.0)
               + 4 * (betas < 0.0)[:, None]).astype(np.int8).ravel()

    def bundles(code: int, b: np.ndarray, c: np.ndarray, r: np.ndarray):
        """The optimal bundles of one class's entries: beta rows, rho columns and rounds."""
        if code < 4:  # beta >= 0, one base above 1: the closed form
            high_a = code == 1
            k = np.maximum(np.power(odds[b] * (ratio_a if high_a else ratio_b)[r], inv_rho[c]),
                           1.0)
            x_hi, x_lo = _interior(*((p_a[r], p_b[r]) if high_a else (p_b[r], p_a[r])), k)
            return (x_hi, x_lo) if high_a else (x_lo, x_hi)
        # beta < 0: the enumeration, an interior of base <= 1 left out
        k_a = np.power(odds[b] * ratio_a[r], inv_rho[c]) if code & 1 else None
        k_b = np.power(odds[b] * ratio_b[r], inv_rho[c]) if code & 2 else None
        rho = rhos[c]
        value = _Valuation(rho, w[b])
        table = r * cols + c
        # the valuation leaves the corners out where no entry has rho < 1
        corners = (None if f_corners is None or not np.count_nonzero(rho < 1.0)
                   else (f_corners[0][table], f_corners[1][table]))
        entries = SimpleNamespace(p_a=p_a[r], p_b=p_b[r], kink=budgets.kink[r],
                                  corner_a=budgets.corner_a[r], corner_b=budgets.corner_b[r])
        return _optimum(_candidates(entries, value, k_a, k_b, (f_kink[table], corners)))

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def tokens_of(cells: np.ndarray, lo: int, hi: int):
        span = hi - lo
        rounds = np.arange(lo, hi)
        rows, columns = cells // cols, cells % cols
        kind = classes[((rows * n)[:, None] + rounds).ravel()]
        # every entry starts at its round's kink tokens, which a beta >= 0 entry with no
        # base above 1 keeps
        tokens_a, tokens_b = np.tile(kink_a[lo:hi], len(cells)), np.tile(kink_b[lo:hi], len(cells))
        for code in np.flatnonzero(np.bincount(kind, minlength=8)[1:]) + 1:
            every = np.flatnonzero(kind == code)
            # an enumerated entry holds about twice the temporaries of a pair-kernel cell
            step = _PAIR_CELLS // 2 if code >= 4 else len(every)
            for start in range(0, len(every), step):
                at = every[start:start + step]
                cell, r = at // span, rounds[at % span]
                x_a, x_b = bundles(code, rows[cell], columns[cell], r)
                tokens_a[at] = x_a / r_a[r]
                tokens_b[at] = x_b / r_b[r]
        return tokens_a.reshape(len(cells), span), tokens_b.reshape(len(cells), span)

    return tokens_of


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

    ``block`` is ``tokens_at(betas, size, lo)`` of :func:`_block_kernel`,
    ``tokens`` the dataset's rounds ``lo .. size - 1``, (size - lo, 2), and
    ``out`` (B, R, size - lo).  A pair that takes the kink at every rho takes the round's
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


def _block_tokens(block, out: np.ndarray) -> None:
    """A block's tokens written into ``out``, (2, B, R, size): each pair in no piece at its
    round's kink tokens at every rho, each piece's pairs at theirs."""
    kink, pieces = block
    if kink is not None:
        out[0][...], out[1][...] = kink
    for rows, rounds, model_a, model_b in pieces:
        out[0][rows, :, rounds] = model_a
        out[1][rows, :, rounds] = model_b


def _grid_optima(prices: np.ndarray, returns: np.ndarray, members: Sequence[np.ndarray],
                 sizes: Sequence[int], betas: np.ndarray, rhos: np.ndarray,
                 ) -> list[list[tuple[float, int]]]:
    """Each member's grid optimum for each prefix size, as ``(mean loss, flat (beta, rho)
    index)``; the mean is the grid's own float at that cell on that prefix.

    ``members`` are the token matrices of datasets on one schedule.  The
    distinct sizes run as stages, smallest first, each on the schedule's first
    ``s`` rounds.  The first stage runs every beta row through the pair kernel
    (:func:`_block_kernel`), which computes the model's tokens once per block
    for every member; each member's per-round losses of a block go into one
    reusable buffer (:func:`_block_losses`), and the sum of a cell's ``s``
    columns divided by ``s`` is the grid loss of the ``s``-round prefix on its
    own.  Only a running first minimum per member is kept, by ``np.argmin``'s
    rule: the first smallest mean, which is the lexicographic (beta, rho) tie
    rule.

    A later stage runs only the cells that can still hold an optimum (branch
    and bound; Land & Doig 1960).  A per-round loss is a square, so a cell's
    sum over its first ``s`` rounds is at least its sum over fewer.  Each
    member keeps ``known``, every cell's round-sum from the latest stage that
    ran it, and its latest optimum, an achieved cell.  Before a stage, that
    cell's sums over each remaining reported size ``t`` (from the cell kernel,
    :func:`_cell_tokens`) bound the member's ``t``-round minimum sum from
    above, and a cell is left out for good once every member's ``known`` there
    exceeds ``U_t * t * (1 + _SLACK) + t * _TINY`` for every such ``t``.  A
    sum errs by about ``n * eps``, far below ``_SLACK``, and the ``_TINY`` per
    round keeps a left-out sum normal where ``U_t`` is subnormal or zero, so a
    left-out cell's mean is strictly above the optimum's: it can neither win
    nor tie.  Bounding every remaining size, not only the next, keeps a cell
    that a later size may still need from coming back with a stale sum.

    A stage runs a row through the pair kernel where that costs less than the
    cell kernel on the row's cells (``_PAIR_COST``, ``_CELL_COST``), and the
    rest cell by cell, in chunks of ``_PAIR_CELLS`` entries.  A reported
    stage sums each of its cells' per-round losses over all ``s`` rounds, in
    the full pass's order, so every optimum and every mean keeps its bits.

    A one-size pass on more than ``_BOUNDING_LENGTH`` rounds first runs
    unreported stages of the ``_BOUNDING_STAGES`` lengths below its size.
    The first, the probe, runs every row and keeps its tokens of the beta < 0
    rows, from which the reported stage takes those rows' first rounds.  A
    later one runs only if the cells that its sums, extrapolated from the
    known ones, would leave out save the reported stage more than it costs,
    and it adds just its new rounds to ``known`` (``_SLACK`` covers the other
    summation order).  Noisy members leave most cells in, and they then skip
    every unreported stage after the probe.  With a single stage there is no
    bound and no ``known``.
    """
    if not sizes:
        return [[] for _ in members]
    reported = sorted(set(sizes))
    internal = ([s for s in _BOUNDING_STAGES if s < reported[0]]
                if len(reported) == 1 and reported[0] > _BOUNDING_LENGTH else [])
    stages = [*internal, *reported]
    cols, cells = len(rhos), len(betas) * len(rhos)
    known = np.empty((len(members), cells)) if len(stages) > 1 else None
    felicities = _fixed_felicities(prices, rhos)
    tokens_at = _block_kernel(prices, returns, rhos, felicities)
    # each stage's row blocks have at most max(_BLOCK_CELLS, one row) cells; the probe's
    # and a reported stage's rows span its size, an unreported one's the rounds after
    # any stage before it
    spans = [*stages, *(size - done for size in internal for done in stages if done < size)]
    buffer = np.empty(max(min(len(betas), max(1, _BLOCK_CELLS // (cols * span))) * cols * span
                          for span in spans))
    negative = betas < 0.0
    # an unreported first stage, the probe, keeps its tokens of the beta < 0 rows, where
    # they cost the most, and a reported stage takes those rows' first rounds from them
    probe = np.empty((2, np.count_nonzero(negative), cols, stages[0])) if internal else None
    slot = np.cumsum(negative) - 1  # a beta < 0 row's place in the probe
    best: list[tuple[float, int]] = []

    def merge(m: int, sums: np.ndarray, at: np.ndarray, size: int):
        """Member ``m``'s ``size``-round sums at the flat cells ``at``, in increasing order,
        merged into ``best`` and stored in ``known``."""
        means = sums / size  # the bits of .mean
        i = int(np.argmin(means))
        best[m] = min(best[m], (float(means[i]), int(at[i])))
        if known is not None:
            known[m, at] = sums

    def run_rows(rows: np.ndarray, lo: int, size: int, whole: bool):
        """Every member's sums over rounds ``lo .. size - 1`` of the cells of ``rows``,
        added to ``known``; if ``whole``, its sums over rounds ``0 .. size - 1``, merged
        into ``best``, the first ``lo`` of a beta < 0 row from the probe's tokens."""
        span = size if whole else size - lo
        row_cells = cols * span
        for block in _beta_blocks(betas[rows], row_cells):
            at = rows[block]
            start = lo if not whole or negative[at[0]] else 0
            tokens = tokens_at(betas[at], size, start)
            out = buffer[:len(at) * row_cells].reshape(len(at), cols, span)
            flat = (at[:, None] * cols + np.arange(cols)).ravel()
            if probe is not None and not lo and negative[at[0]]:
                # the probe, whose rows are consecutive
                _block_tokens(tokens, probe[:, slot[at[0]]:slot[at[-1]] + 1])
            head = probe[:, slot[at]] if whole and start else None
            for m, member in enumerate(members):
                _block_losses(tokens, member[start:size], out[:, :, span - (size - start):])
                if head is not None:
                    out[:, :, :start] = _token_losses(*head, member[:start, 0], member[:start, 1])
                sums = np.add.reduce(out.reshape(-1, span), axis=1)
                if whole:
                    merge(m, sums, flat, size)
                else:
                    known[m, flat] += sums

    def run_cells(at: np.ndarray, lo: int, size: int, whole: bool):
        """:func:`run_rows` on the flat cells ``at``, in increasing order."""
        parts = [(at, lo)]
        if whole and lo:  # a beta >= 0 cell's first rounds are not in the probe
            kept = negative[at // cols]
            parts = [(at[~kept], 0), (at[kept], lo)]
        first = 0 if whole else lo
        for cells, start in parts:
            step = max(1, _PAIR_CELLS // (size - start))
            for begin in range(0, len(cells), step):
                chunk = cells[begin:begin + step]
                model_a, model_b = tokens_of(chunk, start, size)
                if first < start:
                    head = probe[:, slot[chunk // cols], chunk % cols]
                    model_a = np.concatenate([head[0], model_a], axis=1)
                    model_b = np.concatenate([head[1], model_b], axis=1)
                for m, member in enumerate(members):
                    sums = np.add.reduce(_token_losses(model_a, model_b, member[first:size, 0],
                                                       member[first:size, 1]), axis=1)
                    if whole:
                        merge(m, sums, chunk, size)
                    else:
                        known[m, chunk] += sums

    if known is not None:
        tokens_of = _cell_tokens(prices, returns, betas, rhos, felicities)
        targets = np.array(reported)
        bounds = np.full((len(members), len(reported)), np.inf)
        tried: list[set[int]] = [set() for _ in members]
        row_cost = np.where(negative, *_PAIR_COST) * cols
        cell_cost = np.where(negative, *_CELL_COST)

    def limits(latest: list[int], size: int) -> np.ndarray:
        """Each member's bound on the round-sum of a cell that can still hold one of its
        optima at a reported size >= ``size``, from its ``latest`` optimum."""
        new = [(m, at) for m, at in enumerate(latest) if at not in tried[m]]
        if new:
            at, index = np.unique([at for _, at in new], return_inverse=True)
            model_a, model_b = tokens_of(at, 0, reported[-1])
            for (m, cell), i in zip(new, index):
                tried[m].add(cell)
                member = members[m][:reported[-1]]
                sums = np.cumsum(_token_losses(model_a[i], model_b[i], member[:, 0], member[:, 1]))
                bounds[m] = np.fmin(bounds[m], sums[targets - 1] * (1.0 + _SLACK)
                                    + targets * _TINY)
        return np.max(bounds[:, targets >= size], axis=1)

    def plan(alive: np.ndarray) -> tuple[np.ndarray, float]:
        """The rows the pair kernel runs, where that costs less than the cell kernel on their
        cells, and the cost of one round of ``alive``."""
        by_cells = np.count_nonzero(alive.reshape(len(betas), cols), axis=1) * cell_cost
        rows = by_cells > row_cost
        return rows, float(np.sum(np.where(rows, row_cost, by_cells)))

    def run(alive: np.ndarray, lo: int, size: int, whole: bool):
        rows = plan(alive)[0]
        if rows.any():
            run_rows(np.flatnonzero(rows), lo, size, whole)
        at = np.flatnonzero(alive & ~np.repeat(rows, cols))
        if len(at):
            run_cells(at, lo, size, whole)

    optima, alive, done, latest = {}, None, 0, []
    for size in stages:
        best[:] = [(math.inf, cells)] * len(members)  # every cell beats it
        if alive is None:
            run_rows(np.arange(len(betas)), 0, size, True)
            alive = np.ones(cells, dtype=bool)
        else:
            limit = limits(latest, size)[:, None]
            alive &= ~np.all(known > limit, axis=0)
            if size in internal:
                # it runs only if the cells that its sums, extrapolated from the known
                # ones, would leave out save the reported stage more than it costs
                now = plan(alive)[1]
                then = plan(alive & ~np.all(known * (size / done) > limit, axis=0))[1]
                if now * (size - done) >= (now - then) * reported[-1]:
                    continue
                run(alive, done, size, False)
                done = size
                latest = [int(np.argmin(np.where(alive, sums, np.inf))) for sums in known]
                continue
            run(alive, 0 if probe is None else stages[0], size, True)
        done = size
        latest = [at for _, at in best]
        if size in reported:
            optima[size] = best[:]
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
        per_round = _token_losses(best_xa / self._r_a, best_xb / self._r_b, self._t_a, self._t_b)
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
    the model's demand is computed once for all of its datasets, and only
    their token gaps are computed per dataset.  The distinct sizes run as
    stages, smallest first, and a later stage runs only the (beta, rho) cells
    that can still hold an optimum of a size still to come; one size on more
    than ``_BOUNDING_LENGTH`` rounds gets unreported bounding stages first.
    The optima are those of a full pass per size, bit for bit.  No per-round
    grid is kept: a pass keeps a running minimum per dataset, and with
    several stages also each cell's latest round-sum, ``B * R`` floats per
    dataset.  Then the refinements of every prefix advance in lock step
    (:func:`_refine_batch`), each against its grid optimum's mean from the
    pass, which is not :func:`fit_loss` there on a few cells (see
    :class:`FitResult`).  The fits are those of one dataset at a time, bit for
    bit, whatever the batch.
    """
    config = config or RecoveryConfig()
    betas, rhos = _parameter_grid(config)
    results: list[dict[int, FitResult]] = []
    fits = []  # [its dataset's results, prefix, grid optimum, its loss] per fit, in dataset order
    schedules: dict[tuple[bytes, bytes], list] = {}  # (first fit, data matrices) per member
    for dataset in datasets:
        data = dataset.prices, dataset.returns, dataset.tokens
        schedules.setdefault((data[0].tobytes(), data[1].tobytes()), []).append((len(fits), data))
        results.append({})
        fits += [[results[-1], dataset_prefix(dataset, size)]
                 for size in (sizes if sizes is not None else (dataset.n,))]
    for members in schedules.values():
        prices, returns, _ = members[0][1]
        optima = _grid_optima(prices, returns, [data[2] for _, data in members],
                              sizes if sizes is not None else (len(prices),), betas, rhos)
        for (first, _), per_size in zip(members, optima):
            for fit, (loss, at) in zip(fits[first:first + len(per_size)], per_size):
                grid_best = DAParams(float(betas[at // len(rhos)]), float(rhos[at % len(rhos)]))
                fit += [grid_best, loss]
    refined = _refine_batch([fit[1:] for fit in fits], len(betas) * len(rhos), config)
    for (by_size, prefix, *_), fit in zip(fits, refined):
        by_size[prefix.n] = fit
    return results


def _flags(dataset: SubjectDataset) -> tuple[str, ...]:
    """Why the rounds cannot pin two parameters, if they cannot."""
    if dataset.n < 2:
        return ("insufficient_rounds",)
    if (dataset.prices == dataset.prices[0]).all() and (dataset.tokens == dataset.tokens[0]).all():
        return ("degenerate_rounds",)
    return ()


def _refine_batch(fits: Sequence[tuple[SubjectDataset, DAParams, float]], evaluations: int,
                  config: RecoveryConfig) -> list[FitResult]:
    """Nelder-Mead from each grid optimum, unless the rounds cannot pin two parameters.

    ``fits`` holds (dataset, grid optimum, its loss); a flagged fit keeps its
    grid optimum.  The refinements run as :func:`_nelder_mead` generators, in
    groups of consecutive unflagged fits of at most ``_LOCK_STEP_ROUNDS``
    rounds in all, which bounds the paired kernel's temporaries.  Each step of
    a group values the next point of every active refinement in one
    :class:`_PairedLoss` call, a kernel rebuilt only when one finishes; one
    more call values the refined points, and each replaces its grid optimum
    if its loss is no larger.
    """
    beta_floor = config.beta_min

    def from_unconstrained(z: Sequence[float]) -> tuple[float, float]:
        # exponents clamped so stray simplex probes stay finite; the loss is
        # flat (all-kink demand) at such extreme parameters anyway
        beta = beta_floor + math.exp(min(max(float(z[0]), -60.0), 60.0))
        rho = math.exp(min(max(float(z[1]), -60.0), 60.0))
        return beta, rho

    data = [(dataset.prices, dataset.returns, dataset.tokens) for dataset, _, _ in fits]
    results = [FitResult(grid_best, loss, grid_best, False, evaluations, _flags(dataset))
               for dataset, grid_best, loss in fits]
    groups: list[list[int]] = []
    rounds = math.inf
    for i, (result, (dataset, _, _)) in enumerate(zip(results, fits)):
        if not result.flags:
            if rounds + dataset.n > _LOCK_STEP_ROUNDS:
                groups.append([])
                rounds = 0
            groups[-1].append(i)
            rounds += dataset.n

    runs = {i: _nelder_mead([math.log(max(fits[i][1].beta - beta_floor, 1e-8)),
                             math.log(fits[i][1].rho)], config.max_evals, config.tol, 1e-14)
            for group in groups for i in group}
    points: dict[int, list[float]] = {}
    outcomes: dict[int, tuple[list[float], int, bool]] = {}

    def advance(i: int, loss: float | None) -> bool:
        try:
            points[i] = runs[i].send(loss)
            return True
        except StopIteration as stop:
            outcomes[i] = stop.value
            return False

    for group in groups:
        active = [i for i in group if advance(i, None)]
        while active:
            loss, stepping = _PairedLoss([data[i] for i in active]), len(active)
            while len(active) == stepping:
                beta, rho = np.array([from_unconstrained(points[i]) for i in active]).T
                active = [i for i, value in zip(active, loss(beta, rho).tolist())
                          if advance(i, value)]

        refined = [DAParams(*from_unconstrained(outcomes[i][0])) for i in group]
        values = _PairedLoss([data[i] for i in group])(
            np.array([params.beta for params in refined]),
            np.array([params.rho for params in refined]),
        ).tolist()
        for i, params, value in zip(group, refined, values):
            _, grid_best, grid_loss = fits[i]
            _, nfev, success = outcomes[i]
            if value > grid_loss:
                params, value = grid_best, grid_loss
            results[i] = FitResult(params, value, grid_best, success, evaluations + nfev, ())
    return results
