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

The model's demand has one rule, ``da_model``'s closed form (``_demand``):
U is symmetric in the two states and concave on each side of the kink, so
the optimum is the interior on the cheaper asset's side where its ratio
``k = base^(1/rho)`` exceeds 1, and the kink otherwise.  Every kernel here
takes it, so a grid cell's loss and :func:`fit_loss` at that cell are the
same float.

The grid stage makes one pass per budget schedule (:func:`_grid_optima`):
datasets whose price and return matrices are equal byte for byte share it.
The model's demand depends on the prices only, so a pass computes it once
for every dataset on the schedule; a stage that runs every beta row does so
once per block of rows (:func:`_block_kernel`).  The base depends on the beta and the round but not on rho, so
the kernel classes each (beta, round) pair once per block: a kink pair takes
the round's kink tokens at every rho with no power, and an interior pair
takes one power per rho and one interior bundle.  The classed pairs are
gathered in chunks of ``_PAIR_CELLS`` cells, so the kernel's temporaries stay
cache-sized, and a block's tokens stay in that gathered order, shared by
every dataset on the schedule.  Each dataset's per-round losses of a block (:func:`_block_losses`)
go into one reusable buffer: the kink pairs take the round's kink loss, one
number per round, and each chunk's loss is formed on its gathered cells and
scattered once.  Only a running first minimum per dataset survives the
block, so no per-round grid is kept.

A pass with one size (every ``analyze``) is a box search (:func:`_box_optima`;
branch and bound, Land & Doig 1960).  The model's tokens are monotone in beta
and in rho, so each round's tokens over a box of cells lie between those of
two of its corners; a box is valued at its corners and left out once each
dataset's lower bound from those intervals exceeds its best sum so far, by a
margin far above rounding, and every box still in is halved on each axis.  A
cell kernel (:func:`_cell_tokens`) computes the closed form for any cells at
once, with the pair kernel's bits.  A pass with several sizes runs them as
stages, smallest first, each on the schedule's first ``s`` rounds.  The first
stage runs every beta row; a later one runs only the (beta, rho) cells that
can still hold an optimum of some size still to come.  A per-round loss is a
square, so a cell's sum over ``s`` rounds is at least its sum over fewer, and
a cell whose known sum already exceeds an achieved sum of a later size, by a
margin far above rounding, can neither win nor tie there.  A stage runs the
rows where most cells are left in through the pair kernel and the other cells
through the cell kernel.  Every optimum is the full grid's bit for bit.
:func:`recover_batch` fits every prefix of every dataset from its schedule's
one pass.

The refinements of a whole batch (every prefix of every dataset) run in lock
step as :func:`_nelder_mead` generators, one per fit (scipy's algorithm
transcribed, on Python floats).  Each step values the pending points of all
fits in one call of a paired kernel (:class:`_PairedLoss`: K datasets, K
parameter pairs, K losses), which takes the closed form on the rounds of all
K.  It values each point once, and it also serves :func:`fit_loss`.  A grid
optimum's loss is its mean from the grid pass, which is :func:`fit_loss`
there bit for bit.  The fits are those of scipy's ``minimize`` on one prefix
at a time, evaluation counts included.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .da_model import DAParams, _Budgets, _demand, _odds
from .data import SubjectDataset, dataset_prefix


def __getattr__(name: str):
    # only the benchmark tracer (bench/tracing.py) uses ``minimize``, and it
    # wraps the name it finds in this module's dict; a module-level import of
    # scipy.optimize adds about 0.6 s to every command's start.  Delete this
    # with the tracer (ROADMAP item 1c).
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

    ``loss`` is :func:`fit_loss` at ``params``: the refinement's loss for its
    kept point, else the grid pass's mean at ``grid_best``, the same float."""

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
# grid cells per chunk of (beta, round) pairs in a block, and cell-rounds per chunk of
# cells: keeps the kernels' temporaries cache-sized
_PAIR_CELLS = 1 << 13
# a grid pass leaves out a cell or a box only if its round-sum, or lower bound, exceeds
# the bound by this relative margin, far above rounding, and by _TINY per round
# (_grid_optima, _box_optima)
_SLACK = 1e-9
_TINY = float(np.finfo(float).tiny)
# the box search widens each round's interval of model tokens by this relative margin
# and by a few subnormal holdings (_token_range)
_WIDEN = 1e-12
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)
# the cost of a cell-round in the pair kernel and in the cell kernel (measured at 175
# rounds; CHANGES.md): a stage runs a row through the cell kernel only where its cells
# cost less than the row
_PAIR_COST, _CELL_COST = 1.0, 1.6


def _beta_blocks(betas: np.ndarray, row_cells: int) -> list[slice]:
    """Consecutive blocks of beta rows, about ``_BLOCK_CELLS`` cells each, in order."""
    block = max(1, _BLOCK_CELLS // row_cells)
    return [slice(start, min(start + block, len(betas))) for start in range(0, len(betas), block)]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _block_kernel(prices: np.ndarray, returns: np.ndarray, rhos: np.ndarray):
    """The model's token allocations on one schedule, for a block of beta rows at a time.

    Returns ``tokens_at(betas, size)``, which maps betas, (B,), to the tokens
    ``(x_a / r_a, x_b / r_b)`` at the optimal demand ``x`` of every (beta, rho)
    pair and each of the schedule's first ``size`` rounds, as ``(kink,
    pieces)``.  ``pieces`` lists ``(rows, rounds, model_a, model_b)``: the
    (beta, round) pairs of one chunk, (pairs,) each, and their tokens in that
    gathered order, (pairs, R) each.  Every pair in no piece takes the round's
    kink tokens ``kink = (kink_a, kink_b)``, (size,) each, at every rho.  Each
    token is computed on its own, so a round's tokens do not depend on
    ``size``.  Only the prices and returns enter, so every dataset on the
    schedule shares them (:func:`_block_losses`).  The pieces' tokens are views
    of one workspace per schedule, no larger than a block's two token arrays,
    and the next call overwrites them.

    The maximizer is ``da_model._demand``'s closed form: the interior on the
    cheaper asset's side (A on equal prices) at ``k = max(base^(1/rho), 1)``,
    ``base = odds * ratio``.  The base depends on the beta and the round but
    not on rho, so the kernel classes each (beta, round) pair once per block.
    A pair whose base is at most 1 has ``k = 1`` at every rho, whose bundle is
    the kink's bit for bit: it takes the kink's tokens with no power at all
    and is in no piece.  Every other pair takes one power per rho through
    ``_demand``, on (pairs, R) arrays gathered ``_PAIR_CELLS`` cells at a time
    so that the temporaries stay in cache, and its tokens are written into
    the workspace in that gathered order.  At beta one ulp above -1, ``odds``
    is inf and so is ``k``: the bundle is the k -> inf limit, the whole budget
    on the cheaper asset.
    """
    budgets = _Budgets(prices)
    r_a, r_b = returns[:, 0], returns[:, 1]
    inv_rho = 1.0 / rhos
    kink = budgets.kink / r_a, budgets.kink / r_b
    step = max(1, _PAIR_CELLS // len(rhos))
    workspace = np.empty((2, 0))

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def tokens_at(betas: np.ndarray, size: int):
        nonlocal workspace
        cells = len(betas) * len(rhos) * size
        if workspace.shape[1] < cells:
            workspace = np.empty((2, cells))
        pieces, used = [], 0
        base = _odds(betas[:, None]) * budgets.ratio[:size]
        rows, rounds = np.nonzero(base > 1.0)
        for start in range(0, len(rows), step):
            chunk = slice(start, start + step)
            at = rounds[chunk, None]
            x_a, x_b = _demand(budgets, base[rows[chunk], rounds[chunk], None], inv_rho, at)
            model_a, model_b = (part[used:used + x_a.size].reshape(x_a.shape) for part in workspace)
            np.divide(x_a, r_a[at], out=model_a)
            np.divide(x_b, r_b[at], out=model_b)
            pieces.append((rows[chunk], rounds[chunk], model_a, model_b))
            used += x_a.size
        return (kink[0][:size], kink[1][:size]), pieces

    return tokens_at


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cell_tokens(prices: np.ndarray, returns: np.ndarray, betas: np.ndarray, rhos: np.ndarray):
    """The model's token allocations on one schedule, for any grid cells and rounds.

    Returns ``tokens_of(cells, size)``, which maps flat (beta, rho) cell
    indices, (C,), to the tokens of each cell at each of the schedule's first
    ``size`` rounds, as one (2, C, size) array, ``model_a`` then ``model_b``.
    It takes ``da_model._demand`` on every (cell, round) entry, with no
    classing: where the base is at most 1, ``max(base^(1/rho), 1)`` is 1 and
    the interior at ``k = 1`` is the kink bit for bit, so every token is
    :func:`_block_kernel`'s.
    """
    budgets = _Budgets(prices)
    r_a, r_b = returns[:, 0], returns[:, 1]
    odds, inv_rho, cols = _odds(betas), 1.0 / rhos, len(rhos)

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def tokens_of(cells: np.ndarray, size: int) -> np.ndarray:
        x_a, x_b = _demand(budgets, odds[cells // cols, None] * budgets.ratio[:size],
                           inv_rho[cells % cols, None], slice(size))
        tokens = np.empty((2, len(cells), size))
        np.divide(x_a, r_a[:size], out=tokens[0])
        np.divide(x_b, r_b[:size], out=tokens[1])
        return tokens

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

    ``block`` is ``tokens_at(betas, size)`` of :func:`_block_kernel`,
    ``tokens`` the dataset's first ``size`` rounds, (size, 2), and ``out`` (B,
    R, size).  A pair that takes the kink at every rho takes the round's kink
    loss, one number per round broadcast over its rows and rho columns; the
    loss of each piece is computed on its gathered (pairs, R) cells and
    scattered once.  Every cell's float is that of the gap formula on the
    full token array.
    """
    kink, pieces = block
    t_a, t_b = tokens[:, 0], tokens[:, 1]
    out[...] = _token_losses(*kink, t_a, t_b)
    for rows, rounds, model_a, model_b in pieces:
        out[rows, :, rounds] = _token_losses(model_a, model_b, t_a[rounds, None], t_b[rounds, None])
    return out


def _token_pad(returns: np.ndarray) -> np.ndarray:
    """A few subnormal holdings in tokens, per side and round of the schedule: (2, 1, n)."""
    return 4.0 * _SUBNORMAL * (1.0 + 1.0 / returns.T[:, None])


def _token_range(corner: np.ndarray, other: np.ndarray, pad: np.ndarray):
    """The interval ``(low, high)`` that holds a box's model tokens at each round, from
    the tokens of its two corner cells (:func:`_box_optima`), widened by ``_WIDEN``
    relative and by ``pad``, :func:`_token_pad`'s."""
    low, high = np.minimum(corner, other), np.maximum(corner, other)
    low *= 1.0 - _WIDEN
    low -= pad
    high *= 1.0 + _WIDEN
    high += pad
    return low, high


@functools.lru_cache(maxsize=4)
def _box_levels(rows: int, cols: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The boxes of :func:`_box_optima`'s search on a ``rows`` x ``cols`` grid, level by
    level, as ``(parents, low, high, wide)``: each box's parent, an index into the level
    before (0 for the whole grid), the flat indices of its corner cells ``(i, a)`` and
    ``(j, b)``, and whether it has more than one cell.  Each wide box's parts follow
    it on the next level: it is halved on each axis with more than one cell.  The levels
    depend on the grid's shape alone, and every pass on that shape shares them,
    read-only."""
    levels = []
    boxes, parents = np.array([[0], [rows - 1], [0], [cols - 1]]), np.zeros(1, dtype=np.intp)
    while boxes.shape[1]:
        low, high = boxes[0] * cols + boxes[2], boxes[1] * cols + boxes[3]
        wide = low != high
        levels.append((parents, low, high, wide))
        at = np.flatnonzero(wide)
        i, j, a, b = boxes[:, at]
        beta_mid, rho_mid = (i + j) // 2, (a + b) // 2
        boxes = np.stack([i, beta_mid, a, rho_mid, i, beta_mid, rho_mid + 1, b,
                          beta_mid + 1, j, a, rho_mid, beta_mid + 1, j, rho_mid + 1, b]
                         ).reshape(4, 4, -1).transpose(1, 0, 2).reshape(4, -1)
        parts = (boxes[0] <= boxes[1]) & (boxes[2] <= boxes[3])
        boxes, parents = boxes[:, parts], np.tile(at, 4)[parts]
    for level in levels:
        for array in level:
            array.flags.writeable = False
    return tuple(levels)


def _box_optima(prices: np.ndarray, returns: np.ndarray, members: Sequence[np.ndarray],
                betas: np.ndarray, rhos: np.ndarray) -> list[tuple[float, int]]:
    """Each member's grid optimum on all the schedule's rounds, as ``(mean loss, flat
    (beta, rho) index)``: a branch and bound over boxes of cells (Land & Doig 1960).

    It rests on a monotonicity of the model's tokens.  ``odds = w / (1 - w)``
    with ``w = 1 / (2 + beta)`` does not increase with beta, so neither does
    ``base = odds * ratio``, nor ``k = max(base^(1/rho), 1)`` with beta or rho.
    The cheaper side's holding ``k / (p_hi k + p_lo)`` does not decrease with
    ``k``, the other holding does not increase (``da_model._interior``'s
    halved sum, where the sum overflows, keeps both orders), and the tokens
    ``x / r`` keep them.  So on axes sorted by value, each round's model tokens
    over a box of cells ``[beta_i .. beta_j] x [rho_a .. rho_b]`` lie between
    those of its corner cells ``(i, a)`` and ``(j, b)``.  In floats every step
    is correctly rounded, so monotone, except ``np.power``, within an ulp of
    the exact power, and the product ``k * x_lo``: the order can break only
    between tokens a few ulp apart, or a subnormal step apart in a holding.
    :func:`_token_range` widens each interval by ``_WIDEN`` relative, far
    above the first, and by :func:`_token_pad`, above the second.

    A box's lower bound for a member is the loss, summed over the rounds, of
    the tokens in its intervals nearest to the member's (``np.clip``): each
    rounded gap, square and sum is no larger than any of its cells'.  Each
    member's ``U`` is its least round-sum over the cells valued so far, and a
    box is left out once every member's bound exceeds ``U * (1 + _SLACK) + n *
    _TINY``, the multi-size stages' rule, so none of its cells can win or tie.
    The search starts from the whole grid and goes level by level
    (:func:`_box_levels`): it values the two corners of every box still in
    (:func:`_cell_tokens`, in chunks of about ``_PAIR_CELLS`` entries; a
    one-cell box is a valued cell), leaves boxes out, and halves each axis of
    every box still in.  The optimum is the first minimum of ``(mean, flat
    index)`` over the valued cells, and each mean is ``np.add.reduce(losses,
    axis=1) / n``, the full pass's float, so every optimum keeps its bits.
    Only a chunk's tokens are kept, so a corner that an earlier level valued
    is computed and valued again, which changes nothing.
    """
    n, cols = len(prices), len(rhos)
    # the flat grid index of each cell of the sorted axes
    flat = (np.argsort(betas, kind="stable")[:, None] * cols
            + np.argsort(rhos, kind="stable")).ravel()
    tokens_of = _cell_tokens(prices, returns, betas, rhos)
    # each member's tokens, (M, 2, 1, n)
    tokens = np.stack([member.T for member in members])[:, :, None]
    t_a, t_b = tokens[:, 0], tokens[:, 1]
    pad = _token_pad(returns)
    least = np.full(len(members), np.inf)  # each member's U
    best = [(math.inf, len(flat))] * len(members)  # every cell beats it
    half = max(1, _PAIR_CELLS // (2 * n))  # boxes per chunk
    kept = np.ones(1, dtype=bool)  # the whole grid's parent
    for parents, low, high, wide in _box_levels(len(betas), cols):
        alive = kept[parents]
        boxes = np.flatnonzero(alive & wide)
        low_cells, high_cells = flat[low[boxes]], flat[high[boxes]]
        single = flat[low[alive & ~wide]]
        lower = np.empty((len(members), len(boxes)))
        for start in range(0, max(len(boxes), len(single)), half):
            chunk = slice(start, start + half)
            cells = np.concatenate([low_cells[chunk], high_cells[chunk], single[chunk]])
            model = tokens_of(cells, n)
            sums = np.add.reduce(_token_losses(model[0], model[1], t_a, t_b), axis=2)
            means = sums / n  # the bits of .mean
            mins = np.min(means, axis=1)
            firsts = np.min(np.where(means == mins[:, None], cells, len(flat)), axis=1)
            best = [min(pair, (float(mean), int(at))) for pair, mean, at in zip(best, mins, firsts)]
            least = np.minimum(least, np.min(sums, axis=1))
            pairs = len(low_cells[chunk])
            if pairs:
                bottom, top = _token_range(model[:, :pairs], model[:, pairs:2 * pairs], pad)
                near = np.clip(tokens, bottom, top)
                lower[:, chunk] = np.add.reduce(_token_losses(near[:, 0], near[:, 1], t_a, t_b),
                                                axis=2)
        kept = np.zeros(len(low), dtype=bool)
        kept[boxes] = ~np.all(lower > (least * (1.0 + _SLACK) + n * _TINY)[:, None], axis=0)
        if not kept.any():
            return best
    return best


def _grid_optima(prices: np.ndarray, returns: np.ndarray, members: Sequence[np.ndarray],
                 sizes: Sequence[int], betas: np.ndarray, rhos: np.ndarray,
                 ) -> list[list[tuple[float, int]]]:
    """Each member's grid optimum for each prefix size, as ``(mean loss, flat (beta, rho)
    index)``; the mean is the grid's own float at that cell on that prefix.

    ``members`` are the token matrices of datasets on one schedule.  One size
    is a box search (:func:`_box_optima`).  Several distinct sizes run as
    stages, smallest first, each on the schedule's first ``s`` rounds.  The
    first stage runs every beta row through the pair kernel
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
    cell's sums over each remaining size ``t`` (from the cell kernel,
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
    rest cell by cell, in chunks of ``_PAIR_CELLS`` entries.  A stage sums
    each of its cells' per-round losses over all ``s`` rounds, in the full
    pass's order, so every optimum and every mean keeps its bits.
    """
    if not sizes:
        return [[] for _ in members]
    stages = sorted(set(sizes))
    if len(stages) == 1:
        size = stages[0]
        return [[best] * len(sizes) for best in _box_optima(
            prices[:size], returns[:size], [member[:size] for member in members], betas, rhos)]
    cols, cells = len(rhos), len(betas) * len(rhos)
    known = np.empty((len(members), cells))
    tokens_at = _block_kernel(prices, returns, rhos)
    tokens_of = _cell_tokens(prices, returns, betas, rhos)
    # each stage's row blocks have at most max(_BLOCK_CELLS, one row) cells
    buffer = np.empty(max(min(len(betas), max(1, _BLOCK_CELLS // (cols * size))) * cols * size
                          for size in stages))
    best: list[tuple[float, int]] = []

    def merge(m: int, sums: np.ndarray, at: np.ndarray, size: int):
        """Member ``m``'s ``size``-round sums at the flat cells ``at``, in increasing order,
        merged into ``best`` and stored in ``known``."""
        means = sums / size  # the bits of .mean
        i = int(np.argmin(means))
        best[m] = min(best[m], (float(means[i]), int(at[i])))
        known[m, at] = sums

    def run_rows(rows: np.ndarray, size: int):
        """Every member's sums over the first ``size`` rounds of the cells of ``rows``."""
        row_cells = cols * size
        for block in _beta_blocks(betas[rows], row_cells):
            at = rows[block]
            tokens = tokens_at(betas[at], size)
            out = buffer[:len(at) * row_cells].reshape(len(at), cols, size)
            flat = (at[:, None] * cols + np.arange(cols)).ravel()
            for m, member in enumerate(members):
                _block_losses(tokens, member[:size], out)
                merge(m, np.add.reduce(out.reshape(-1, size), axis=1), flat, size)

    def run_cells(at: np.ndarray, size: int):
        """:func:`run_rows` on the flat cells ``at``, in increasing order."""
        step = max(1, _PAIR_CELLS // size)
        for begin in range(0, len(at), step):
            chunk = at[begin:begin + step]
            model_a, model_b = tokens_of(chunk, size)
            for m, member in enumerate(members):
                merge(m, np.add.reduce(_token_losses(model_a, model_b, member[:size, 0],
                                                     member[:size, 1]), axis=1), chunk, size)

    targets = np.array(stages)
    bounds = np.full((len(members), len(stages)), np.inf)
    tried: list[set[int]] = [set() for _ in members]

    def limits(latest: list[int], size: int) -> np.ndarray:
        """Each member's bound on the round-sum of a cell that can still hold one of its
        optima at a size >= ``size``, from its ``latest`` optimum."""
        new = [(m, at) for m, at in enumerate(latest) if at not in tried[m]]
        if new:
            at, index = np.unique([at for _, at in new], return_inverse=True)
            model_a, model_b = tokens_of(at, stages[-1])
            for (m, cell), i in zip(new, index):
                tried[m].add(cell)
                member = members[m][:stages[-1]]
                sums = np.cumsum(_token_losses(model_a[i], model_b[i], member[:, 0], member[:, 1]))
                bounds[m] = np.fmin(bounds[m], sums[targets - 1] * (1.0 + _SLACK)
                                    + targets * _TINY)
        return np.max(bounds[:, targets >= size], axis=1)

    optima, alive = {}, None
    for size in stages:
        best[:] = [(math.inf, cells)] * len(members)  # every cell beats it
        if alive is None:
            run_rows(np.arange(len(betas)), size)
            alive = np.ones(cells, dtype=bool)
        else:
            alive &= ~np.all(known > limits([at for _, at in latest], size)[:, None], axis=0)
            # the pair kernel runs a row where that costs less than the cell kernel on its cells
            rows = np.count_nonzero(alive.reshape(len(betas), cols), axis=1) * _CELL_COST > (
                _PAIR_COST * cols)
            if rows.any():
                run_rows(np.flatnonzero(rows), size)
            at = np.flatnonzero(alive & ~np.repeat(rows, cols))
            if len(at):
                run_cells(at, size)
        latest = optima[size] = best[:]
    return [[optima[size][m] for size in sizes] for m in range(len(members))]


class _PairedLoss:
    """Token-share loss of K datasets, each at its own parameter pair: K pairs -> K losses.

    ``loss(beta, rho)`` gives, for dataset ``i``, the float that
    :func:`optimal_demand_grid` at G = 1 on that dataset followed by the mean
    squared token-share gap gives at ``(beta[i], rho[i])``, for positive prices
    with a finite sum: it makes the same demand call (``da_model._demand``),
    and each round's loss is the grid pass's at that cell.  The datasets'
    rounds are concatenated once, with their cheaper sides and price ratios
    (``da_model._Budgets``).  A call takes each dataset's odds and ``1 / rho``
    once and spreads them over its rounds with ``np.repeat``.  The datasets
    are stored by length, so the losses are row means of one (datasets,
    rounds) block per length, which give the bits of each dataset's own
    mean.
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
        odds, inv_rho = (np.repeat(value[self._order], self._lengths)
                         for value in (_odds(beta), 1.0 / rho))
        x_a, x_b = _demand(self._budgets, odds * self._budgets.ratio, inv_rho)
        per_round = _token_losses(x_a / self._r_a, x_b / self._r_b, self._t_a, self._t_b)
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
    still sorted.  Returns ``(x, f, nfev, success)``: ``f`` is the loss sent
    for ``x``, or inf when no point was evaluated (``maxfev`` 0); success is
    false exactly when the cap was reached.
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

    return sim[0], fsim[0], nfev, nfev < maxfev


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
    their token gaps are computed per dataset.  One size is a box search over
    the grid; several distinct sizes run as stages, smallest first, and a later
    stage runs only the (beta, rho) cells that can still hold an optimum of a
    size still to come.  The optima are those of a full pass per size, bit for
    bit.  No per-round grid is kept: a pass keeps a running minimum per
    dataset, with several stages also each cell's latest round-sum, ``B * R``
    floats per dataset, and a box search only one chunk of tokens.  Then the refinements of every prefix advance in lock step
    (:func:`_refine_batch`), each against its grid optimum's mean from the
    pass, which is :func:`fit_loss` there.  The fits are those of one dataset
    at a time, bit for bit, whatever the batch.
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
    :class:`_PairedLoss` call, a kernel rebuilt only when one finishes.  Each
    refined point comes back with the loss it was sent, and replaces its grid
    optimum if that loss is no larger; a refinement that evaluated nothing
    (``max_evals`` 0) keeps its grid optimum.
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
    outcomes: dict[int, tuple[list[float], float, int, bool]] = {}

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

        for i in group:
            _, grid_best, grid_loss = fits[i]
            z, value, nfev, success = outcomes[i]
            params = DAParams(*from_unconstrained(z))
            if value > grid_loss:
                params, value = grid_best, grid_loss
            results[i] = FitResult(params, value, grid_best, success, evaluations + nfev, ())
    return results
