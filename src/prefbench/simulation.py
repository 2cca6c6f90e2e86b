"""Random budget schedules and synthetic utility-maximizing subjects.

Returns are drawn i.i.d. uniform on [0.1, 1] with rejection until the larger
of the pair is at least 0.5.  All randomness flows through numpy's PCG64
generator seeded explicitly, so a (seed, params) pair fully determines a
subject on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .da_model import DAParams, optimal_demand_grid
from .data import (
    RETURNS_HEADER,
    ReturnPair,
    SubjectDataset,
    demand_to_tokens,
    read_table,
    returns_to_prices,
    write_table,
)
from .errors import ValidationError

RETURN_LOW = 0.1
RETURN_HIGH = 1.0
RETURN_MIN_MAX = 0.5

# Fixed seed for the shared 25-round evaluation schedule used by every
# recommendation session.
EVALUATION_SCHEDULE_SEED = 251
EVALUATION_ROUNDS = 25

# Interquartile box of recovered human parameters; the default population
# sampler draws uniformly from it.  Populations produced this way are
# synthetic stand-ins, not fitted subjects.
REPRESENTATIVE_BETA_RANGE = (-0.07, 0.20)
REPRESENTATIVE_RHO_RANGE = (0.38, 0.95)


@dataclass(frozen=True)
class BudgetSchedule:
    rounds: tuple[ReturnPair, ...]


@dataclass(frozen=True)
class SyntheticSubject:
    subject_id: str
    params: DAParams
    dataset: SubjectDataset


def generate_budgets(seed: int, n_rounds: int) -> BudgetSchedule:
    """Rejection-sample ``n_rounds`` return pairs; deterministic per seed."""
    if n_rounds < 1:
        raise ValidationError(f"n_rounds must be >= 1, got {n_rounds}")
    rng = np.random.default_rng(seed)
    # pairs drawn in blocks are the stream's pairs one at a time, so the kept rows are
    # the ones a pair-by-pair draw keeps; rows past the n_rounds-th kept one are unused
    kept = np.empty((0, 2))
    while len(kept) < n_rounds:
        pairs = rng.uniform(RETURN_LOW, RETURN_HIGH, size=(2 * (n_rounds - len(kept)), 2))
        kept = np.concatenate([kept, pairs[pairs.max(axis=1) >= RETURN_MIN_MAX]])
    return BudgetSchedule(tuple(ReturnPair(r_a, r_b) for r_a, r_b in kept[:n_rounds].tolist()))


def evaluation_schedule() -> BudgetSchedule:
    """The shared 25-round schedule on which all subjects are evaluated."""
    return generate_budgets(EVALUATION_SCHEDULE_SEED, EVALUATION_ROUNDS)


def simulate_subject(
    params: DAParams, schedule: BudgetSchedule, subject_id: str = "sim"
) -> SyntheticSubject:
    """Exact optimal choices on every budget of the schedule, in token form."""
    returns = np.array([[r.r_a, r.r_b] for r in schedule.rounds])
    demand = optimal_demand_grid(
        returns_to_prices(returns), np.array([params.beta]), np.array([params.rho]))
    tokens = demand_to_tokens(returns, demand[0])
    return SyntheticSubject(
        subject_id, params, SubjectDataset.from_returns_tokens(subject_id, returns, tokens))


def sample_population(
    seed: int,
    n: int,
    beta_range: tuple[float, float] = REPRESENTATIVE_BETA_RANGE,
    rho_range: tuple[float, float] = REPRESENTATIVE_RHO_RANGE,
) -> list[tuple[str, DAParams]]:
    """Uniform synthetic parameter population over a (beta, rho) box."""
    rng = np.random.default_rng(seed)
    width = max(3, len(str(n)))
    out = []
    for i in range(n):
        beta = float(rng.uniform(*beta_range))
        rho = float(rng.uniform(*rho_range))
        out.append((f"sim{i + 1:0{width}d}", DAParams(beta, rho)))
    return out


PARAMS_HEADER = ("subject_id", "beta", "rho")


def write_params_file(population: Iterable[tuple[str, DAParams]], path: str | Path) -> None:
    write_table(path, PARAMS_HEADER, ((sid, params.beta, params.rho) for sid, params in population))


def read_params_file(path: str | Path) -> list[tuple[str, DAParams]]:
    """The (subject_id, parameters) rows of a params file; a subject id may not repeat."""
    rows = read_table(path, {PARAMS_HEADER: lambda sid, beta, rho: (sid, DAParams(beta, rho))},
                      (str, float, float))
    first_row: dict[str, int] = {}
    for row_num, (sid, _) in rows:
        if first_row.setdefault(sid, row_num) != row_num:
            raise ValidationError(
                f"{path}: rows {first_row[sid]} and {row_num}: subject_id {sid!r} repeats")
    if not rows:
        raise ValidationError(f"{path}: no subjects")
    return [value for _, value in rows]


def write_schedule(schedule: BudgetSchedule, path: str | Path) -> None:
    """Export a schedule in the choice CSV schema with empty allocations."""
    write_table(path, RETURNS_HEADER, (("schedule", i, r.r_a, r.r_b, "", "")
                                       for i, r in enumerate(schedule.rounds, start=1)))


def read_schedule(path: str | Path) -> BudgetSchedule:
    """The returns of a schedule CSV: one subject whose rounds run 1..n in order; the
    allocation columns are not read."""
    rows = read_table(path, {RETURNS_HEADER: lambda sid, index, r_a, r_b, *_:
                             (sid, index, ReturnPair(r_a, r_b))},
                      (str, int, float, float, str, str))
    if not rows:
        raise ValidationError(f"{path}: no rounds")
    first_id = rows[0][1][0]
    for expected, (row_num, (sid, index, _)) in enumerate(rows, start=1):
        if (sid, index) != (first_id, expected):
            raise ValidationError(f"{path}: row {row_num}: subject {sid!r} round {index}, expected "
                                  f"{first_id!r} round {expected}: one subject, rounds 1..n in order")
    return BudgetSchedule(tuple(returns for _, (_, _, returns) in rows))
