"""Domain types for two-asset budget-allocation data, format conversions, and CSV I/O.

One observation can be written in three equivalent coordinate systems:

* return/token form ``(r_a, r_b, t_a, t_b)`` -- each of 100 points invested in
  asset ``i`` pays ``r_i`` dollars;
* price/demand form ``(p_a, p_b, x_a, x_b)`` -- expenditure normalized to 1,
  with ``p_i = 1 / (100 r_i)`` and ``x_i = r_i t_i``;
* A-normalized form ``(1, q_b, y_a, y_b)`` -- the price of asset A set to one.

All analysis modules consume the price/demand form with expenditure 1; the
other two are I/O formats.  Token sums inside ``100 +/- TOKEN_SLACK`` are
accepted; sums that differ from 100 by more than ``BUDGET_TOL`` are rescaled
to exactly 100 and the round is flagged.  Sums within ``BUDGET_TOL`` are kept
bit-for-bit so that a write/read cycle reproduces every float field exactly.

Types are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ValidationError

TOKEN_BUDGET = 100.0
TOKEN_SLACK = 5.0
BUDGET_TOL = 1e-9
_COMPONENT_TOL = 1e-9


class Provenance(str, Enum):
    HUMAN = "human"
    SIMULATED = "simulated"
    LLM_DECISION = "llm_decision"
    LLM_RECOMMENDATION = "llm_recommendation"
    LLM_PERSONALIZED = "llm_personalized"


@dataclass(frozen=True)
class ReturnPair:
    """Dollars paid per point invested in each asset."""

    r_a: float
    r_b: float

    def __post_init__(self):
        if not (self.r_a > 0 and self.r_b > 0):
            raise ValidationError(f"returns must be positive, got ({self.r_a}, {self.r_b})")


@dataclass(frozen=True)
class PricePair:
    """Price per unit of demand under the expenditure-1 normalization."""

    p_a: float
    p_b: float

    def __post_init__(self):
        if not (self.p_a > 0 and self.p_b > 0):
            raise ValidationError(f"prices must be positive, got ({self.p_a}, {self.p_b})")
        # the kink bundle 1 / (p_a + p_b) and every demand kernel need a finite sum
        if not math.isfinite(self.p_a + self.p_b):
            raise ValidationError(f"prices must have a finite sum, got ({self.p_a}, {self.p_b})")

    def cost(self, x_a: float, x_b: float) -> float:
        return self.p_a * x_a + self.p_b * x_b


@dataclass(frozen=True)
class Allocation:
    """Points invested in each asset.  Componentwise in [0, 100]."""

    t_a: float
    t_b: float

    def __post_init__(self):
        for name, t in (("t_a", self.t_a), ("t_b", self.t_b)):
            if not (0.0 <= t <= TOKEN_BUDGET + _COMPONENT_TOL):
                raise ValidationError(f"{name}={t} outside [0, {TOKEN_BUDGET:g}]")

    @property
    def total(self) -> float:
        return self.t_a + self.t_b


@dataclass(frozen=True)
class InterceptPair:
    """Budget-line intercepts; implies p_i = 1/z_i and expenditure 1."""

    z_a: float
    z_b: float

    def __post_init__(self):
        if not (self.z_a > 0 and self.z_b > 0):
            raise ValidationError(f"intercepts must be positive, got ({self.z_a}, {self.z_b})")

    def to_prices(self) -> PricePair:
        return PricePair(1.0 / self.z_a, 1.0 / self.z_b)


def returns_to_prices(r: ReturnPair) -> PricePair:
    """p_i = 1 / (100 r_i)."""
    return PricePair(1.0 / (100.0 * r.r_a), 1.0 / (100.0 * r.r_b))


def prices_to_returns(p: PricePair) -> ReturnPair:
    """r_i = 1 / (100 p_i); inverse of :func:`returns_to_prices`."""
    return ReturnPair(1.0 / (100.0 * p.p_a), 1.0 / (100.0 * p.p_b))


def tokens_to_demand(r: ReturnPair, t: Allocation) -> tuple[tuple[float, float], bool]:
    """Convert an allocation to demand ``x_i = r_i t_i``.

    The raw bundle costs ``(t_a + t_b) / 100``.  When the token sum differs
    from 100 by more than ``BUDGET_TOL`` the demand is rescaled by
    ``100 / (t_a + t_b)`` so the bundle lies exactly on the unit-expenditure
    budget line; the second return value reports whether rescaling happened.
    Sums outside ``100 +/- TOKEN_SLACK`` are rejected.
    """
    total = t.total
    if not (TOKEN_BUDGET - TOKEN_SLACK <= total <= TOKEN_BUDGET + TOKEN_SLACK):
        raise ValidationError(
            f"token sum {total} outside [{TOKEN_BUDGET - TOKEN_SLACK:g}, "
            f"{TOKEN_BUDGET + TOKEN_SLACK:g}]"
        )
    x_a = r.r_a * t.t_a
    x_b = r.r_b * t.t_b
    if abs(total - TOKEN_BUDGET) <= BUDGET_TOL:
        return (x_a, x_b), False
    scale = TOKEN_BUDGET / total
    return (x_a * scale, x_b * scale), True


def demand_to_tokens(r: ReturnPair, x: tuple[float, float]) -> Allocation:
    """t_i = x_i / r_i.  Token total equals 100 times the bundle cost."""
    x_a, x_b = x
    if x_a < 0 or x_b < 0:
        raise ValidationError(f"demand must be nonnegative, got ({x_a}, {x_b})")
    return Allocation(x_a / r.r_a, x_b / r.r_b)


@dataclass(frozen=True)
class ChoiceRound:
    """One observation: 1-based round index, budget, and the chosen bundle.

    ``tokens`` holds the allocation exactly as observed; ``demand`` is the
    budget-normalized bundle used by every index (``prices . demand == 1``).
    """

    round: int
    returns: ReturnPair
    tokens: Allocation
    prices: PricePair
    demand: tuple[float, float]
    rescaled: bool = False

    def __post_init__(self):
        if self.round < 1:
            raise ValidationError(f"round index must be >= 1, got {self.round}")
        for r_i, p_i in ((self.returns.r_a, self.prices.p_a), (self.returns.r_b, self.prices.p_b)):
            if abs(r_i * 100.0 * p_i - 1.0) > 1e-12:
                raise ValidationError(f"returns/prices inconsistent: r={r_i}, p={p_i}")
        cost = self.prices.cost(*self.demand)
        if abs(cost - 1.0) > BUDGET_TOL:
            raise ValidationError(f"budget identity violated: p.x = {cost!r}")

    @classmethod
    def from_returns_tokens(cls, index: int, r: ReturnPair, t: Allocation) -> "ChoiceRound":
        demand, rescaled = tokens_to_demand(r, t)
        return cls(index, r, t, returns_to_prices(r), demand, rescaled)

    @classmethod
    def from_prices_demand(cls, index: int, p: PricePair, x: tuple[float, float]) -> "ChoiceRound":
        if x[0] < 0 or x[1] < 0:
            raise ValidationError(f"demand must be nonnegative, got {x}")
        tokens = Allocation(100.0 * x[0] * p.p_a, 100.0 * x[1] * p.p_b)
        total = tokens.total
        if not (TOKEN_BUDGET - TOKEN_SLACK <= total <= TOKEN_BUDGET + TOKEN_SLACK):
            raise ValidationError(
                f"implied token sum {total} outside [{TOKEN_BUDGET - TOKEN_SLACK:g}, "
                f"{TOKEN_BUDGET + TOKEN_SLACK:g}]"
            )
        if abs(total - TOKEN_BUDGET) <= BUDGET_TOL:
            demand, rescaled = x, False
        else:
            scale = TOKEN_BUDGET / total
            demand, rescaled = (x[0] * scale, x[1] * scale), True
        return cls(index, prices_to_returns(p), tokens, p, demand, rescaled)

    @classmethod
    def from_intercepts(cls, index: int, z: InterceptPair, x: tuple[float, float]) -> "ChoiceRound":
        return cls.from_prices_demand(index, z.to_prices(), x)


def normalize_q_format(q_b: float, y: tuple[float, float], index: int = 1) -> ChoiceRound:
    """Convert an observation in A-normalized form (q_a = 1) to a round.

    p_a = 1 / (y_a + q_b y_b), p_b = q_b p_a, demand unchanged.
    """
    if q_b <= 0:
        raise ValidationError(f"q_b must be positive, got {q_b}")
    y_a, y_b = y
    if y_a < 0 or y_b < 0:
        raise ValidationError(f"demand must be nonnegative, got {y}")
    expenditure = y_a + q_b * y_b
    if expenditure <= 0:
        raise ValidationError("degenerate bundle: zero expenditure in q-format")
    p_a = 1.0 / expenditure
    return ChoiceRound.from_prices_demand(index, PricePair(p_a, q_b * p_a), y)


@dataclass(frozen=True)
class SubjectDataset:
    """Ordered rounds for one subject plus a provenance tag."""

    subject_id: str
    provenance: Provenance
    rounds: tuple[ChoiceRound, ...]

    def __post_init__(self):
        if not self.rounds:
            raise ValidationError(f"subject {self.subject_id!r}: rounds must be nonempty")
        indices = [rd.round for rd in self.rounds]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValidationError(
                f"subject {self.subject_id!r}: round indices must be strictly increasing"
            )

    @property
    def n(self) -> int:
        return len(self.rounds)

    def price_matrix(self) -> np.ndarray:
        return np.array([[rd.prices.p_a, rd.prices.p_b] for rd in self.rounds])

    def demand_matrix(self) -> np.ndarray:
        return np.array([list(rd.demand) for rd in self.rounds])

    def token_matrix(self) -> np.ndarray:
        return np.array([[rd.tokens.t_a, rd.tokens.t_b] for rd in self.rounds])

    def return_matrix(self) -> np.ndarray:
        return np.array([[rd.returns.r_a, rd.returns.r_b] for rd in self.rounds])


RETURNS_HEADER = ["subject_id", "round", "r_a", "r_b", "t_a", "t_b"]
PRICES_HEADER = ["subject_id", "round", "p_a", "p_b", "x_a", "x_b"]


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(v))


def _parse_float(value: str, row_num: int, column: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"row {row_num}, column {column!r}: not a number: {value!r}") from None


def _parse_int(value: str, row_num: int, column: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"row {row_num}, column {column!r}: not an integer: {value!r}") from None


def read_dataset(path: str | Path, provenance: Provenance = Provenance.HUMAN) -> list[SubjectDataset]:
    """Read subjects from a choice CSV, auto-detecting the schema from its header.

    Rows are grouped by ``subject_id`` in file order; every domain invariant is
    validated on read and errors name the offending row and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if header == RETURNS_HEADER:
            fmt = "returns"
        elif header == PRICES_HEADER:
            fmt = "prices"
        else:
            raise ValidationError(f"{path}: unrecognized header {header!r}")
        by_subject: dict[str, list[ChoiceRound]] = {}
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ValidationError(f"row {row_num}: expected 6 fields, got {len(row)}")
            sid = row[0]
            idx = _parse_int(row[1], row_num, "round")
            try:
                if fmt == "returns":
                    r = ReturnPair(_parse_float(row[2], row_num, "r_a"),
                                   _parse_float(row[3], row_num, "r_b"))
                    t = Allocation(_parse_float(row[4], row_num, "t_a"),
                                   _parse_float(row[5], row_num, "t_b"))
                    rd = ChoiceRound.from_returns_tokens(idx, r, t)
                else:
                    p = PricePair(_parse_float(row[2], row_num, "p_a"),
                                  _parse_float(row[3], row_num, "p_b"))
                    x = (_parse_float(row[4], row_num, "x_a"),
                         _parse_float(row[5], row_num, "x_b"))
                    rd = ChoiceRound.from_prices_demand(idx, p, x)
            except ValidationError as exc:
                raise ValidationError(f"row {row_num}: {exc}") from None
            by_subject.setdefault(sid, []).append(rd)
    return [
        SubjectDataset(sid, provenance, tuple(rounds))
        for sid, rounds in by_subject.items()
    ]


def write_dataset(datasets: Iterable[SubjectDataset], path: str | Path, fmt: str = "returns") -> None:
    """Write subjects to a choice CSV (UTF-8, LF endings, round-trip floats)."""
    if fmt not in ("returns", "prices"):
        raise ValidationError(f"unknown format {fmt!r}")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RETURNS_HEADER if fmt == "returns" else PRICES_HEADER)
        for ds in datasets:
            for rd in ds.rounds:
                if fmt == "returns":
                    fields = (rd.returns.r_a, rd.returns.r_b, rd.tokens.t_a, rd.tokens.t_b)
                else:
                    fields = (rd.prices.p_a, rd.prices.p_b, rd.demand[0], rd.demand[1])
                writer.writerow([ds.subject_id, rd.round] + [format_float(v) for v in fields])


def dataset_prefix(dataset: SubjectDataset, s: int) -> SubjectDataset:
    """First ``s`` rounds of a dataset, order preserved."""
    if not 1 <= s <= dataset.n:
        raise ValidationError(f"prefix size {s} outside [1, {dataset.n}]")
    return replace(dataset, rounds=dataset.rounds[:s])
