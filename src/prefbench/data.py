"""Domain types for two-asset budget-allocation data, format conversions, and CSV I/O.

One observation can be written in two equivalent coordinate systems:

* return/token form ``(r_a, r_b, t_a, t_b)`` -- each of 100 points invested in
  asset ``i`` pays ``r_i`` dollars;
* price/demand form ``(p_a, p_b, x_a, x_b)`` -- expenditure normalized to 1,
  with ``p_i = 1 / (100 r_i)`` and ``x_i = r_i t_i``.

All analysis modules consume the price/demand form with expenditure 1.  Choice
CSVs are read in either form and written in the return/token form.  Token sums
(implied by the demand, in the price/demand form) inside ``100 +/- TOKEN_SLACK``
are accepted; sums that differ from 100 by more than ``BUDGET_TOL`` are
rescaled to exactly 100 and the round is flagged.  Sums within ``BUDGET_TOL``
are kept bit-for-bit so that a write/read cycle reproduces every float field
exactly.

Every CSV table the package reads or writes goes through :func:`read_table`
and :func:`write_table`: UTF-8, LF line ends, a header row, floats as shortest
round-trip decimals, and a field quoted (RFC 4180) only where it holds a comma,
a quote or a line feed.  The reader checks the header, each row's field count
and its numbers, and rejects a text field holding a carriage return (which the
writer would leave unquoted); every error is a ``ValidationError`` naming the
file and row.

Types are immutable after construction and all functions but the table I/O
are pure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

TOKEN_BUDGET = 100.0
TOKEN_SLACK = 5.0
BUDGET_TOL = 1e-9
_COMPONENT_TOL = 1e-9


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
        # the interior bundles need the price ratios, which overflow before the sum
        if not (math.isfinite(self.p_a / self.p_b) and math.isfinite(self.p_b / self.p_a)):
            raise ValidationError(f"prices must have finite ratios, got ({self.p_a}, {self.p_b})")

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


def returns_to_prices(r: ReturnPair) -> PricePair:
    """p_i = 1 / (100 r_i)."""
    return PricePair(1.0 / (100.0 * r.r_a), 1.0 / (100.0 * r.r_b))


def prices_to_returns(p: PricePair) -> ReturnPair:
    """r_i = 1 / (100 p_i); inverse of :func:`returns_to_prices`."""
    return ReturnPair(1.0 / (100.0 * p.p_a), 1.0 / (100.0 * p.p_b))


def _on_budget(x_a: float, x_b: float, total: float, what: str) -> tuple[tuple[float, float], bool]:
    """Demand ``(x_a, x_b)`` of a bundle whose tokens sum to ``total``, and whether it was rescaled.

    Sums outside ``100 +/- TOKEN_SLACK`` are rejected, the error naming the sum
    as ``what``; sums within ``BUDGET_TOL`` of 100 keep the demand as it is,
    and any other sum scales it by ``100 / total`` onto the budget line.
    """
    if not (TOKEN_BUDGET - TOKEN_SLACK <= total <= TOKEN_BUDGET + TOKEN_SLACK):
        raise ValidationError(
            f"{what} {total} outside [{TOKEN_BUDGET - TOKEN_SLACK:g}, "
            f"{TOKEN_BUDGET + TOKEN_SLACK:g}]"
        )
    if abs(total - TOKEN_BUDGET) <= BUDGET_TOL:
        return (x_a, x_b), False
    scale = TOKEN_BUDGET / total
    return (x_a * scale, x_b * scale), True


def tokens_to_demand(r: ReturnPair, t: Allocation) -> tuple[tuple[float, float], bool]:
    """Convert an allocation to demand ``x_i = r_i t_i``.

    The raw bundle costs ``(t_a + t_b) / 100``.  When the token sum differs
    from 100 by more than ``BUDGET_TOL`` the demand is rescaled by
    ``100 / (t_a + t_b)`` so the bundle lies exactly on the unit-expenditure
    budget line; the second return value reports whether rescaling happened.
    Sums outside ``100 +/- TOKEN_SLACK`` are rejected.
    """
    return _on_budget(r.r_a * t.t_a, r.r_b * t.t_b, t.total, "token sum")


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
        demand, rescaled = _on_budget(*x, tokens.total, "implied token sum")
        return cls(index, prices_to_returns(p), tokens, p, demand, rescaled)


@dataclass(frozen=True)
class SubjectDataset:
    """Ordered rounds for one subject."""

    subject_id: str
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


RETURNS_HEADER = ("subject_id", "round", "r_a", "r_b", "t_a", "t_b")
PRICES_HEADER = ("subject_id", "round", "p_a", "p_b", "x_a", "x_b")


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


def _parse_str(value: str, row_num: int, column: str) -> str:
    # csv.writer leaves a carriage return unquoted, so such a field would not read back
    if "\r" in value:
        raise ValidationError(f"row {row_num}, column {column!r}: carriage return in {value!r}")
    return value


_PARSERS = {int: _parse_int, float: _parse_float, str: _parse_str}


def read_table(
    path: str | Path, tables: Mapping[tuple[str, ...], Callable], types: Sequence[type]
) -> list[tuple[int, object]]:
    """``(row number, value)`` for each data row of the CSV table at ``path``.

    ``tables`` maps each header the table may have to the function that makes a
    row's value from its fields; ``types`` gives each field's type: ``int`` and
    ``float`` fields are parsed as numbers, and a ``str`` field may not hold a
    carriage return.  The header is row 1; blank rows are skipped and every
    other row must have as many fields as the header.  Every error is a
    ValidationError naming the file, and the row where the reader can tell it.
    """
    path = Path(path)
    parsers = [_PARSERS[kind] for kind in types]
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            make = tables.get(tuple(header))
            if make is None:
                expected = " or ".join(",".join(known) for known in tables)
                raise ValidationError(
                    f"{path}: row 1: unrecognized header {header!r}; expected {expected}")
            rows = []
            for row_num, fields in enumerate(reader, start=2):
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ValidationError(
                        f"{path}: row {row_num}: expected {len(header)} fields, got {len(fields)}")
                try:  # the parsers name the row and the column
                    values = [parse(value, row_num, column)
                              for parse, value, column in zip(parsers, fields, header)]
                except ValidationError as exc:
                    raise ValidationError(f"{path}: {exc}") from None
                try:
                    rows.append((row_num, make(*values)))
                except ValidationError as exc:
                    raise ValidationError(f"{path}: row {row_num}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field over csv's size limit
        raise ValidationError(f"{path}: {exc}") from None
    return rows


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table: UTF-8, LF endings, floats by :func:`format_float`.

    A field is quoted only where it holds a comma, a quote or a line feed.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(v) if isinstance(v, float) else v for v in row] for row in rows)


_CHOICE_TABLES = {
    RETURNS_HEADER: lambda sid, index, r_a, r_b, t_a, t_b: (
        sid, ChoiceRound.from_returns_tokens(index, ReturnPair(r_a, r_b), Allocation(t_a, t_b))),
    PRICES_HEADER: lambda sid, index, p_a, p_b, x_a, x_b: (
        sid, ChoiceRound.from_prices_demand(index, PricePair(p_a, p_b), (x_a, x_b))),
}


def read_dataset(path: str | Path) -> list[SubjectDataset]:
    """Read subjects from a choice CSV in either format, told apart by the header.

    Rows are grouped by ``subject_id`` in file order; every domain invariant is
    validated on read and errors name the file and the offending row or subject.
    """
    by_subject: dict[str, list[ChoiceRound]] = {}
    for _, (sid, rd) in read_table(path, _CHOICE_TABLES, (str, int, float, float, float, float)):
        by_subject.setdefault(sid, []).append(rd)
    try:
        return [SubjectDataset(sid, tuple(rounds)) for sid, rounds in by_subject.items()]
    except ValidationError as exc:  # a subject's round indices do not increase
        raise ValidationError(f"{path}: {exc}") from None


def write_dataset(datasets: Iterable[SubjectDataset], path: str | Path) -> None:
    """Write subjects to a choice CSV in the return/token format."""
    write_table(path, RETURNS_HEADER, (
        (ds.subject_id, rd.round, rd.returns.r_a, rd.returns.r_b, rd.tokens.t_a, rd.tokens.t_b)
        for ds in datasets for rd in ds.rounds))


def dataset_prefix(dataset: SubjectDataset, s: int) -> SubjectDataset:
    """First ``s`` rounds of a dataset, order preserved."""
    if not 1 <= s <= dataset.n:
        raise ValidationError(f"prefix size {s} outside [1, {dataset.n}]")
    return replace(dataset, rounds=dataset.rounds[:s])
