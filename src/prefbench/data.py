"""Two-asset budget-allocation data: the columnar subject dataset, conversions, and CSV I/O.

A round is written as returns and tokens ``(r_a, r_b, t_a, t_b)`` -- each of 100
points invested in asset ``i`` pays ``r_i`` dollars -- or as prices and demand
``(p_a, p_b, x_a, x_b)`` on the unit-expenditure budget, ``p_i = 1 / (100 r_i)``
and ``x_i = r_i t_i``.  A :class:`SubjectDataset` holds a subject's rounds as
read-only columns in both forms, derived once and validated in arrays;
analyses read the price and demand columns.  Token sums (implied by the demand,
in the price/demand form) inside ``100 +/- TOKEN_SLACK`` are accepted; sums more
than ``BUDGET_TOL`` from 100 are rescaled onto the budget line and the round is
flagged, and others are kept bit-for-bit, so a write/read cycle reproduces
every float.  Choice CSVs are read in either form and written in the first.

Every CSV table goes through :func:`read_table` (choice data through
:func:`read_dataset`) and :func:`write_table`: UTF-8, LF line ends, a header
row, floats as shortest round-trip decimals, and a field quoted (RFC 4180) only
where it holds a comma, a quote or a line feed.  Every reading error is a
``ValidationError`` naming the file and row.
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
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


Allocation = namedtuple("Allocation", "t_a t_b")
RoundRecord = namedtuple("RoundRecord", "round returns tokens prices demand rescaled")


def returns_to_prices(returns) -> np.ndarray:
    """p_i = 1 / (100 r_i), elementwise; the same map takes prices back to returns."""
    return 1.0 / (100.0 * np.asarray(returns, dtype=float))


def demand_to_tokens(returns, demand) -> np.ndarray:
    """Tokens ``t_i = x_i / r_i`` of (n, 2) bundles on the budget line.  ``x_a / r_a`` at the
    corner ``(1 / p_a, 0)``, or beside a speck of ``x_b``, is 100 only up to rounding: a corner
    holds exactly ``TOKEN_BUDGET``, and no token exceeds it, as the chat-answer parser needs."""
    demand = np.asarray(demand, dtype=float)
    if (demand < 0).any():
        negative = demand[(demand < 0).any(axis=-1)]
        raise ValidationError(f"demand must be nonnegative, got {tuple(negative[0].tolist())}")
    return np.where(demand[..., ::-1] == 0.0, TOKEN_BUDGET, np.minimum(demand / returns, TOKEN_BUDGET))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _derived(from_prices: bool, round, first, second) -> tuple[tuple, list]:
    """Columns (returns, tokens, prices, demand, rescaled) from (n, 2) returns and tokens, or
    prices and demand, and the checks of that form."""
    if from_prices:
        prices, x = first, second
        returns, tokens = returns_to_prices(prices), 100.0 * x * prices
    else:
        returns, tokens = first, second
        prices, x = returns_to_prices(returns), returns * tokens
    total = tokens[:, 0] + tokens[:, 1]
    rescaled = ~(np.abs(total - TOKEN_BUDGET) <= BUDGET_TOL)
    demand = np.where(rescaled[:, None], x * (TOKEN_BUDGET / total)[:, None], x)
    return (returns, tokens, prices, demand, rescaled), _checks(
        from_prices, round, returns, tokens, prices, x, demand)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _checks(from_prices: bool, round, returns, tokens, prices, x, demand) -> list:
    """A form's checks in the order its per-round constructors once made them, each (the rounds
    failing it, its message, the (n, k) values shown); ``x`` is the demand before rescaling."""
    total, (p_a, p_b) = tokens[:, 0] + tokens[:, 1], prices.T
    outside = ~((0.0 <= tokens) & (tokens <= TOKEN_BUDGET + _COMPONENT_TOL))
    inverse = np.abs(returns * 100.0 * prices - 1.0) > 1e-12
    cost = p_a * demand[:, 0] + p_b * demand[:, 1]
    low, high = TOKEN_BUDGET - TOKEN_SLACK, TOKEN_BUDGET + TOKEN_SLACK
    positive_returns = (~(returns > 0).all(axis=1), "returns must be positive, got ({}, {})", returns)
    nonnegative_demand = ((x < 0).any(axis=1), "demand must be nonnegative, got ({}, {})", x)
    price_checks = [  # PricePair's
        (~(prices > 0).all(axis=1), "prices must be positive, got ({}, {})", prices),
        (~np.isfinite(p_a + p_b), "prices must have a finite sum, got ({}, {})", prices),
        (~(np.isfinite(p_a / p_b) & np.isfinite(p_b / p_a)),
         "prices must have finite ratios, got ({}, {})", prices)]
    token_checks = [
        *((outside[:, k], f"{name}={{}} outside [0, {TOKEN_BUDGET:g}]", tokens[:, k:k + 1])
          for k, name in enumerate(("t_a", "t_b"))),
        (~((low <= total) & (total <= high)), ("implied token sum" if from_prices else "token sum")
         + f" {{}} outside [{low:g}, {high:g}]", total[:, None])]
    form = ([*price_checks, nonnegative_demand, *token_checks, positive_returns] if from_prices
            else [positive_returns, *token_checks, *price_checks])
    return form + [
        (round < 1, "round index must be >= 1, got {}", round[:, None]),
        *((inverse[:, k], "returns/prices inconsistent: r={}, p={}",
           np.column_stack([returns[:, k], prices[:, k]])) for k in (0, 1)),
        (np.abs(cost - 1.0) > BUDGET_TOL, "budget identity violated: p.x = {!r}", cost[:, None])]


def _first_failure(checks: Sequence) -> tuple[int, str] | None:
    """The first round failing any check, and the message of the first check it fails."""
    failed = np.array([bad for bad, _, _ in checks])
    rounds = failed.any(axis=0)
    if not rounds.any():
        return None
    i = int(rounds.argmax())
    _, message, values = checks[int(failed[:, i].argmax())]
    return i, message.format(*values[i].tolist())


@dataclass(frozen=True, eq=False)
class SubjectDataset:
    """One subject's rounds: ``round`` (n,), strictly increasing from 1; ``returns``, ``tokens``
    (as observed), ``prices`` and ``demand`` (``prices . demand == 1``), (n, 2) with asset A
    in column 0; ``rescaled`` (n,), the rounds whose token sum was scaled onto the budget.

    The ``from_*`` constructors and :func:`read_dataset` derive, validate and freeze the
    columns; the constructor takes columns that hold already, such as slices of them.
    """

    subject_id: str
    round: np.ndarray
    returns: np.ndarray
    tokens: np.ndarray
    prices: np.ndarray
    demand: np.ndarray
    rescaled: np.ndarray

    @classmethod
    def from_returns_tokens(cls, subject_id: str, returns, tokens, round=None) -> SubjectDataset:
        """Rounds ``round`` (1 to n by default) with these (n, 2) returns and tokens."""
        return cls._made(subject_id, False, round, returns, tokens)

    @classmethod
    def from_prices_demand(cls, subject_id: str, prices, demand, round=None) -> SubjectDataset:
        """Rounds ``round`` (1 to n by default) with these (n, 2) prices and demand."""
        return cls._made(subject_id, True, round, prices, demand)

    @classmethod
    def _made(cls, subject_id, from_prices, round, *pairs) -> SubjectDataset:
        first, second = (np.array(pair, dtype=float).reshape(-1, 2) for pair in pairs)
        round = np.arange(1, len(first) + 1) if round is None else np.array(round, dtype=np.int64)
        columns, checks = _derived(from_prices, round, first, second)
        failure = _first_failure(checks)
        if failure is not None:
            raise ValidationError(failure[1])
        if not len(round):
            raise ValidationError(f"subject {subject_id!r}: rounds must be nonempty")
        if (np.diff(round) <= 0).any():
            raise ValidationError(f"subject {subject_id!r}: round indices must be strictly increasing")
        for column in (round, *columns):
            column.setflags(write=False)
        return cls(subject_id, round, *columns)

    def __eq__(self, other):
        return isinstance(other, SubjectDataset) and self.subject_id == other.subject_id and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    @property
    def n(self) -> int:
        return len(self.round)

    @property
    def rounds(self) -> tuple[RoundRecord, ...]:
        """Each round as Python values, built from the columns on every read."""
        return tuple(
            RoundRecord(k, ReturnPair(*r), Allocation(*t), PricePair(*p), tuple(x), s)
            for k, r, t, p, x, s in zip(*(getattr(self, name).tolist() for name in _COLUMNS)))

    def price_matrix(self) -> np.ndarray:
        return self.prices

    def demand_matrix(self) -> np.ndarray:
        return self.demand


_COLUMNS = ("round", "returns", "tokens", "prices", "demand", "rescaled")


RETURNS_HEADER = ("subject_id", "round", "r_a", "r_b", "t_a", "t_b")
PRICES_HEADER = ("subject_id", "round", "p_a", "p_b", "x_a", "x_b")


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(v))


def _parse(kind: type, value: str, row_num: int, column: str):
    """One field as ``kind``, or a ValidationError naming its row and column."""
    if kind is not str:
        try:
            return kind(value)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValidationError(f"row {row_num}, column {column!r}: not {what}: {value!r}") from None
    # csv.writer leaves a carriage return unquoted, so such a field would not read back
    if "\r" in value:
        raise ValidationError(f"row {row_num}, column {column!r}: carriage return in {value!r}")
    return value


def _read_columns(path: Path, headers: Iterable[tuple[str, ...]], types: Sequence[type]):
    """The header, the numbers and parsed columns of the rows before the first bad row, and
    its error (or None).  The header is row 1, one of ``headers``; blank rows are skipped, and
    every other needs a field per column, of its type in ``types`` (leftmost bad one named)."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            if tuple(header) not in headers:
                expected = " or ".join(",".join(known) for known in headers)
                raise ValidationError(
                    f"{path}: row 1: unrecognized header {header!r}; expected {expected}")
            rows, error = [], None
            try:
                rows.extend(reader)  # keeps the rows read before an error
            except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or over csv's size limit
                error = ValidationError(f"{path}: {exc}")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    row_nums = list(range(2, len(rows) + 2))
    if set(map(len, rows)) != {len(header)}:  # blank rows, or a row of another length
        row_nums = [row_num for row_num, fields in zip(row_nums, rows) if fields]
        rows = [fields for fields in rows if fields]
        for k, fields in enumerate(rows):
            if len(fields) != len(header):
                error = ValidationError(
                    f"{path}: row {row_nums[k]}: expected {len(header)} fields, got {len(fields)}")
                del rows[k:], row_nums[k:]
                break
    columns = []
    for column, kind, values in zip(header, types, zip(*rows) if rows else repeat(())):
        values = values[:len(row_nums)]
        try:
            if kind is str and "\r" in "".join(values):
                raise ValueError
            columns.append(list(values if kind is str else map(kind, values)))
        except ValueError:  # parse field by field up to the first bad one, which ends the rows
            parsed = []
            try:
                for value, row_num in zip(values, row_nums):
                    parsed.append(_parse(kind, value, row_num, column))
            except ValidationError as exc:
                error = ValidationError(f"{path}: {exc}")
                del row_nums[len(parsed):]
            columns.append(parsed)
    return tuple(header), row_nums, [values[:len(row_nums)] for values in columns], error


def read_table(
    path: str | Path, tables: Mapping[tuple[str, ...], Callable], types: Sequence[type]
) -> list[tuple[int, object]]:
    """``(row number, value)`` for each data row of the CSV table at ``path``: ``tables`` maps
    each header it may have to the function making a row's value from its fields, typed by
    ``types`` (:func:`_read_columns`)."""
    path = Path(path)
    header, row_nums, columns, error = _read_columns(path, tables, types)
    rows = []
    for row_num, values in zip(row_nums, zip(*columns)):
        try:
            rows.append((row_num, tables[header](*values)))
        except ValidationError as exc:
            raise ValidationError(f"{path}: row {row_num}: {exc}") from None
    if error is not None:
        raise error
    return rows


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a CSV table: UTF-8, LF endings, floats by :func:`format_float`.

    A field is quoted only where it holds a comma, a quote or a line feed.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(v) if isinstance(v, float) else v for v in row] for row in rows)


def read_dataset(path: str | Path) -> list[SubjectDataset]:
    """Subjects of a choice CSV in either form, told apart by the header, in order of first
    appearance (one stable sort); each column is parsed and every round validated at once."""
    path = Path(path)
    header, row_nums, (ids, index, *numbers), error = _read_columns(
        path, (RETURNS_HEADER, PRICES_HEADER), (str, int, float, float, float, float))
    round = np.array(index)  # int64, or objects where an index needs more bits
    columns, checks = _derived(header == PRICES_HEADER, round,
                               np.column_stack(numbers[:2]), np.column_stack(numbers[2:]))
    failure = _first_failure(checks)
    if failure is not None:
        raise ValidationError(f"{path}: row {row_nums[failure[0]]}: {failure[1]}")
    if error is not None:
        raise error
    first = {sid: k for k, sid in enumerate(dict.fromkeys(ids))}  # the subjects, in order
    codes = np.fromiter(map(first.__getitem__, ids), dtype=np.intp, count=len(ids))
    order = np.argsort(codes, kind="stable")
    codes, columns = codes[order], [column[order] for column in (round, *columns)]
    repeated = (np.diff(columns[0]) <= 0) & (np.diff(codes) == 0)
    if repeated.any():
        sid = list(first)[codes[repeated.argmax()]]
        raise ValidationError(f"{path}: subject {sid!r}: round indices must be strictly increasing")
    for column in columns:
        column.setflags(write=False)
    bounds = [0, *np.cumsum(np.bincount(codes, minlength=len(first))).tolist()]
    return [SubjectDataset(sid, *(column[lo:hi] for column in columns))
            for sid, lo, hi in zip(first, bounds, bounds[1:])]


def write_dataset(datasets: Iterable[SubjectDataset], path: str | Path) -> None:
    """Write subjects to a choice CSV in the return/token format."""
    write_table(path, RETURNS_HEADER, (
        row for ds in datasets
        for row in zip(repeat(ds.subject_id), ds.round.tolist(), *ds.returns.T.tolist(),
                       *ds.tokens.T.tolist())))


def dataset_prefix(dataset: SubjectDataset, s: int) -> SubjectDataset:
    """First ``s`` rounds of a dataset, order preserved: slices of its columns."""
    if not 1 <= s <= dataset.n:
        raise ValidationError(f"prefix size {s} outside [1, {dataset.n}]")
    return SubjectDataset(dataset.subject_id, *(getattr(dataset, name)[:s] for name in _COLUMNS))
