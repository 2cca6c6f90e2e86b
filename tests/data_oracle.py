"""The per-row choice reader that the columnar ``prefbench.data`` replaced, as a test oracle.

Each CSV row becomes a ``ChoiceRound`` holding validated ``ReturnPair``,
``Allocation`` and ``PricePair`` objects, one ``__post_init__`` at a time, and
rows are grouped by subject in a dict.  :func:`read_dataset` here returns
``(subject_id, rounds)`` pairs; :func:`columns` gives one subject's rounds as
the arrays a ``prefbench.data.SubjectDataset`` holds, so the two readers can be
compared bit for bit, and their errors message for message.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from prefbench.errors import ValidationError

TOKEN_BUDGET = 100.0
TOKEN_SLACK = 5.0
BUDGET_TOL = 1e-9
_COMPONENT_TOL = 1e-9

RETURNS_HEADER = ("subject_id", "round", "r_a", "r_b", "t_a", "t_b")
PRICES_HEADER = ("subject_id", "round", "p_a", "p_b", "x_a", "x_b")


@dataclass(frozen=True)
class ReturnPair:
    r_a: float
    r_b: float

    def __post_init__(self):
        if not (self.r_a > 0 and self.r_b > 0):
            raise ValidationError(f"returns must be positive, got ({self.r_a}, {self.r_b})")


@dataclass(frozen=True)
class PricePair:
    p_a: float
    p_b: float

    def __post_init__(self):
        if not (self.p_a > 0 and self.p_b > 0):
            raise ValidationError(f"prices must be positive, got ({self.p_a}, {self.p_b})")
        if not math.isfinite(self.p_a + self.p_b):
            raise ValidationError(f"prices must have a finite sum, got ({self.p_a}, {self.p_b})")
        if not (math.isfinite(self.p_a / self.p_b) and math.isfinite(self.p_b / self.p_a)):
            raise ValidationError(f"prices must have finite ratios, got ({self.p_a}, {self.p_b})")

    def cost(self, x_a: float, x_b: float) -> float:
        return self.p_a * x_a + self.p_b * x_b


@dataclass(frozen=True)
class Allocation:
    t_a: float
    t_b: float

    def __post_init__(self):
        for name, t in (("t_a", self.t_a), ("t_b", self.t_b)):
            if not (0.0 <= t <= TOKEN_BUDGET + _COMPONENT_TOL):
                raise ValidationError(f"{name}={t} outside [0, {TOKEN_BUDGET:g}]")

    @property
    def total(self) -> float:
        return self.t_a + self.t_b


def _on_budget(x_a: float, x_b: float, total: float, what: str) -> tuple[tuple[float, float], bool]:
    if not (TOKEN_BUDGET - TOKEN_SLACK <= total <= TOKEN_BUDGET + TOKEN_SLACK):
        raise ValidationError(
            f"{what} {total} outside [{TOKEN_BUDGET - TOKEN_SLACK:g}, "
            f"{TOKEN_BUDGET + TOKEN_SLACK:g}]"
        )
    if abs(total - TOKEN_BUDGET) <= BUDGET_TOL:
        return (x_a, x_b), False
    scale = TOKEN_BUDGET / total
    return (x_a * scale, x_b * scale), True


@dataclass(frozen=True)
class ChoiceRound:
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
    def from_returns_tokens(cls, index: int, r: ReturnPair, t: Allocation) -> ChoiceRound:
        demand, rescaled = _on_budget(r.r_a * t.t_a, r.r_b * t.t_b, t.total, "token sum")
        prices = PricePair(1.0 / (100.0 * r.r_a), 1.0 / (100.0 * r.r_b))
        return cls(index, r, t, prices, demand, rescaled)

    @classmethod
    def from_prices_demand(cls, index: int, p: PricePair, x: tuple[float, float]) -> ChoiceRound:
        if x[0] < 0 or x[1] < 0:
            raise ValidationError(f"demand must be nonnegative, got {x}")
        tokens = Allocation(100.0 * x[0] * p.p_a, 100.0 * x[1] * p.p_b)
        demand, rescaled = _on_budget(*x, tokens.total, "implied token sum")
        returns = ReturnPair(1.0 / (100.0 * p.p_a), 1.0 / (100.0 * p.p_b))
        return cls(index, returns, tokens, p, demand, rescaled)


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
    if "\r" in value:
        raise ValidationError(f"row {row_num}, column {column!r}: carriage return in {value!r}")
    return value


_PARSERS = {int: _parse_int, float: _parse_float, str: _parse_str}


def read_table(
    path: str | Path, tables: Mapping[tuple[str, ...], Callable], types: Sequence[type]
) -> list[tuple[int, object]]:
    """``(row number, value)`` per data row, each row parsed and made before the next is read."""
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
                try:
                    values = [parse(value, row_num, column)
                              for parse, value, column in zip(parsers, fields, header)]
                except ValidationError as exc:
                    raise ValidationError(f"{path}: {exc}") from None
                try:
                    rows.append((row_num, make(*values)))
                except ValidationError as exc:
                    raise ValidationError(f"{path}: row {row_num}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return rows


_CHOICE_TABLES = {
    RETURNS_HEADER: lambda sid, index, r_a, r_b, t_a, t_b: (
        sid, ChoiceRound.from_returns_tokens(index, ReturnPair(r_a, r_b), Allocation(t_a, t_b))),
    PRICES_HEADER: lambda sid, index, p_a, p_b, x_a, x_b: (
        sid, ChoiceRound.from_prices_demand(index, PricePair(p_a, p_b), (x_a, x_b))),
}


def read_dataset(path: str | Path) -> list[tuple[str, tuple[ChoiceRound, ...]]]:
    """``(subject_id, rounds)`` per subject, in order of first appearance."""
    by_subject: dict[str, list[ChoiceRound]] = {}
    for _, (sid, rd) in read_table(path, _CHOICE_TABLES, (str, int, float, float, float, float)):
        by_subject.setdefault(sid, []).append(rd)
    for sid, rounds in by_subject.items():
        indices = [rd.round for rd in rounds]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValidationError(
                f"{path}: subject {sid!r}: round indices must be strictly increasing")
    return [(sid, tuple(rounds)) for sid, rounds in by_subject.items()]


def columns(rounds: Sequence[ChoiceRound]) -> dict[str, np.ndarray]:
    """The rounds as ``SubjectDataset``'s columns, by name."""
    return {
        "round": np.array([rd.round for rd in rounds], dtype=np.int64),
        "returns": np.array([[rd.returns.r_a, rd.returns.r_b] for rd in rounds]),
        "tokens": np.array([[rd.tokens.t_a, rd.tokens.t_b] for rd in rounds]),
        "prices": np.array([[rd.prices.p_a, rd.prices.p_b] for rd in rounds]),
        "demand": np.array([list(rd.demand) for rd in rounds]),
        "rescaled": np.array([rd.rescaled for rd in rounds], dtype=bool),
    }
