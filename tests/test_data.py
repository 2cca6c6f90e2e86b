from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import data_oracle as oracle
from prefbench.data import (
    PRICES_HEADER,
    RETURNS_HEADER,
    Allocation,
    PricePair,
    ReturnPair,
    SubjectDataset,
    _checks,
    _first_failure,
    dataset_prefix,
    demand_to_tokens,
    read_dataset,
    read_table,
    returns_to_prices,
    write_dataset,
    write_table,
)
from prefbench.errors import ValidationError

returns_strategy = st.floats(min_value=0.1, max_value=1.0, allow_nan=False)


def tokens_to_demand(r: tuple[float, float], t: tuple[float, float]):
    """The demand of one round in the return/token form, and whether it was rescaled."""
    ds = SubjectDataset.from_returns_tokens("s", [r], [t])
    return tuple(ds.demand[0].tolist()), bool(ds.rescaled[0])


def check_round(round: int, returns, tokens, prices, demand) -> None:
    """The checks every constructor makes, on one round's stored fields."""
    failure = _first_failure(_checks(False, np.array([round]), *(
        np.array([pair]) for pair in (returns, tokens, prices, demand, demand))))
    if failure is not None:
        raise ValidationError(failure[1])


class TestConversions:
    def test_returns_to_prices_formula(self):
        p_a, p_b = returns_to_prices([0.5, 0.9])
        assert p_a == 0.02
        assert p_b == 1.0 / 90.0
        # cross-check through the inverse
        r_a, r_b = returns_to_prices([p_a, p_b])
        assert math.isclose(r_a, 0.5, rel_tol=1e-12)
        assert math.isclose(r_b, 0.9, rel_tol=1e-12)

    def test_returns_to_prices_trivial(self):
        assert returns_to_prices([0.01, 0.01]).tolist() == [1.0, 1.0]
        assert returns_to_prices([1.0, 1.0]).tolist() == [0.01, 0.01]

    def test_prices_to_returns_table_row(self):
        r_a, r_b = returns_to_prices([0.0237, 0.0125])
        assert math.isclose(r_a, 1.0 / 2.37, rel_tol=1e-15)
        assert r_b == 0.8

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValidationError):
            ReturnPair(0.0, 0.5)
        with pytest.raises(ValidationError):
            PricePair(0.01, -0.01)

    def test_prices_with_an_infinite_sum_rejected(self):
        # each price is finite, their sum overflows and the kink bundle would be 0
        with pytest.raises(ValidationError, match="finite sum"):
            PricePair(1.7e308, 1.7e308)
        with pytest.raises(ValidationError, match="finite sum"):
            PricePair(math.inf, 0.02)
        assert PricePair(1.6e308, 1e10).p_a == 1.6e308

    def test_prices_with_overflowing_ratios_rejected(self):
        # the sum is finite, p_a / p_b is not: the interior demand would overflow
        with pytest.raises(ValidationError, match="finite ratios"):
            PricePair(1.6e308, 0.02)
        with pytest.raises(ValidationError, match="finite ratios"):
            PricePair(0.02, 1.6e308)
        # a single subnormal return: about 1.67e308 against 0.02
        with pytest.raises(ValidationError, match="finite ratios"):
            SubjectDataset.from_returns_tokens("s", [(6e-311, 0.5)], [(50.0, 50.0)])

    def test_subnormal_returns_with_overflowing_prices_rejected(self):
        # 1 / (100 * 6e-311) is about 1.67e308: one such price is finite, two overflow
        with pytest.raises(ValidationError, match="finite sum"):
            SubjectDataset.from_returns_tokens("s", [(6e-311, 6e-311)], [(50.0, 50.0)])

    @given(returns_strategy, returns_strategy)
    def test_round_trip_returns(self, r_a, r_b):
        back_a, back_b = returns_to_prices(returns_to_prices([r_a, r_b]))
        assert math.isclose(back_a, r_a, rel_tol=1e-12)
        assert math.isclose(back_b, r_b, rel_tol=1e-12)

    def test_tokens_to_demand_corner_and_interior(self):
        r = (0.5, 0.9)
        demand, rescaled = tokens_to_demand(r, (100.0, 0.0))
        assert demand == (50.0, 0.0) and not rescaled
        demand, rescaled = tokens_to_demand(r, (50.0, 50.0))
        assert demand == (25.0, 45.0) and not rescaled

    def test_tokens_to_demand_rescales_sloppy_sum(self):
        r = (0.42194, 0.8)
        t = (78.92, 21.25)
        demand, rescaled = tokens_to_demand(r, t)
        assert rescaled
        scale = 100.0 / (78.92 + 21.25)
        assert demand[0] == pytest.approx(0.42194 * 78.92 * scale, abs=1e-12)
        assert demand[1] == pytest.approx(0.8 * 21.25 * scale, abs=1e-12)
        assert demand[0] == pytest.approx(33.3, abs=0.1)
        assert demand[1] == pytest.approx(17.0, abs=0.1)

    def test_tokens_outside_band_rejected(self):
        with pytest.raises(ValidationError, match=r"\[95, 105\]"):
            tokens_to_demand((0.5, 0.5), (60.0, 52.0))

    def test_demand_to_tokens(self):
        assert demand_to_tokens([0.5, 0.5], [25.0, 25.0]).tolist() == [50.0, 50.0]
        assert demand_to_tokens([0.5, 0.9], [25.0, 45.0]).tolist() == [50.0, 50.0]
        assert demand_to_tokens([1.0, 1.0], [100.0, 0.0]).tolist() == [100.0, 0.0]
        with pytest.raises(ValidationError):
            demand_to_tokens([0.5, 0.5], [-1.0, 51.0])

    def test_a_corner_holds_the_whole_budget(self):
        # x_a / r_a at the corner (1 / p_a, 0) is 100 only up to rounding: a rounding
        # above at r_a = 0.49, below at r_a = 0.14
        returns = np.array([[0.49, 0.3], [0.14, 0.3], [0.3, 0.49]])
        prices = returns_to_prices(returns)
        demand = np.array([[1.0 / prices[0, 0], 0.0], [1.0 / prices[1, 0], 0.0],
                           [0.0, 1.0 / prices[2, 1]]])
        assert (demand / returns)[:2, 0].tolist() == [100.00000000000001, 99.99999999999999]
        assert demand_to_tokens(returns, demand).tolist() == [
            [100.0, 0.0], [100.0, 0.0], [0.0, 100.0]]

    def test_no_token_exceeds_the_budget(self):
        # a speck of asset A leaves x_b / r_b a rounding above 100: DAParams(-0.9, 0.05)
        # on the first budget of the evaluation schedule
        returns = np.array([[0.5959320410823518, 0.8987645811121663]])
        demand = np.array([[2.424720555505163e-22, 89.87645811121664]])
        assert (demand / returns)[0].tolist() == [4.068787023267459e-22, 100.00000000000001]
        assert demand_to_tokens(returns, demand)[0].tolist() == [4.068787023267459e-22, 100.0]

    @given(returns_strategy, returns_strategy, st.floats(min_value=0.0, max_value=100.0))
    def test_token_demand_identity_on_exact_budgets(self, r_a, r_b, t_a):
        r = (r_a, r_b)
        t = Allocation(t_a, 100.0 - t_a)
        demand, _ = tokens_to_demand(r, t)
        back = Allocation(*demand_to_tokens(r, demand).tolist())
        assert back.t_a == pytest.approx(t.t_a, abs=1e-9)
        assert back.t_b == pytest.approx(t.t_b, abs=1e-9)


class TestRoundInvariants:
    def test_budget_identity_enforced(self):
        with pytest.raises(ValidationError, match="budget identity"):
            check_round(1, (0.5, 0.5), (50, 50), (0.02, 0.02), (50.0, 50.0))

    def test_price_return_consistency_enforced(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            check_round(1, (0.5, 0.5), (50, 50), (0.03, 0.02), (25.0, 25.0))

    def test_dataset_requires_increasing_rounds(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            SubjectDataset.from_returns_tokens("s", [(0.5, 0.9)] * 2, [(50, 50)] * 2, [1, 1])
        with pytest.raises(ValidationError, match="nonempty"):
            SubjectDataset.from_returns_tokens("s", [], [])

    def test_prefix(self):
        ds = SubjectDataset.from_returns_tokens("s", [(0.5, 0.9)] * 5, [(50, 50)] * 5)
        rounds = ds.rounds
        assert dataset_prefix(ds, 5) == ds
        assert dataset_prefix(ds, 1).n == 1
        assert dataset_prefix(ds, 3).rounds == rounds[:3]
        with pytest.raises(ValidationError):
            dataset_prefix(ds, 6)
        with pytest.raises(ValidationError):
            dataset_prefix(ds, 0)


def _random_clean_datasets(seed: int, n_subjects: int) -> list[SubjectDataset]:
    rng = np.random.default_rng(seed)
    datasets = []
    for s in range(n_subjects):
        returns, tokens = [], []
        for i in range(int(rng.integers(1, 8))):
            returns.append((float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))))
            t_a = float(rng.uniform(0.0, 100.0))
            tokens.append((t_a, 100.0 - t_a))
        datasets.append(SubjectDataset.from_returns_tokens(f"subj{s}", returns, tokens))
    return datasets


class TestCsvIO:
    def test_structural_round_trip(self, tmp_path):
        datasets = _random_clean_datasets(3, 4)
        path = tmp_path / "choices.csv"
        write_dataset(datasets, path)
        back = read_dataset(path)
        assert [ds.subject_id for ds in back] == [ds.subject_id for ds in datasets]
        assert back == datasets  # dataclass equality covers every float field bitwise

    def test_price_format_round_trip(self, tmp_path):
        datasets = _random_clean_datasets(5, 3)
        path = tmp_path / "choices.csv"
        write_table(path, PRICES_HEADER, ((ds.subject_id, rd.round, rd.prices.p_a, rd.prices.p_b,
                                           *rd.demand) for ds in datasets for rd in ds.rounds))
        back = read_dataset(path)
        for orig, loaded in zip(datasets, back):
            for a, b in zip(orig.rounds, loaded.rounds):
                assert a.demand == b.demand
                assert a.prices == b.prices

    def test_price_row_off_the_budget_reads_back_rescaled(self, tmp_path):
        # demand that implies 103 tokens is scaled by 100/103 onto the budget line
        p_a, p_b, x_a, x_b = 0.01, 0.02, 50.0, 26.5
        path = tmp_path / "choices.csv"
        write_table(path, PRICES_HEADER, [("s1", 1, 0.01, 0.01, 50.0, 50.0),
                                          ("s1", 2, p_a, p_b, x_a, x_b)])
        exact, sloppy = read_dataset(path)[0].rounds
        assert not exact.rescaled and exact.demand == (50.0, 50.0)
        total = 100.0 * x_a * p_a + 100.0 * x_b * p_b
        assert total == pytest.approx(103.0, abs=1e-9)
        assert sloppy.rescaled
        assert sloppy.tokens == Allocation(100.0 * x_a * p_a, 100.0 * x_b * p_b)
        assert sloppy.demand == (x_a * (100.0 / total), x_b * (100.0 / total))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_write_read_bitwise_property(self, tmp_path_factory, seed):
        datasets = _random_clean_datasets(seed, 2)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_dataset(datasets, path)
        assert read_dataset(path) == datasets

    def test_validation_error_names_band(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,round,r_a,r_b,t_a,t_b\ns1,1,0.5,0.9,60.0,52.0\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError, match=r"row 2.*\[95, 105\]"):
            read_dataset(path)

    def test_malformed_field_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,round,r_a,r_b,t_a,t_b\ns1,1,0.5,oops,50,50\n", encoding="utf-8"
        )
        with pytest.raises(ValidationError, match="row 2, column 'r_b'"):
            read_dataset(path)

    @pytest.mark.parametrize("header,good,bad", [
        ("subject_id,round,r_a,r_b,t_a,t_b", "0.5,0.9,40,60", "6e-311,6e-311,50,50"),
        ("subject_id,round,p_a,p_b,x_a,x_b", "0.01,0.01,50,50", "1.7e308,1.7e308,0.0,5e-309"),
    ])
    def test_prices_with_an_infinite_sum_name_the_row(self, tmp_path, header, good, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\ns1,1,{good}\ns1,2,{bad}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 3: prices must have a finite sum"):
            read_dataset(path)

    @pytest.mark.parametrize("header,good,bad", [
        ("subject_id,round,r_a,r_b,t_a,t_b", "0.5,0.9,40,60", "6e-311,0.5,50,50"),
        ("subject_id,round,p_a,p_b,x_a,x_b", "0.01,0.01,50,50", "1.6e308,0.02,0.0,50"),
    ])
    def test_prices_with_overflowing_ratios_name_the_row(self, tmp_path, header, good, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\ns1,1,{good}\ns1,2,{bad}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 3: prices must have finite ratios"):
            read_dataset(path)

    def test_ids_with_a_comma_or_a_quote_round_trip(self, tmp_path):
        datasets = [
            replace(ds, subject_id=sid)
            for sid, ds in zip(['a,b', 'q"x', "plain"], _random_clean_datasets(5, 3))
        ]
        path = tmp_path / "choices.csv"
        write_dataset(datasets, path)
        assert read_dataset(path) == datasets
        ids = {line.rsplit(",", 5)[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]}
        assert ids == {'"a,b"', '"q""x"', "plain"}

    def test_carriage_return_in_an_id_names_the_file_row_and_column(self, tmp_path):
        # the table writer would leave such an id unquoted, and the row would split on reading
        path = tmp_path / "choices.csv"
        path.write_bytes(b'subject_id,round,r_a,r_b,t_a,t_b\ns1,1,0.5,0.9,40,60\n"a\rb",1,0.5,0.9,40,60\n')
        message = re.escape(f"{path}: row 3, column 'subject_id': carriage return in 'a\\rb'")
        with pytest.raises(ValidationError, match=message):
            read_dataset(path)

    def test_short_row_names_the_file_and_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("subject_id,round,r_a,r_b,t_a,t_b\ns1,1,0.5,0.9,40,60\n\ns1,2,0.5\n",
                        encoding="utf-8")
        message = re.escape(f"{path}: row 4: expected 6 fields, got 3")
        with pytest.raises(ValidationError, match=message):
            read_dataset(path)

    @pytest.mark.parametrize("row", [
        b"s\xff1,1,0.5,0.9,40,60",
        b'"' + b"x" * 200_000 + b'",1,0.5,0.9,40,60',
    ])
    def test_undecodable_or_oversized_row_names_the_file(self, tmp_path, row):
        # a byte that is not UTF-8, and a field over the csv module's size limit
        path = tmp_path / "bad.csv"
        path.write_bytes(b"subject_id,round,r_a,r_b,t_a,t_b\n" + row + b"\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ")):
            read_dataset(path)

    def test_repeated_round_names_the_file_and_subject(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("subject_id,round,r_a,r_b,t_a,t_b\ns1,1,0.5,0.9,40,60\ns1,1,0.5,0.9,40,60\n",
                        encoding="utf-8")
        message = re.escape(f"{path}: subject 's1': round indices must be strictly increasing")
        with pytest.raises(ValidationError, match=message):
            read_dataset(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unrecognized header"):
            read_dataset(path)

    def test_structural_shape(self, tmp_path):
        rows = ["subject_id,round,r_a,r_b,t_a,t_b"]
        rows += [f"h1,{i},0.5,0.9,40.0,60.0" for i in range(1, 26)]
        path = tmp_path / "one.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        datasets = read_dataset(path)
        assert len(datasets) == 1
        assert datasets[0].n == 25


_IDS = ["s1", "a,b", 'q"x', "sim 07", "Ωmega"]


def _random_rows(rng: np.random.Generator, prices_form: bool) -> list[list[str]]:
    """The data rows of a random valid choice file, subjects interleaved.

    Rounds are corners (the empty asset sometimes written -0.0), sloppy sums
    inside the band (rescaled on reading), sums within ``BUDGET_TOL`` of 100
    (kept as they are), and shares rounded to cents.
    """
    per_subject = []
    for sid in rng.choice(_IDS, size=int(rng.integers(1, 4)), replace=False).tolist():
        rows = []
        for index in np.cumsum(rng.integers(1, 4, size=int(rng.integers(1, 9)))).tolist():
            r = rng.uniform(0.1, 1.0, 2).tolist()
            kind = int(rng.integers(0, 4))
            if kind == 0:
                t = [100.0, -0.0 if rng.uniform() < 0.5 else 0.0][::int(rng.choice([1, -1]))]
            elif kind == 1:
                t_a = float(rng.uniform(5.0, 95.0))
                t = [t_a, float(rng.uniform(95.0, 105.0)) - t_a]
            elif kind == 2:
                t_a = float(rng.uniform(0.0, 99.0))
                t = [t_a, 100.0 - t_a + float(rng.uniform(-5e-10, 5e-10))]
            else:
                t_a = round(float(rng.uniform(0.0, 100.0)), 2)
                t = [t_a, round(100.0 - t_a, 2)]
            pair = [1.0 / (100.0 * r_i) for r_i in r] if prices_form else r
            second = [r_i * t_i for r_i, t_i in zip(r, t)] if prices_form else t
            rows.append([sid, str(index), *map(repr, pair + second)])
        per_subject.append(rows)
    merged = []
    while any(per_subject):
        left = [rows for rows in per_subject if rows]
        merged.append(left[int(rng.integers(len(left)))].pop(0))
    return merged


def _write_lines(path, header, rows, blank_share: float = 0.0, rng=None) -> None:
    """Header and rows (lists of fields, or raw text lines) as a CSV, blank lines sprinkled."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if rng is not None and rng.uniform() < blank_share:
            buffer.write("\n")
        if isinstance(row, str):
            buffer.write(row + "\n")
        else:
            writer.writerow(row)
    path.write_text(buffer.getvalue(), encoding="utf-8")


def _same_error(path) -> str:
    """The message both readers raise on ``path``; it must be the same."""
    with pytest.raises(ValidationError) as want:
        oracle.read_dataset(path)
    with pytest.raises(ValidationError) as got:
        read_dataset(path)
    assert str(got.value) == str(want.value)
    if "strictly increasing" not in str(want.value):  # the subjects' check follows the table's
        with pytest.raises(ValidationError) as table:
            read_table(path, oracle._CHOICE_TABLES, (str, int, float, float, float, float))
        assert str(table.value) == str(want.value)
    return str(want.value)


_BASE_ROWS = {
    RETURNS_HEADER: ["s1,1,0.5,0.9,40,60", "s2,1,0.6,0.3,100,0", "s1,2,0.7,0.2,50.5,50"],
    PRICES_HEADER: ["s1,1,0.02,0.01,20,60", "s2,1,0.01,0.03,100,0", "s1,2,0.01,0.05,48,10.4"],
}

# (name, header, rows after the base rows, the message's tail)
_INVALID = [
    ("zero return", RETURNS_HEADER, ["s1,3,0.0,0.5,40,60"], "row 5: returns must be positive"),
    ("negative return", RETURNS_HEADER, ["s3,1,-0.5,0.5,40,60"], "returns must be positive"),
    ("nan return", RETURNS_HEADER, ["s1,3,nan,0.5,40,60"], "returns must be positive"),
    ("infinite return", RETURNS_HEADER, ["s1,3,inf,0.5,40,60"], "prices must be positive"),
    ("token above 100", RETURNS_HEADER, ["s1,3,0.5,0.9,100.5,-0.5"], "t_a=100.5 outside"),
    ("token below 0", RETURNS_HEADER, ["s1,3,0.5,0.9,50,-1"], "t_b=-1.0 outside"),
    ("sum outside the band", RETURNS_HEADER, ["s1,3,0.5,0.9,60,52"], "token sum 112.0"),
    ("returns with an infinite price sum", RETURNS_HEADER, ["s1,3,6e-311,6e-311,50,50"],
     "finite sum"),
    ("returns with overflowing ratios", RETURNS_HEADER, ["s1,3,6e-311,0.5,50,50"],
     "finite ratios"),
    ("round 0", RETURNS_HEADER, ["s3,0,0.5,0.9,40,60"], "round index must be >= 1, got 0"),
    ("repeated round", RETURNS_HEADER, ["s1,2,0.5,0.9,40,60"], "subject 's1': round indices"),
    ("earlier subject first", RETURNS_HEADER, ["s2,1,0.5,0.9,40,60", "s1,1,0.5,0.9,40,60"],
     "subject 's1': round indices"),
    ("carriage return in an id", RETURNS_HEADER, ['"a\rb",1,0.5,0.9,40,60'], "carriage return"),
    ("bad float", RETURNS_HEADER, ["s1,3,0.5,oops,40,60"], "column 'r_b': not a number"),
    ("bad int", RETURNS_HEADER, ["s1,1.5,0.5,0.9,40,60"], "column 'round': not an integer"),
    ("two bad fields", RETURNS_HEADER, ["s1,x,0.5,oops,40,60"], "column 'round'"),
    ("two failing checks", RETURNS_HEADER, ["s1,3,0.0,0.5,200,60"], "returns must be positive"),
    ("short row", RETURNS_HEADER, ["s1,3,0.5"], "row 5: expected 6 fields, got 3"),
    ("check before a bad field", RETURNS_HEADER, ["s1,3,0.5,0.9,60,52", "s1,4,0.5,oops,40,60"],
     "row 5: token sum"),
    ("bad field before a check", RETURNS_HEADER, ["s1,3,0.5,oops,40,60", "s1,4,0.5,0.9,60,52"],
     "row 5, column 'r_b'"),
    ("check before a short row", RETURNS_HEADER, ["s1,3,0.5,0.9,60,52", "s1,4"], "row 5:"),
    ("zero price", PRICES_HEADER, ["s1,3,0,0.02,40,60"], "prices must be positive"),
    ("negative demand", PRICES_HEADER, ["s1,3,0.01,0.01,-1,101"], "demand must be nonnegative"),
    ("implied sum outside the band", PRICES_HEADER, ["s1,3,0.01,0.01,60,52"],
     "implied token sum 112.0"),
    ("implied token above 100", PRICES_HEADER, ["s1,3,0.01,0.01,101,0"], "t_a=101.0 outside"),
    ("price too large for a return", PRICES_HEADER, ["s1,3,1.6e308,1e10,0.0,1e-10"],
     "returns must be positive, got (0.0, 1e-12)"),
    ("subnormal price", PRICES_HEADER, ["s1,3,4.0974314106261e-310,0.02,0.0,48.00467228522262"],
     "returns/prices inconsistent"),
]


class TestAgainstPerRowReader:
    """The columnar reader against the per-row reader it replaced (``data_oracle``)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_files_give_the_same_bits(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        seen = {"rescaled": 0, "negative zero": 0, "quoted": 0}
        for header in (RETURNS_HEADER, PRICES_HEADER):
            for k in range(4):
                path = tmp_path / f"{header[2]}{k}.csv"
                _write_lines(path, header, _random_rows(rng, header is PRICES_HEADER), 0.2, rng)
                got, want = read_dataset(path), oracle.read_dataset(path)
                assert [ds.subject_id for ds in got] == [sid for sid, _ in want]
                for ds, (_, rounds) in zip(got, want):
                    for name, column in oracle.columns(rounds).items():
                        value = getattr(ds, name)
                        assert value.dtype == column.dtype and value.shape == column.shape
                        assert value.tobytes() == column.tobytes(), (path.name, name)
                    seen["rescaled"] += int(ds.rescaled.sum())
                    seen["negative zero"] += int(np.signbit(ds.tokens).sum())
                    seen["quoted"] += "," in ds.subject_id or '"' in ds.subject_id
        assert all(seen.values()), seen

    def test_the_rounds_view_is_the_per_row_reader_s(self, tmp_path):
        rng = np.random.default_rng(99)
        path = tmp_path / "choices.csv"
        _write_lines(path, PRICES_HEADER, _random_rows(rng, True))
        for ds, (_, rounds) in zip(read_dataset(path), oracle.read_dataset(path)):
            assert [(rd.round, (rd.returns.r_a, rd.returns.r_b), tuple(rd.tokens),
                     (rd.prices.p_a, rd.prices.p_b), rd.demand, rd.rescaled) for rd in ds.rounds] \
                == [(rd.round, (rd.returns.r_a, rd.returns.r_b), (rd.tokens.t_a, rd.tokens.t_b),
                     (rd.prices.p_a, rd.prices.p_b), rd.demand, rd.rescaled) for rd in rounds]

    @pytest.mark.parametrize("name,header,rows,tail", _INVALID, ids=[case[0] for case in _INVALID])
    def test_invalid_rows_give_the_same_error(self, tmp_path, name, header, rows, tail):
        path = tmp_path / "bad.csv"
        _write_lines(path, header, _BASE_ROWS[header] + rows)
        message = _same_error(path)
        assert message.startswith(f"{path}: ") and tail in message

    def test_budget_identity_gives_the_same_error(self):
        # no file row reaches it (the derivations put the bundle on the budget line)
        with pytest.raises(ValidationError) as want:
            oracle.ChoiceRound(1, oracle.ReturnPair(0.5, 0.5), oracle.Allocation(50, 50),
                               oracle.PricePair(0.02, 0.02), (50.0, 50.0))
        with pytest.raises(ValidationError) as got:
            check_round(1, (0.5, 0.5), (50, 50), (0.02, 0.02), (50.0, 50.0))
        assert str(got.value) == str(want.value)
