from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefbench.data import (
    PRICES_HEADER,
    Allocation,
    ChoiceRound,
    PricePair,
    ReturnPair,
    SubjectDataset,
    dataset_prefix,
    demand_to_tokens,
    prices_to_returns,
    read_dataset,
    returns_to_prices,
    tokens_to_demand,
    write_dataset,
    write_table,
)
from prefbench.errors import ValidationError

returns_strategy = st.floats(min_value=0.1, max_value=1.0, allow_nan=False)


class TestConversions:
    def test_returns_to_prices_formula(self):
        p = returns_to_prices(ReturnPair(0.5, 0.9))
        assert p.p_a == 0.02
        assert p.p_b == 1.0 / 90.0
        # cross-check through the inverse
        r = prices_to_returns(p)
        assert math.isclose(r.r_a, 0.5, rel_tol=1e-12)
        assert math.isclose(r.r_b, 0.9, rel_tol=1e-12)

    def test_returns_to_prices_trivial(self):
        assert returns_to_prices(ReturnPair(0.01, 0.01)) == PricePair(1.0, 1.0)
        assert returns_to_prices(ReturnPair(1.0, 1.0)) == PricePair(0.01, 0.01)

    def test_prices_to_returns_table_row(self):
        r = prices_to_returns(PricePair(0.0237, 0.0125))
        assert math.isclose(r.r_a, 1.0 / 2.37, rel_tol=1e-15)
        assert r.r_b == 0.8

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
            ChoiceRound.from_returns_tokens(1, ReturnPair(6e-311, 0.5), Allocation(50.0, 50.0))

    def test_subnormal_returns_with_overflowing_prices_rejected(self):
        # 1 / (100 * 6e-311) is about 1.67e308: one such price is finite, two overflow
        with pytest.raises(ValidationError, match="finite sum"):
            ChoiceRound.from_returns_tokens(1, ReturnPair(6e-311, 6e-311), Allocation(50.0, 50.0))

    @given(returns_strategy, returns_strategy)
    def test_round_trip_returns(self, r_a, r_b):
        r = ReturnPair(r_a, r_b)
        back = prices_to_returns(returns_to_prices(r))
        assert math.isclose(back.r_a, r.r_a, rel_tol=1e-12)
        assert math.isclose(back.r_b, r.r_b, rel_tol=1e-12)

    def test_tokens_to_demand_corner_and_interior(self):
        r = ReturnPair(0.5, 0.9)
        demand, rescaled = tokens_to_demand(r, Allocation(100.0, 0.0))
        assert demand == (50.0, 0.0) and not rescaled
        demand, rescaled = tokens_to_demand(r, Allocation(50.0, 50.0))
        assert demand == (25.0, 45.0) and not rescaled

    def test_tokens_to_demand_rescales_sloppy_sum(self):
        r = ReturnPair(0.42194, 0.8)
        t = Allocation(78.92, 21.25)
        demand, rescaled = tokens_to_demand(r, t)
        assert rescaled
        scale = 100.0 / (78.92 + 21.25)
        assert demand[0] == pytest.approx(0.42194 * 78.92 * scale, abs=1e-12)
        assert demand[1] == pytest.approx(0.8 * 21.25 * scale, abs=1e-12)
        assert demand[0] == pytest.approx(33.3, abs=0.1)
        assert demand[1] == pytest.approx(17.0, abs=0.1)

    def test_tokens_outside_band_rejected(self):
        with pytest.raises(ValidationError, match=r"\[95, 105\]"):
            tokens_to_demand(ReturnPair(0.5, 0.5), Allocation(60.0, 52.0))

    def test_demand_to_tokens(self):
        assert demand_to_tokens(ReturnPair(0.5, 0.5), (25.0, 25.0)) == Allocation(50.0, 50.0)
        assert demand_to_tokens(ReturnPair(0.5, 0.9), (25.0, 45.0)) == Allocation(50.0, 50.0)
        assert demand_to_tokens(ReturnPair(1.0, 1.0), (100.0, 0.0)) == Allocation(100.0, 0.0)
        with pytest.raises(ValidationError):
            demand_to_tokens(ReturnPair(0.5, 0.5), (-1.0, 51.0))

    @given(returns_strategy, returns_strategy, st.floats(min_value=0.0, max_value=100.0))
    def test_token_demand_identity_on_exact_budgets(self, r_a, r_b, t_a):
        r = ReturnPair(r_a, r_b)
        t = Allocation(t_a, 100.0 - t_a)
        demand, _ = tokens_to_demand(r, t)
        back = demand_to_tokens(r, demand)
        assert back.t_a == pytest.approx(t.t_a, abs=1e-9)
        assert back.t_b == pytest.approx(t.t_b, abs=1e-9)


class TestRoundInvariants:
    def test_budget_identity_enforced(self):
        with pytest.raises(ValidationError, match="budget identity"):
            ChoiceRound(1, ReturnPair(0.5, 0.5), Allocation(50, 50),
                        PricePair(0.02, 0.02), (50.0, 50.0))

    def test_price_return_consistency_enforced(self):
        with pytest.raises(ValidationError, match="inconsistent"):
            ChoiceRound(1, ReturnPair(0.5, 0.5), Allocation(50, 50),
                        PricePair(0.03, 0.02), (25.0, 25.0))

    def test_dataset_requires_increasing_rounds(self):
        rd = ChoiceRound.from_returns_tokens(1, ReturnPair(0.5, 0.9), Allocation(50, 50))
        with pytest.raises(ValidationError, match="strictly increasing"):
            SubjectDataset("s", (rd, rd))
        with pytest.raises(ValidationError, match="nonempty"):
            SubjectDataset("s", ())

    def test_prefix(self):
        rounds = tuple(
            ChoiceRound.from_returns_tokens(i, ReturnPair(0.5, 0.9), Allocation(50, 50))
            for i in range(1, 6)
        )
        ds = SubjectDataset("s", rounds)
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
        rounds = []
        for i in range(int(rng.integers(1, 8))):
            r = ReturnPair(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0)))
            t_a = float(rng.uniform(0.0, 100.0))
            rounds.append(ChoiceRound.from_returns_tokens(i + 1, r, Allocation(t_a, 100.0 - t_a)))
        datasets.append(SubjectDataset(f"subj{s}", tuple(rounds)))
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
            SubjectDataset(sid, ds.rounds)
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
