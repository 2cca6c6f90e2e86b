from __future__ import annotations

import re

import numpy as np
import pytest

from prefbench.da_model import DAParams
from prefbench.errors import ValidationError
from prefbench.eu_deviation import deut_index
from prefbench.rationality import ccei
from prefbench.simulation import (
    BudgetSchedule,
    EVALUATION_ROUNDS,
    RETURN_HIGH,
    RETURN_LOW,
    RETURN_MIN_MAX,
    ReturnPair,
    evaluation_schedule,
    generate_budgets,
    read_params_file,
    read_schedule,
    sample_population,
    simulate_subject,
    write_params_file,
    write_schedule,
)


class TestBudgetGeneration:
    def test_constraints_hold_on_long_schedule(self):
        schedule = generate_budgets(123, 175)
        assert len(schedule.rounds) == 175
        for r in schedule.rounds:
            assert RETURN_LOW <= r.r_a <= RETURN_HIGH
            assert RETURN_LOW <= r.r_b <= RETURN_HIGH
            assert max(r.r_a, r.r_b) >= RETURN_MIN_MAX

    def test_deterministic_given_seed(self):
        assert generate_budgets(7, 30) == generate_budgets(7, 30)
        assert generate_budgets(7, 30) != generate_budgets(8, 30)

    def test_rejection_rule_acceptance_rate(self):
        # P(both draws below 0.5 | U[0.1, 1]) = (0.4 / 0.9)^2
        rng = np.random.default_rng(99)
        draws = rng.uniform(RETURN_LOW, RETURN_HIGH, size=(100_000, 2))
        rate = float(np.mean(draws.max(axis=1) >= RETURN_MIN_MAX))
        assert rate == pytest.approx(1.0 - (0.4 / 0.9) ** 2, abs=0.01)

    def test_evaluation_schedule_is_fixed(self):
        schedule = evaluation_schedule()
        assert len(schedule.rounds) == EVALUATION_ROUNDS
        assert schedule == evaluation_schedule()

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValidationError):
            generate_budgets(1, 0)


class TestSimulateSubject:
    def test_log_utility_splits_budget(self):
        subject = simulate_subject(DAParams(0.0, 1.0), generate_budgets(2, 10), "log")
        for rd in subject.dataset.rounds:
            # spending half the budget on each asset: t_i = 50 points
            assert rd.tokens.t_a == pytest.approx(50.0, abs=1e-9)
            assert rd.tokens.t_b == pytest.approx(50.0, abs=1e-9)

    def test_kink_at_symmetric_prices(self):
        schedule = BudgetSchedule((ReturnPair(0.7, 0.7),))
        subject = simulate_subject(DAParams(0.5, 1.2), schedule, "kink")
        assert subject.dataset.rounds[0].tokens.t_a == pytest.approx(50.0, abs=1e-12)
        assert subject.dataset.rounds[0].tokens.t_b == pytest.approx(50.0, abs=1e-12)

    def test_every_simulated_dataset_is_fully_consistent(self):
        rng = np.random.default_rng(71)
        for i in range(8):
            params = DAParams(float(rng.uniform(-0.5, 2.0)), float(rng.uniform(0.2, 3.0)))
            subject = simulate_subject(params, generate_budgets(600 + i, 25), f"c{i}")
            assert ccei(subject.dataset).ccei == 1.0
            if params.beta == 0.0:
                assert deut_index(subject.dataset).deut == 0.0

    def test_determinism(self):
        a = simulate_subject(DAParams(0.3, 0.8), generate_budgets(5, 25), "s")
        b = simulate_subject(DAParams(0.3, 0.8), generate_budgets(5, 25), "s")
        assert a == b


class TestPopulationFiles:
    def test_sampler_respects_box_and_seed(self):
        pop = sample_population(0, 50)
        assert len(pop) == 50
        assert len({sid for sid, _ in pop}) == 50
        for _, params in pop:
            assert -0.07 <= params.beta <= 0.20
            assert 0.38 <= params.rho <= 0.95
        assert pop == sample_population(0, 50)

    def test_params_file_round_trip(self, tmp_path):
        pop = sample_population(3, 7)
        path = tmp_path / "params.csv"
        write_params_file(pop, path)
        assert read_params_file(path) == pop

    def test_params_file_error_names_row(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("subject_id,beta,rho\ns1,0.1,0.5\ns2,-2.0,0.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 3"):
            read_params_file(path)

    def test_params_file_repeated_id_names_both_rows(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("subject_id,beta,rho\ns1,0.1,0.5\ns2,0.2,0.6\ns1,0.0,1.0\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="rows 2 and 4: subject_id 's1' repeats"):
            read_params_file(path)

    def test_params_file_id_with_a_carriage_return_names_row_and_column(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_bytes(b'subject_id,beta,rho\n"a\rb",0.1,0.5\n')
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: row 2, column 'subject_id': carriage return")):
            read_params_file(path)

    @pytest.mark.parametrize("row", ["schedule,2,0.5", "schedule,2,0.5,0.9,,,"])
    def test_schedule_row_with_the_wrong_field_count(self, tmp_path, row):
        path = tmp_path / "schedule.csv"
        path.write_text(f"subject_id,round,r_a,r_b,t_a,t_b\nschedule,1,0.5,0.9,,\n{row}\n",
                        encoding="utf-8")
        message = re.escape(f"{path}: row 3: expected 6 fields")
        with pytest.raises(ValidationError, match=message):
            read_schedule(path)

    def test_schedule_with_a_nonpositive_return_names_the_row(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("subject_id,round,r_a,r_b,t_a,t_b\nschedule,1,0.5,0.0,,\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="row 2: returns must be positive"):
            read_schedule(path)

    @pytest.mark.parametrize("rows,message", [
        # shuffled: ids a,b,b and rounds 3,1,1 once loaded as a 3-round schedule
        (["a,3,0.5,0.9", "b,1,0.6,0.8", "b,1,0.7,0.7"],
         "row 2: subject 'a' round 3, expected 'a' round 1"),
        (["a,1,0.5,0.9", "b,2,0.6,0.8"], "row 3: subject 'b' round 2, expected 'a' round 2"),
        (["s,1,0.5,0.9", "s,3,0.6,0.8"], "row 3: subject 's' round 3, expected 's' round 2"),
        (["s,2,0.5,0.9", "s,1,0.6,0.8"], "row 2: subject 's' round 2, expected 's' round 1"),
    ])
    def test_schedule_of_other_than_one_subject_in_round_order(self, tmp_path, rows, message):
        path = tmp_path / "schedule.csv"
        path.write_text("subject_id,round,r_a,r_b,t_a,t_b\n" + "".join(
            f"{row},,\n" for row in rows), encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            read_schedule(path)

    def test_schedule_round_trip(self, tmp_path):
        schedule = generate_budgets(9, 25)
        path = tmp_path / "schedule.csv"
        write_schedule(schedule, path)
        loaded = read_schedule(path)
        assert loaded.rounds == schedule.rounds
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[1].endswith(",,")  # allocation columns left empty
