from __future__ import annotations

from pathlib import Path

import pytest

from prefbench.data import ReturnPair, SubjectDataset
from prefbench.errors import TemplateError, ValidationError
from prefbench.harness.prompts import Treatment, TreatmentKind, build_prompt
from prefbench.simulation import BudgetSchedule, evaluation_schedule

GOLDEN = Path(__file__).parent / "golden"


def golden_bytes(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def mini_schedule() -> BudgetSchedule:
    return BudgetSchedule((ReturnPair(0.5, 0.9), ReturnPair(0.75, 0.3), ReturnPair(0.2, 0.6)))


def sample_dataset() -> SubjectDataset:
    return SubjectDataset.from_returns_tokens(
        "h1", [(0.5, 0.9), (0.75, 0.3)], [(30.0, 70.0), (80.0, 20.0)])


class TestGoldenBytes:
    def test_decision_prompt(self):
        system, assistant, user = build_prompt(
            Treatment(TreatmentKind.DECISION), ReturnPair(0.5, 0.9)
        )
        assert system.content.encode() == golden_bytes("decision_system.txt")
        assert assistant.content.encode() == golden_bytes("decision_assistant.txt")
        assert user.content.encode() == golden_bytes("decision_user_example.txt")
        assert (system.role, assistant.role, user.role) == ("system", "assistant", "user")

    def test_recommendation_prompt(self):
        system, assistant, user = build_prompt(
            Treatment(TreatmentKind.RECOMMENDATION), mini_schedule()
        )
        assert system.content.encode() == golden_bytes("recommendation_system.txt")
        assert assistant.content.encode() == golden_bytes("recommendation_assistant.txt")
        assert user.content.encode() == golden_bytes("recommendation_user_example.txt")

    def test_personalized_assistant_block(self):
        treatment = Treatment(
            TreatmentKind.PERSONALIZED_RECOMMENDATION,
            sample_data=sample_dataset(),
            sample_size=2,
        )
        _, assistant, _ = build_prompt(treatment, mini_schedule())
        assert assistant.content.encode() == golden_bytes("personalized_assistant_example.txt")


class TestPromptContent:
    def test_decision_user_carries_the_returns(self):
        _, _, user = build_prompt(Treatment(TreatmentKind.DECISION), ReturnPair(0.5, 0.9))
        assert "0.5" in user.content and "0.9" in user.content
        assert "150 characters or less" in user.content

    def test_recommendation_table_has_25_rows(self):
        _, _, user = build_prompt(Treatment(TreatmentKind.RECOMMENDATION), evaluation_schedule())
        rows = [line for line in user.content.splitlines() if "\t" in line]
        assert len(rows) == 25
        assert rows[0].startswith("1\t") and rows[-1].startswith("25\t")

    def test_recommendation_has_no_data_block(self):
        _, assistant, _ = build_prompt(Treatment(TreatmentKind.RECOMMENDATION), mini_schedule())
        assert "data table" not in assistant.content

    def test_personalized_sample_size_fills_the_sentence(self):
        treatment = Treatment(
            TreatmentKind.PERSONALIZED_RECOMMENDATION, sample_data=sample_dataset(), sample_size=1
        )
        _, assistant, _ = build_prompt(treatment, mini_schedule())
        assert "participate in 1 rounds of the same tasks" in assistant.content
        assert "may differ slightly from 100" in assistant.content
        assert len([line for line in assistant.content.splitlines() if "\t" in line]) == 1

    def test_personalized_defaults_to_all_rounds(self):
        treatment = Treatment(
            TreatmentKind.PERSONALIZED_RECOMMENDATION, sample_data=sample_dataset()
        )
        assert treatment.sample_size == 2


class TestTreatmentValidation:
    def test_personalized_requires_sample_data(self):
        with pytest.raises(ValidationError):
            Treatment(TreatmentKind.PERSONALIZED_RECOMMENDATION)

    def test_sample_size_cannot_exceed_data(self):
        with pytest.raises(ValidationError):
            Treatment(
                TreatmentKind.PERSONALIZED_RECOMMENDATION,
                sample_data=sample_dataset(),
                sample_size=3,
            )

    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_size_below_one_says_so(self, size):
        with pytest.raises(ValidationError, match=f"sample_size {size} must be at least 1"):
            Treatment(TreatmentKind.PERSONALIZED_RECOMMENDATION, sample_data=sample_dataset(),
                      sample_size=size)

    def test_sample_size_above_the_data_says_it_exceeds(self):
        with pytest.raises(ValidationError, match="sample_size 3 exceeds the 2 available rounds"):
            Treatment(TreatmentKind.PERSONALIZED_RECOMMENDATION, sample_data=sample_dataset(),
                      sample_size=3)

    def test_plain_treatments_reject_sample_data(self):
        with pytest.raises(ValidationError):
            Treatment(TreatmentKind.DECISION, sample_data=sample_dataset())

    def test_argument_shape_mismatch_is_a_template_error(self):
        with pytest.raises(TemplateError):
            build_prompt(Treatment(TreatmentKind.DECISION), mini_schedule())
        with pytest.raises(TemplateError):
            build_prompt(Treatment(TreatmentKind.RECOMMENDATION), ReturnPair(0.5, 0.9))
