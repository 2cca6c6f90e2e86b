"""Three-role prompt construction for the decision and recommendation treatments.

The wording of every template is fixed; tests pin the emitted bytes against
golden files, so any edit here must update those files deliberately.  Numeric
placeholders are rendered with shortest round-trip decimals, which lets the
deterministic mock backend read budgets back without precision loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ..data import ReturnPair, SubjectDataset, dataset_prefix, format_float
from ..errors import TemplateError, ValidationError
from ..simulation import BudgetSchedule


class TreatmentKind(str, Enum):
    DECISION = "decision"
    RECOMMENDATION = "recommendation"
    PERSONALIZED_RECOMMENDATION = "personalized_recommendation"


@dataclass(frozen=True)
class Treatment:
    kind: TreatmentKind
    sample_data: SubjectDataset | None = None
    sample_size: int | None = None

    def __post_init__(self):
        if self.kind is TreatmentKind.PERSONALIZED_RECOMMENDATION:
            if self.sample_data is None:
                raise ValidationError("personalized recommendation requires sample data")
            size = self.sample_size if self.sample_size is not None else self.sample_data.n
            if size < 1:
                raise ValidationError(f"sample_size {size} must be at least 1")
            if size > self.sample_data.n:
                raise ValidationError(
                    f"sample_size {size} exceeds the {self.sample_data.n} available rounds"
                )
            object.__setattr__(self, "sample_size", size)
        elif self.sample_data is not None or self.sample_size is not None:
            raise ValidationError(f"{self.kind.value} treatment does not take sample data")


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | assistant | user
    content: str


DECISION_SYSTEM = (
    "I want you to act as a human decision maker. You will be given 25 rounds of "
    "decision-making tasks. You will be responsible for making decisions. You should use "
    "your best judgment to come up with solutions that you like most. You must provide "
    "your answers in every round. If you do not provide an answer, I will assume that you "
    "are making a random choice and implement one on your behalf."
)

DECISION_ASSISTANT = (
    "In each round, you will have 100 points that need to be invested between asset A and "
    "asset B. You will get a return from one of the 25 rounds randomly. In the selected "
    "paying round, you have a 50% chance to get the return from asset A or the other 50% "
    "chance to get the return from asset B. In your answer, please only tell me the number "
    "of points for investing in asset A, and then please only tell me the number of points "
    "for investing in asset B."
)

DECISION_USER_TEMPLATE = (
    "In this round, investing every 1 point for asset A returns {r_a} dollars, and "
    "investing every 1 point for asset B returns {r_b} dollars. What is your allocation? "
    "Provide your answer in 150 characters or less, if possible; for example, "
    '"I will invest M points to asset A and N points to asset B."'
)

RECOMMENDATION_SYSTEM = (
    "I want you to act as a recommendation system for our valuable customers. One of our "
    "customers will be given 25 rounds of decision-making tasks, and you will be "
    "responsible for providing recommendations for the customer. You should use your best "
    "judgment to come up with solutions that the customer likes most. You must provide "
    "your answers in every round. If you do not provide an answer, I will assume you are "
    "making a random choice and will implement it for the customer."
)

RECOMMENDATION_ASSISTANT = (
    "In each round, the customer will have 100 points that need to be invested between "
    "asset A and asset B. The customer will get a return from one of the 25 rounds "
    "randomly. In the selected paying round, the customer has a 50% chance to get the "
    "return from asset A or the other 50% chance to get the return from asset B."
)

PERSONALIZED_DATA_BLOCK = (
    "\n\nTo help you understand the customer's preferences, we asked the customer to "
    "participate in {sample_size} rounds of the same tasks. The following data table "
    "summarizes the customer's choices.\n\n{data_table}\n\n"
    "In the data table, the first column represents the dollar amount that each point for "
    "asset A returns if it is chosen. The second column represents the dollar amount that "
    "each point for asset B returns if it is chosen. The third column indicates the "
    "customer's investment in asset A, and the last column indicates the customer's "
    "investment in asset B. Note that the sum of investments may differ slightly from 100 "
    "due to a measurement error."
)

RECOMMENDATION_USER_TEMPLATE = (
    "The following return table displays the returns of assets. The first column "
    "represents the round, with a total of 25 rounds. The second column indicates the "
    "dollar return for each 1 point of asset A. The third column indicates the dollar "
    "return for each 1 point of asset B.\n\n{return_table}\n\n"
    "What is your recommendation for investments in each round for the two assets? "
    'Provide your answer for example, "In round 1, I recommend investing M1 points in '
    "asset A and N1 points in asset B. In round 2, I recommend investing M2 points in "
    'asset A and N2 points in asset B."'
)

RETRY_REMINDER = (
    ' Please answer exactly in the form "I will invest M points to asset A and N points '
    'to asset B." with the two numbers of points summing to 100.'
)


def render_return_table(rounds: Sequence[ReturnPair]) -> str:
    """Tab-separated rows: round index, return on A, return on B."""
    return "\n".join(
        f"{i}\t{format_float(r.r_a)}\t{format_float(r.r_b)}"
        for i, r in enumerate(rounds, start=1)
    )


def render_choice_table(dataset: SubjectDataset) -> str:
    """Tab-separated rows, one per round: return on A, return on B, points on A, points on B."""
    return "\n".join(
        "\t".join(map(format_float, (*returns, *tokens)))
        for returns, tokens in zip(dataset.returns.tolist(), dataset.tokens.tolist())
    )


def build_decision_round_user(returns: ReturnPair) -> str:
    return DECISION_USER_TEMPLATE.format(
        r_a=format_float(returns.r_a), r_b=format_float(returns.r_b)
    )


def build_prompt(treatment: Treatment, round_or_table) -> list[ChatMessage]:
    """Messages for one request of the given treatment.

    Decision treatments take a single :class:`ReturnPair` (the current round);
    recommendation treatments take the full :class:`BudgetSchedule`.  The
    decision session runner inserts answer history between the assistant
    instructions and the user question.
    """
    if treatment.kind is TreatmentKind.DECISION:
        if not isinstance(round_or_table, ReturnPair):
            raise TemplateError(
                f"decision prompt needs a ReturnPair, got {type(round_or_table).__name__}"
            )
        return [
            ChatMessage("system", DECISION_SYSTEM),
            ChatMessage("assistant", DECISION_ASSISTANT),
            ChatMessage("user", build_decision_round_user(round_or_table)),
        ]

    if not isinstance(round_or_table, BudgetSchedule):
        raise TemplateError(
            f"recommendation prompt needs a BudgetSchedule, got {type(round_or_table).__name__}"
        )
    assistant = RECOMMENDATION_ASSISTANT
    if treatment.kind is TreatmentKind.PERSONALIZED_RECOMMENDATION:
        assistant += PERSONALIZED_DATA_BLOCK.format(
            sample_size=treatment.sample_size,
            data_table=render_choice_table(
                dataset_prefix(treatment.sample_data, treatment.sample_size)),
        )
    user = RECOMMENDATION_USER_TEMPLATE.format(
        return_table=render_return_table(round_or_table.rounds)
    )
    return [
        ChatMessage("system", RECOMMENDATION_SYSTEM),
        ChatMessage("assistant", assistant),
        ChatMessage("user", user),
    ]
