"""Revealed-preference workbench for two-asset portfolio-choice experiments.

Simulates decision makers with disappointment-averse preferences, scores
choice datasets for consistency with (expected) utility maximization,
recovers preference parameters, and measures how well a recommender --
deterministic mock or live chat endpoint -- learns preferences from data.
"""

from .da_model import Branch, DAParams, DemandSolution, crra, da_utility, optimal_demand
from .data import (
    Allocation,
    ChoiceRound,
    InterceptPair,
    PricePair,
    Provenance,
    ReturnPair,
    SubjectDataset,
    demand_to_tokens,
    normalize_q_format,
    prices_to_returns,
    read_dataset,
    returns_to_prices,
    tokens_to_demand,
    write_dataset,
)
from .errors import (
    BackendError,
    ConfigError,
    DegenerateDataError,
    PrefbenchError,
    SessionError,
    TemplateError,
    ValidationError,
)
from .estimation import FitResult, RecoveryConfig, fit_loss, recover_params, recover_prefixes
from .eu_deviation import DeutResult, EuConstraintGraph, build_eu_graph, deut_index
from .rationality import CceiResult, RevealedRelation, ccei, direct_relation, fosd_violations, garp_holds
from .simulation import (
    BudgetSchedule,
    SyntheticSubject,
    evaluation_schedule,
    generate_budgets,
    sample_population,
    simulate_subject,
)
from .stats import RegressionResult, SummaryRow, regress_alignment, representative_filter, summarize, welch_t_test

__version__ = "0.1.0"
