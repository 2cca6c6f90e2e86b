"""Revealed-preference workbench for two-asset portfolio-choice experiments.

Simulates decision makers with disappointment-averse preferences, scores
choice datasets for consistency with (expected) utility maximization,
recovers preference parameters, and measures how well a recommender --
deterministic mock or live chat endpoint -- learns preferences from data.
"""

from .da_model import DAParams, optimal_demand
from .data import (
    Allocation,
    PricePair,
    ReturnPair,
    SubjectDataset,
    demand_to_tokens,
    read_dataset,
    returns_to_prices,
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
from .estimation import (
    FitResult,
    RecoveryConfig,
    fit_loss,
    recover_batch,
    recover_params,
)
from .eu_deviation import DeutResult, EuConstraintGraph, build_eu_graph, deut_index
from .rationality import CceiResult, ccei, fosd_violations, garp_holds
from .simulation import (
    BudgetSchedule,
    SyntheticSubject,
    evaluation_schedule,
    generate_budgets,
    sample_population,
    simulate_subject,
)
from .stats import RegressionResult, SummaryRow, regress_alignment, summarize, welch_t_test

__version__ = "0.1.0"
