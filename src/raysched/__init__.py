"""Verification workbench for multi-ray target search and
contract-algorithm scheduling.

The package evaluates concrete strategies against worst-case
adversaries: excursion plans that sweep rays for a hidden target, and
job schedules that trade running time for solution quality.  Evaluators
measure competitive and acceleration ratios directly from plan
trajectories, stochastic variants handle per-pass detection
probabilities and, by Monte Carlo, randomized schedules, and a claim
catalog checks the measured numbers against their closed forms.  Every
name exported here is read by a module of the package, or by a reader
named in tests/test_source_lint.py.
"""

from .claims import ClaimConfig, claim_ids, run_claim_catalog
from .core import (
    ClaimCheck,
    CostModel,
    DEFAULT_HORIZON,
    Excursion,
    Job,
    McEstimate,
    PlanTag,
    RatioReport,
    Relation,
    SchedulePlan,
    SearchPlan,
    check_claim,
)
from .numopt import (
    Bracket,
    beta_r_closed_form,
    beta_r_star,
    bisect_root,
    closed_form,
    closed_form_ids,
    contract_bound,
    figure1_curve,
    golden_min,
    lemma_root,
    preemption_bound,
    turn_bound,
)
from .search_eval import (
    FIRST_VISIT,
    SearchSemantics,
    competitive_ratio,
    cost_to_visit,
    rth_visit,
    turn_count,
    visit_cost_stream,
)
from .sched_eval import (
    ScheduleSemantics,
    SemanticsKind,
    acceleration_ratio,
    aggregate_interruptible,
    contract_count,
    longest_completed,
    preemption_count,
    probabilistic_completed,
    r_times_completed,
    rth_largest_completed,
)
from .stochastic import (
    DetectionModel,
    DirectionRule,
    RandomizedScheduleParams,
    expected_acc_ratio_mc_contracts,
    expected_search_cost,
    mc_randomized_schedule_detail,
    mc_randomized_schedule_ratio,
    mc_search_cost,
    probabilistic_competitive_ratio,
    standard_t_grid,
    tuned_search_base,
)
from .strategies import (
    make_custom_schedule,
    make_custom_search,
    make_exponential_schedule,
    make_exponential_search,
    make_geometric_rr_schedule,
    make_geometric_search,
    make_nm_search,
    make_pseudo_exponential_schedule,
    optimal_base_schedule,
    optimal_base_search,
)

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "ClaimCheck",
    "ClaimConfig",
    "CostModel",
    "DEFAULT_HORIZON",
    "DetectionModel",
    "DirectionRule",
    "Excursion",
    "FIRST_VISIT",
    "Job",
    "McEstimate",
    "PlanTag",
    "RandomizedScheduleParams",
    "RatioReport",
    "Relation",
    "SchedulePlan",
    "ScheduleSemantics",
    "SearchPlan",
    "SearchSemantics",
    "SemanticsKind",
    "acceleration_ratio",
    "aggregate_interruptible",
    "beta_r_closed_form",
    "beta_r_star",
    "bisect_root",
    "check_claim",
    "claim_ids",
    "closed_form",
    "closed_form_ids",
    "competitive_ratio",
    "contract_bound",
    "contract_count",
    "cost_to_visit",
    "expected_acc_ratio_mc_contracts",
    "expected_search_cost",
    "figure1_curve",
    "golden_min",
    "lemma_root",
    "longest_completed",
    "make_custom_schedule",
    "make_custom_search",
    "make_exponential_schedule",
    "make_exponential_search",
    "make_geometric_rr_schedule",
    "make_geometric_search",
    "make_nm_search",
    "make_pseudo_exponential_schedule",
    "mc_randomized_schedule_detail",
    "mc_randomized_schedule_ratio",
    "mc_search_cost",
    "optimal_base_schedule",
    "optimal_base_search",
    "preemption_bound",
    "preemption_count",
    "probabilistic_competitive_ratio",
    "probabilistic_completed",
    "r_times_completed",
    "rth_largest_completed",
    "rth_visit",
    "run_claim_catalog",
    "standard_t_grid",
    "tuned_search_base",
    "turn_bound",
    "turn_count",
    "visit_cost_stream",
]
