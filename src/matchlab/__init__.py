"""matchlab: a stable-matching market laboratory.

Markets with correlated cardinal utilities (public ratings plus private
scores), deferred acceptance in all its variants, edge-set protocols, and a
Monte Carlo experiment harness.
"""

from .market import (
    LEFT,
    MODEL_REGISTRY,
    RIGHT,
    Market,
    UtilityModel,
    custom_model,
    generate_market,
    linear_model,
    load_market,
    other_side,
    rank_order,
    register_model,
    save_market,
)
from .engine import (
    CutSpec,
    EdgeSet,
    Matching,
    extreme_matchings,
    max_bipartite_matching,
    multi_stable_agents,
    run_da,
    run_double_cut_da,
    verify_stability,
)
from .analysis import (
    InterviewParams,
    LossParams,
    SelectedSetParams,
    acceptable_edges,
    acceptable_entry_levels,
    achieved_utilities,
    agent_losses,
    benchmark_vector,
    interview_edges,
    loss_params_from_bound,
    loss_rows,
    loss_threshold_edges,
    lower_bound_loss_level,
    selected_edges,
    selected_survival,
    selected_weight,
    theoretical_loss_params,
    truncated_edges,
    viable_edges,
)
from .experiments import ExperimentConfig, ExperimentReport, run_experiment

__version__ = "0.1.0"
