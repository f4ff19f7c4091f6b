"""rqsim: find the source of a network diffusion by budgeted noisy querying.

The package simulates susceptible-infected spreads, scores infected nodes
by infection-ordering likelihood, runs batch and adaptive majority-voting
query estimators against partially truthful respondents, and evaluates
the closed-form budget/repetition formulas that govern them.
"""

from .budget import (
    BudgetInputs,
    ad_necessary,
    ad_sufficient,
    adaptivity_gap_bounds,
    choose_r_star,
    detection_lb_mvad,
    detection_lb_mvna,
    entropies,
    f1,
    f2,
    f3,
    f4,
    h_t_upper_bound,
    na_necessary,
    na_sufficient,
)
from .centrality import (
    CentralityTable,
    brute_force_rumor_centrality,
    general_graph_scores,
    likelihood_table,
    log_rumor_centralities,
    subtree_sizes,
)
from .diffusion import Snapshot, distance_distribution, simulate_si
from .errors import (
    GenerationFailureError,
    InfeasibleTargetError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    RQSimError,
)
from .estimators import (
    ADConfig,
    EstimationOutcome,
    NAConfig,
    run_mvad,
    run_mvna,
    select_candidates_na,
)
from .graphs import (
    Graph,
    RegularTree,
    load_edge_list,
    make_erdos_renyi,
    make_galton_watson,
    make_regular_tree,
    make_scale_free,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    wilson_interval,
)
from .respondent import AnswerRecord, TruthModel, answer_dir, query_rounds

__version__ = "0.1.0"
