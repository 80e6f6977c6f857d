"""Structure learning of discrete Bayesian networks from incomplete data.

Scores candidate structures with the node-average log-likelihood (available
case analysis) minus a complexity penalty, provides exact population-level
identifiability analysis, exhaustive order-compatible search, and a Monte
Carlo harness for consistency experiments.
"""

from .data import MISSING, Dataset, SufficientCounts, count_sufficient_stats, read_csv, write_csv
from .equivalence import dags_equivalent, edge_f_score, edge_precision_recall, skeleton, v_structures
from .model import (
    BayesNet,
    Cpt,
    Dag,
    Variable,
    df_complexity,
    load_net,
    load_structure,
    save_structure,
    validate_dag,
)
from .population import (
    beta_of_collection,
    check_identifiability,
    induced_theta_mcar,
    joint_distribution,
    population_nal,
    population_nal_of,
)
from .sampling import (
    Bernoulli,
    KPerRecord,
    apply_mcar,
    derive_seed,
    forward_sample,
    observation_probability,
    splitmix64,
    subset_observation_probability,
)
from .scoring import (
    AIC,
    BIC,
    NEG_INFINITY,
    NodeScore,
    Penalty,
    lambda_value,
    nal,
    node_nal,
    power_law,
    score_decomposable,
    score_global,
)
from .search import ProfilePoint, SearchSpace, best_parent_set, complexity_profile, learn_structure, select_from_profile
from .networks import benchmark_structure_37, eight_node_net, two_node_chain_dag, two_node_net

__version__ = "0.1.0"
