"""Probabilistic preference learning over permutations.

Sequential-conditional (pseudo-Mallows) sampling of a consensus ranking,
exact enumeration (including the factorized law, its ELBO and joint KL) and
MCMC baselines, click-data augmentation for top-k recommendation, and the
evaluation machinery (marginal KL, ordering search) that quantifies
approximation quality.
"""

from .clicking import (
    Recommendation,
    TruncatedPoisson,
    binarize,
    estimate_alpha_clicks,
    in_compatible_set,
    recommend_all,
    recommend_topk,
)
from .data import (
    ClickDataset, RankCountMatrix, RankingDataset, RowError, SampleSet, click_frequency_ranking, rankings_of,
)
from .evaluation import (
    MarginalProfile,
    SearchTrace,
    assignment_solve,
    choose_sigma,
    default_sigma,
    enumerate_ordering_study,
    iterative_search,
    marginal_kl,
    ordering_kl,
    posterior_profile,
    reference_profile,
)
from .exact import (
    DiscreteDistribution,
    constrained_l1_minimizer,
    elbo_exact,
    exact_distribution,
    exact_posterior,
    joint_kl_exact,
    log_evidence,
    log_partition,
    mallows_distribution,
    marginal_expectation,
    marginal_median,
    marginal_rank_distribution,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    cp_consensus,
    run_alpha_roundtrip,
    run_clicking_accuracy,
    run_full_timing,
    run_g_bias,
    run_ordering_enum,
    run_sigma_study,
)
from .io import load_clicks, load_rankings, emit
from .mcmc import McmcConfig, McmcTrace, ls_move, mcmc_clicking, mcmc_rho
from .perms import (
    CapacityError,
    VSet,
    adjacent_swaps,
    footrule_distance,
    ordering_of,
    non_permutation_rows,
    rank_of,
    v_set,
)
from .pseudo import (
    DEFAULT_ALPHA_GRID,
    PseudoConfig,
    estimate_alpha_full,
    estimate_rho_hat,
    mean_pairwise_similarity,
    pseudo_clicking,
    sample_rho,
    sample_rho_with_orderings,
    sample_user_rankings,
)
from .simulate import make_dataset, sample_mallows

__version__ = "0.1.0"
