"""privmax: differentially private selection over scored item universes.

A library and CLI for the private maximization problem: given per-item quality
scores of sensitivity 1/n, privately return a near-maximal item. Ships the
classic exponential-mechanism and noisy-max baselines, a margin-adaptive
mechanism whose utility depends on the number of near-maximizers rather than
the universe size, a statistical privacy auditor with adversarial instance
generators, and frequent-itemset / hypothesis-selection drivers.
"""

from .core import (
    MechanismOutcome,
    PrivacyBudget,
    QualityUniverse,
    ThresholdPair,
    compute_thresholds,
    load_universe,
    order_stat,
    save_universe,
    top_set,
    universe_from_dict,
    universe_to_dict,
)
from .noise import NoiseSource
from .mechanisms import (
    CapExhausted,
    FAIL_KEY,
    build_mechanism,
    default_cap,
    exponential_mechanism,
    gap_max_st13,
    large_margin_mechanism,
    lmm_quality_radius,
    lmm_required_margin,
    margin_search,
    max_of_laplaces,
)
from .audit import (
    AuditReport,
    NeighborPair,
    OutcomeCheck,
    build_lb2_family,
    build_threshold_example,
    check_approx_dp,
    check_group_privacy,
    dp_outcome_checks,
    em_expected_gap,
    estimate_distribution,
    group_outcome_checks,
    hoeffding_slack,
    lb2_delta_bound,
)
from .applications import (
    BasketDataset,
    HypothesisClass,
    ItemsetCodec,
    ItemsetQuality,
    ShellDecomposition,
    TStarResult,
    basket_neighbor,
    basket_neighbor_pair,
    empirical_quality,
    itemset_quality,
    itemset_quality_dense,
    load_baskets,
    load_itemset_quality,
    pac_selection_constant,
    shell_decomposition,
    t_star,
)

__version__ = "0.1.0"
