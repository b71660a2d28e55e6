"""privmax: differentially private selection over scored item universes.

A library and CLI for the private maximization problem: given per-item quality
scores of sensitivity 1/n, privately return a near-maximal item. Ships the
classic exponential-mechanism and noisy-max baselines, a margin-adaptive
mechanism whose utility depends on the number of near-maximizers rather than
the universe size, a statistical privacy auditor with adversarial instance
generators, and frequent-itemset / hypothesis-selection drivers.

The package namespace is lazy (PEP 562): ``import privmax`` loads none of its
submodules, and a public name imports the one module that defines it on first
use, so a program that imports privmax pays only for the names it reads.
"""

__version__ = "0.1.0"

# the submodule that defines each public name
_MODULES = {
    "core": """MechanismOutcome PrivacyBudget QualityUniverse ThresholdPair compute_thresholds
        load_universe order_stat save_universe top_set universe_from_dict universe_to_dict""",
    "noise": "NoiseSource",
    "mechanisms": """CapExhausted FAIL_KEY build_mechanism default_cap exponential_mechanism
        gap_max_st13 large_margin_mechanism lmm_quality_radius lmm_required_margin
        margin_search max_of_laplaces""",
    "audit": """AuditReport NeighborPair OutcomeCheck build_lb2_family build_threshold_example
        check_approx_dp check_group_privacy dp_outcome_checks em_expected_gap
        estimate_distribution group_outcome_checks hoeffding_slack lb2_delta_bound""",
    "applications": """BasketDataset HypothesisClass ItemsetCodec ItemsetQuality
        ShellDecomposition TStarResult basket_neighbor basket_neighbor_pair empirical_quality
        itemset_quality itemset_quality_dense load_baskets
        pac_selection_constant shell_decomposition t_star""",
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines public ``name`` and keep the name here,
    so that later reads are plain attribute hits. Any other name raises
    AttributeError, which also lets ``from privmax import audit`` fall back
    to importing the submodule."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
