"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the whole
module is Monte Carlo heavy and takes a couple of minutes. All trials are
seeded, so results are reproducible run to run.
"""

import math

from privmax import (
    BasketDataset,
    NeighborPair,
    NoiseSource,
    PrivacyBudget,
    QualityUniverse,
    ThresholdPair,
    build_lb2_family,
    build_mechanism,
    build_threshold_example,
    check_approx_dp,
    check_group_privacy,
    em_expected_gap,
    estimate_distribution,
    hoeffding_slack,
    itemset_quality,
    large_margin_mechanism,
    lb2_delta_bound,
    lmm_quality_radius,
    lmm_required_margin,
    margin_search,
    order_stat,
    top_set,
)
from oracles import (
    exact_selection_weights,
    noisy_max_estimate,
    restricted_exponential,
    satisfies_margin,
    tv_distance,
)


def conclude(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exponential_mechanism_range_dependence():
    # clear-maximizer counting instance: success rate must track
    # e^(na/2) / (K - 1 + e^(na/2)) within +-0.02, shrinking as K grows
    n, alpha, trials = 20, 0.5, 100_000
    mech = build_mechanism("em", PrivacyBudget(alpha))
    details = []
    ok = True
    for idx, k in enumerate((100, 10_000)):
        u = build_threshold_example(k, [1] * n)
        expected = math.exp(n * alpha / 2) / (k - 1 + math.exp(n * alpha / 2))
        freq = estimate_distribution(mech, u, trials, seed=1 + idx).get(1, 0.0)
        details.append(f"K={k}: freq={freq:.4f} vs {expected:.4f}")
        ok = ok and abs(freq - expected) <= 0.02
    conclude(1, "exponential mechanism success rate decays with K per closed form",
             ok, "; ".join(details))


def test_criterion_2_adaptive_mechanism_range_independence():
    n, alpha, delta, eta, trials = 500, 1.0, 0.05, 0.01, 10_000
    gamma_star = lmm_required_margin(n, alpha, delta, eta, 1)
    assert gamma_star <= 1.0, f"precondition gamma* = {gamma_star} > 1"
    mech = build_mechanism("lmm", PrivacyBudget(alpha, delta))
    slack = hoeffding_slack(trials, 0.99)
    details = [f"gamma*={gamma_star:.4f}<=1"]
    ok = True
    for idx, k in enumerate((100, 10_000, 1_000_000)):
        u = build_threshold_example(k, [1] * n)
        assert u.explicit_count < u.k and satisfies_margin(u, 1, gamma_star)
        freq = estimate_distribution(mech, u, trials, seed=11 + idx).get(1, 0.0)
        details.append(f"K={k}: freq={freq:.4f}")
        ok = ok and freq >= 0.99 - slack
    conclude(2, "adaptive mechanism keeps success >= 0.99 - slack across K",
             ok, "; ".join(details) + f"; slack={slack:.4f}")


def test_criterion_3_privacy_audit_of_adaptive_mechanism():
    # noise-dominated n = 10 regime. The margin search does not get to
    # certify a rank here: T(1) = compute_thresholds(10, 0.5, 0.05, 1).T is
    # 23.96 while the qualities lie in [0, 1], so ell = k in practically every
    # run and the audit checks the exponential stage over all k items
    trials, confidence = 1_000_000, 0.99
    budget = PrivacyBudget(0.5, 0.05)
    mech = build_mechanism("lmm", budget)
    pairs = [
        NeighborPair(
            QualityUniverse.dense([1.0, 0.3, 0.2, 0.1], n=10),
            QualityUniverse.dense([0.9, 0.4, 0.3, 0.2], n=10),
            "top gap shrinks by 2/n",
        ),
        NeighborPair(
            QualityUniverse.dense([0.6, 0.55, 0.5, 0.1], n=10),
            QualityUniverse.dense([0.5, 0.6, 0.45, 0.2], n=10),
            "top identity swaps across the pair",
        ),
    ]
    total_violations = 0
    slack = None
    for idx, pair in enumerate(pairs):
        report = check_approx_dp(pair, mech, budget, trials, confidence, seed=31 + 100 * idx)
        total_violations += len(report.violations)
        slack = report.slack
    conclude(3, "adaptive mechanism passes the (0.5, 0.05)-DP audit on crafted pairs",
             total_violations == 0,
             f"{len(pairs)} pairs x {trials} trials/side, slack={slack:.5f}, "
             f"violations={total_violations}")


def test_criterion_4_restricted_selection_leakage_bound():
    # per-outcome leakage of the top-ell restriction is capped by beta once
    # gamma >= (2/n)(1 + ln(ell/beta)/alpha); exact distributions, no sampling
    cases = [
        # (n, alpha, ell, beta, left values, right values)
        (50, 1.0, 2, 0.1, [0.9, 0.5, 0.49, 0.3, 0.1], [0.9, 0.49, 0.5, 0.3, 0.1]),
        (60, 0.8, 3, 0.05,
         [0.95, 0.9, 0.85, 0.6, 0.5, 0.2],
         [0.9334, 0.9166, 0.8334, 0.6166, 0.4834, 0.2166]),
    ]
    details = []
    ok = True
    for n, alpha, ell, beta, lv, rv in cases:
        gamma = (2.0 / n) * (1.0 + math.log(ell / beta) / alpha)
        left = QualityUniverse.dense(lv, n=n)
        right = QualityUniverse.dense(rv, n=n)
        NeighborPair(left, right)
        assert satisfies_margin(left, ell, gamma)
        p_left = exact_selection_weights(lv, n, alpha, support=top_set(left, ell))
        p_right = exact_selection_weights(rv, n, alpha, support=top_set(right, ell))
        worst = max(
            p_left.get(i, 0.0) - (math.exp(alpha) * p_right.get(i, 0.0) + beta)
            for i in set(p_left) | set(p_right)
        )
        ok = ok and worst <= 0.0
        details.append(f"ell={ell}, beta={beta}: worst excess={worst:.2e}")
    conclude(4, "restricted-selection leakage stays under beta (exact)", ok, "; ".join(details))


def test_criterion_5_max_estimate_upper_tail():
    n, alpha, delta, trials = 100, 1.0, 0.05, 100_000
    u = QualityUniverse.dense([0.5, 0.2], n=n)
    cutoff = order_stat(u, 1) + math.log(1.0 / (2.0 * delta)) / (n * alpha)
    base = NoiseSource(47)
    exceed = sum(noisy_max_estimate(u, alpha, base.spawn(t)) > cutoff for t in range(trials))
    freq = exceed / trials
    slack = hoeffding_slack(trials, 0.99)
    conclude(5, "noisy max estimate exceeds its tail cutoff at most delta often",
             freq <= delta + slack, f"freq={freq:.4f} <= {delta}+{slack:.4f}")


def test_criterion_6_margin_search_utility():
    # rank-1 margin placed exactly on the guarantee boundary: every rank-1
    # return is an under-margin event, and those must stay rarer than delta
    n, alpha, delta, trials = 100, 1.0, 0.05, 100_000
    theta = 0.3
    boundary = theta - (2.0 / (n * alpha)) * math.log(1.0 / delta) \
        - (4.0 / (n * alpha)) * math.log(1 * 2 / delta)
    top = 0.8
    u = QualityUniverse.dense([top] + [top - boundary] * 3, n=n)
    thresholds = [ThresholdPair(theta, theta, r) for r in (1, 2, 3)]
    base = NoiseSource(53)
    bad = 0
    for t in range(trials):
        r = margin_search(u, alpha, top, thresholds, base.spawn(t))
        if r <= 3:
            lhs = top - order_stat(u, r + 1)
            limit = theta - (2.0 / (n * alpha)) * math.log(1.0 / delta) \
                - (4.0 / (n * alpha)) * math.log(r * (r + 1) / delta)
            bad += lhs <= limit
    freq = bad / trials
    slack = hoeffding_slack(trials, 0.99)
    conclude(6, "margin search returns an under-margin rank at most delta often",
             freq <= delta + slack, f"freq={freq:.4f} <= {delta}+{slack:.4f}")


def test_criterion_7_sampled_selection_matches_exact_weights():
    n, alpha, trials = 10, 1.0, 100_000
    values = [0.9, 0.7, 0.5, 0.5, 0.2, 0.1]
    u = QualityUniverse.dense(values, n=n)
    em = build_mechanism("em", PrivacyBudget(alpha))
    freq_em = estimate_distribution(em, u, trials, seed=61)
    tv_em = tv_distance(freq_em, exact_selection_weights(values, n, alpha))
    rem = lambda uu, src: restricted_exponential(uu, 3, alpha, src)
    freq_rem = estimate_distribution(rem, u, trials, seed=67)
    tv_rem = tv_distance(freq_rem, exact_selection_weights(values, n, alpha, support=top_set(u, 3)))
    ok = tv_em < 0.01 and tv_rem < 0.01
    conclude(7, "sampled selection distributions sit within TV 0.01 of brute force",
             ok, f"tv_em={tv_em:.4f}, tv_rem={tv_rem:.4f}")


def _planted_basket_data():
    baskets = [["P0", "P1"]] * 500
    fillers = [f"f{i:02d}" for i in range(50)]
    for i in range(500):
        baskets.append([fillers[i % 50], fillers[(i + 1) % 50]])
    return BasketDataset.from_lists(baskets)


def test_criterion_8_itemset_selection_desk_scale():
    n, alpha, delta, trials = 1000, 1.0, 0.05, 10_000
    data = _planted_basket_data()
    universe, codec = itemset_quality(data, 2, vocab_size=500)
    ell = universe.explicit_count
    f_max = order_stat(universe, 1)
    gamma = lmm_required_margin(n, alpha, delta, delta, ell)
    assert f_max > gamma and satisfies_margin(universe, ell, gamma)
    radius = lmm_quality_radius(n, alpha, delta, ell)
    budget = PrivacyBudget(alpha, delta)
    base = NoiseSource(71)
    good = 0
    gap_sum = 0.0
    for t in range(trials):
        out = large_margin_mechanism(universe, budget, base.spawn(t))
        value = universe.value(out.item)
        good += value >= f_max - radius
        gap_sum += f_max - value
    freq = good / trials
    lmm_mean_gap = gap_sum / trials
    slack = hoeffding_slack(trials, 0.99)
    em_gap_inflated = em_expected_gap(universe, alpha)
    em_gap_original = em_expected_gap(itemset_quality(data, 2).universe, alpha)
    ok = (
        freq >= 1.0 - delta - slack
        and em_gap_inflated > lmm_mean_gap
        and em_gap_inflated > em_gap_original
    )
    conclude(8, "planted itemset recovered within the utility radius; the "
                "baseline's exact expected gap exceeds the adaptive mechanism's "
                "and grows with vocabulary inflation",
             ok,
             f"freq={freq:.4f} >= {1 - delta - slack:.4f}; L={ell}; "
             f"lmm_gap={lmm_mean_gap:.2e}; em_gap={em_gap_inflated:.2e} "
             f"(original {em_gap_original:.2e})")


def test_criterion_9_hard_family_and_group_privacy():
    ell, n, alpha, delta = 9, 20, 0.5, 0.02
    family, m = build_lb2_family(ell, n, alpha, universe_size=12)
    # exact structural checks
    ok_structure = m == 2
    for i, u in enumerate(family, start=1):
        ok_structure = ok_structure and u.value(i) == 0.5 + m / n == order_stat(u, 1)
        ok_structure = ok_structure and all(
            u.value(j) == 0.5 for j in range(1, ell + 1) if j != i
        )
        ok_structure = ok_structure and all(u.value(j) == 0.0 for j in range(ell + 1, 13))
        ok_structure = ok_structure and satisfies_margin(u, ell, m / n)
    bound = lb2_delta_bound(ell, alpha)
    regime = delta <= bound
    budget = PrivacyBudget(alpha, delta)
    mech = build_mechanism("lmm", budget)
    trials = 100_000
    report = check_group_privacy(family[0], family[1], m, mech, budget, trials, seed=83)
    # the lower-bound phenomenon, observed: no family member's own item wins
    # often, exactly because the margins here are too thin for the budget
    own_success = estimate_distribution(mech, family[0], trials, seed=89).get(1, 0.0)
    ok = ok_structure and regime and report.passed and own_success < 0.5
    conclude(9, "hard family is exact, stays in the lower-bound regime, passes "
                "the group-privacy audit, and defeats the adaptive mechanism",
             ok,
             f"m={m}; delta={delta}<=bound={bound:.4f}; violations={len(report.violations)}; "
             f"own-item success={own_success:.3f}<0.5")
