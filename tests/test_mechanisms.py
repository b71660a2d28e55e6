"""Selection mechanisms against hand traces and sampling-free oracles."""

import json
import marshal
import math
import random
from collections import Counter
from itertools import islice, repeat
from operator import itemgetter

import pytest

from privmax import (
    FAIL_KEY,
    CapExhausted,
    MechanismOutcome,
    NoiseSource,
    PrivacyBudget,
    QualityUniverse,
    ThresholdPair,
    build_mechanism,
    compute_thresholds,
    default_cap,
    exponential_mechanism,
    gap_max_st13,
    large_margin_mechanism,
    lmm_quality_radius,
    lmm_required_margin,
    margin_search,
    max_of_laplaces,
    order_stat,
    save_universe,
    top_set,
)
from privmax import audit, cli, mechanisms
from privmax.audit import _SHARD_TRIALS
from oracles import (
    FixedSource,
    RecordingSource,
    Replay,
    exact_selection_weights,
    hoeffding,
    laplace_diff_tail,
    laplace_quantile,
    noisy_max_estimate,
    restricted_exponential,
    satisfies_margin,
    tv_distance,
)


class TestExponentialMechanism:
    def test_single_item(self):
        u = QualityUniverse.dense([0.4], n=10)
        base = NoiseSource(3)
        assert all(exponential_mechanism(u, 1.0, base.spawn(t)).item == 1 for t in range(200))

    def test_equal_values_uniform(self):
        u = QualityUniverse.dense([0.5] * 4, n=10)
        freqs = audit.estimate_distribution(build_mechanism("em", PrivacyBudget(1.0)), u, 100_000, 17)
        for i in range(1, 5):
            assert freqs[i] == pytest.approx(0.25, abs=0.01)

    def test_clear_maximizer_closed_form(self):
        # one top entry at 1, K-1 at 0: success probability e^(na/2)/(K-1+e^(na/2))
        n, alpha, k = 20, 0.5, 100
        u = QualityUniverse.sparse([1.0], k=k, n=n)
        expected = math.exp(n * alpha / 2) / (k - 1 + math.exp(n * alpha / 2))
        freqs = audit.estimate_distribution(build_mechanism("em", PrivacyBudget(alpha)), u, 100_000, 29)
        assert freqs[1] == pytest.approx(expected, abs=0.01)

    def test_matches_direct_normalization_oracle(self):
        values = [0.9, 0.7, 0.5, 0.5, 0.2]
        u = QualityUniverse.dense(values, n=10)
        oracle = exact_selection_weights(values, n=10, alpha=1.0)
        freqs = audit.estimate_distribution(build_mechanism("em", PrivacyBudget(1.0)), u, 100_000, 41)
        assert tv_distance(freqs, oracle) < 0.01

    def test_shift_invariance_exact(self):
        values = [0.9, 0.7, 0.5, 0.2]
        shifted = [v + 2.5 for v in values]
        a = exact_selection_weights(values, n=10, alpha=1.0)
        b = {
            i: w
            for i, w in exact_selection_weights([v - 2.5 for v in shifted], n=10, alpha=1.0).items()
        }
        for i in a:
            assert a[i] == pytest.approx(b[i], rel=1e-9)
        # sampled paths agree seed-for-seed once the shift cancels in the weights
        u1 = QualityUniverse.dense(values, n=10)
        u2 = QualityUniverse.dense(shifted, n=10)
        base = NoiseSource(99)
        picks1 = [exponential_mechanism(u1, 1.0, base.spawn(t)).item for t in range(2000)]
        base = NoiseSource(99)
        picks2 = [exponential_mechanism(u2, 1.0, base.spawn(t)).item for t in range(2000)]
        assert sum(p != q for p, q in zip(picks1, picks2)) <= 1

    def test_monotone_consistency_on_oracle(self):
        base_values = [0.6, 0.5, 0.4, 0.3]
        p_before = exact_selection_weights(base_values, n=10, alpha=1.0)
        bumped = list(base_values)
        bumped[2] += 0.15
        p_after = exact_selection_weights(bumped, n=10, alpha=1.0)
        assert p_after[3] > p_before[3]

    def test_alpha_validation(self):
        u = QualityUniverse.dense([0.1], n=5)
        with pytest.raises(ValueError):
            exponential_mechanism(u, 0.0, NoiseSource(0))

    def test_infinite_alpha_rejected_before_any_draw(self):
        u = QualityUniverse.dense([0.9, 0.1], n=10)
        src = RecordingSource(NoiseSource(0))
        for call in (lambda: exponential_mechanism(u, math.inf, src),
                     lambda: restricted_exponential(u, 1, math.inf, src),
                     lambda: max_of_laplaces(u, math.inf, src)):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                call()
        assert (src.laplace_scales, src.uniform_draws) == ([], 0)

    def test_overflow_free_with_extreme_exponents(self):
        # n*alpha*f/2 far beyond the float exponent range must still sample
        u = QualityUniverse.dense([900.0, 0.0, -900.0], n=10**6)
        out = exponential_mechanism(u, 10.0, NoiseSource(1))
        assert out.item == 1


class TestRestrictedExponential:
    def test_ell_one_returns_top(self):
        u = QualityUniverse.dense([0.2, 0.9, 0.5], n=10)
        base = NoiseSource(5)
        assert all(
            restricted_exponential(u, 1, 1.0, base.spawn(t)).item == 2 for t in range(500)
        )

    def test_full_rank_equals_unrestricted(self):
        u = QualityUniverse.dense([0.8, 0.6, 0.4, 0.2], n=10)
        for t in range(2000):
            a = restricted_exponential(u, 4, 1.0, NoiseSource(1000 + t))
            b = exponential_mechanism(u, 1.0, NoiseSource(1000 + t))
            assert a.item == b.item

    def test_two_item_closed_form(self):
        # values [1.0, 0.5, 0.0], ell=2, n*alpha/2 = 2: P(top) = e/(1+e)
        u = QualityUniverse.dense([1.0, 0.5, 0.0], n=4)
        expected = math.e / (1 + math.e)
        freqs = audit.estimate_distribution(
            lambda uu, s: restricted_exponential(uu, 2, 1.0, s), u, 100_000, 53
        )
        assert freqs[1] == pytest.approx(expected, abs=0.01)
        assert freqs.get(3, 0.0) == 0.0

    def test_support_never_leaves_top_set(self):
        u = QualityUniverse.dense([0.5, 0.5, 0.3, 0.3], n=10)
        allowed = set(top_set(u, 2))
        base = NoiseSource(7)
        for t in range(5000):
            assert restricted_exponential(u, 2, 1.0, base.spawn(t)).item in allowed

    def test_matches_direct_normalization_oracle(self):
        values = [0.9, 0.8, 0.6, 0.1, 0.0]
        u = QualityUniverse.dense(values, n=12)
        oracle = exact_selection_weights(values, n=12, alpha=0.8, support=(1, 2, 3))
        freqs = audit.estimate_distribution(
            lambda uu, s: restricted_exponential(uu, 3, 0.8, s), u, 100_000, 61
        )
        assert tv_distance(freqs, oracle) < 0.01

    def test_ell_validation(self):
        u = QualityUniverse.dense([0.5, 0.4], n=10)
        with pytest.raises(ValueError):
            restricted_exponential(u, 0, 1.0, NoiseSource(0))
        with pytest.raises(ValueError):
            restricted_exponential(u, 3, 1.0, NoiseSource(0))


class TestNoisyMaxEstimate:
    def test_zero_override_returns_exact_max(self):
        u = QualityUniverse.dense([0.3, 0.7, 0.1], n=50)
        src = NoiseSource(0, zero_override=True)
        assert noisy_max_estimate(u, 1.0, src) == 0.7

    def test_upper_tail_bound(self):
        # P(estimate > f(1) + ln(1/(2 delta))/(n alpha)) is exactly delta
        n, alpha, delta = 100, 1.0, 0.05
        u = QualityUniverse.dense([0.5, 0.2], n=n)
        cutoff = order_stat(u, 1) + math.log(1 / (2 * delta)) / (n * alpha)
        trials = 20_000
        base = NoiseSource(71)
        exceed = sum(noisy_max_estimate(u, alpha, base.spawn(t)) > cutoff for t in range(trials))
        assert exceed / trials <= delta + hoeffding(trials)

    def test_symmetry_about_max(self):
        u = QualityUniverse.dense([0.5, 0.2], n=100)
        trials = 50_000
        base = NoiseSource(73)
        samples = sorted(noisy_max_estimate(u, 1.0, base.spawn(t)) for t in range(trials))
        median = samples[trials // 2]
        # Lap(1/alpha)/n has density n*alpha/2 at 0, so the sample median has
        # se ~ 1/(n*alpha*sqrt(trials))
        assert abs(median - 0.5) < 3.0 / (100 * math.sqrt(trials))


class TestMarginSearch:
    def test_single_item_universe(self):
        u = QualityUniverse.dense([0.4], n=10)
        assert margin_search(u, 1.0, 0.4, [], NoiseSource(0)) == 1

    def test_zero_override_hand_trace(self):
        u = QualityUniverse.dense([1.0, 0.3, 0.2], n=10)
        thresholds = [ThresholdPair(t=0.5, T=0.5, r=1), ThresholdPair(t=0.6, T=0.6, r=2)]
        src = NoiseSource(0, zero_override=True)
        # m - f(2) = 0.7 > 0.5 at rank 1
        assert margin_search(u, 1.0, 1.0, thresholds, src) == 1

    def test_returns_k_when_nothing_triggers(self):
        u = QualityUniverse.dense([1.0, 0.3, 0.2], n=10)
        thresholds = [ThresholdPair(t=0.5, T=0.5, r=1), ThresholdPair(t=0.6, T=0.6, r=2)]
        src = NoiseSource(0, zero_override=True)
        assert margin_search(u, 1.0, -10.0, thresholds, src) == 3

    def test_cap_exhausted_signalled(self):
        u = QualityUniverse.dense([1.0, 0.3, 0.2], n=10)
        thresholds = [ThresholdPair(t=5.0, T=5.0, r=1)]
        with pytest.raises(CapExhausted):
            margin_search(u, 1.0, 1.0, thresholds, NoiseSource(0, zero_override=True), cap=2)

    def test_threshold_count_mismatch(self):
        u = QualityUniverse.dense([1.0, 0.3, 0.2], n=10)
        with pytest.raises(ValueError):
            margin_search(u, 1.0, 1.0, [ThresholdPair(0.5, 0.5, 1)], NoiseSource(0))

    def test_cap_validation(self):
        u = QualityUniverse.dense([1.0, 0.3], n=10)
        with pytest.raises(ValueError):
            margin_search(u, 1.0, 1.0, [], NoiseSource(0), cap=0)
        with pytest.raises(ValueError):
            margin_search(u, 1.0, 1.0, [], NoiseSource(0), cap=3)


class TestDefaultCap:
    def test_dense_is_k(self):
        assert default_cap(QualityUniverse.dense([0.1, 0.2], n=5)) == 2

    def test_sparse_is_l_plus_one(self):
        assert default_cap(QualityUniverse.sparse([0.5, 0.4], k=100, n=5)) == 3
        assert default_cap(QualityUniverse.sparse([0.5], k=2, n=5)) == 2


class TestLargeMarginMechanism:
    BUDGET = PrivacyBudget(1.0, 0.05)

    def test_single_item(self):
        u = QualityUniverse.dense([0.9], n=10)
        base = NoiseSource(2)
        for t in range(100):
            out = large_margin_mechanism(u, self.BUDGET, base.spawn(t))
            assert out.item == 1 and out.certified

    def test_zero_override_deterministic_trace(self):
        # m = 1.0; rank-1 margin 0.7 clears T(1) ~ 0.2456, so ell = 1, item 1
        u = QualityUniverse.dense([1.0, 0.3, 0.2, 0.1], n=500)
        t1 = compute_thresholds(500, 1.0, 0.05, 1).T
        assert t1 == pytest.approx(0.2456, abs=5e-4)
        out = large_margin_mechanism(u, self.BUDGET, NoiseSource(0, zero_override=True))
        assert out.m == 1.0
        assert out.ell == 1
        assert out.item == 1
        assert out.certified

    def test_budget_split_and_noise_order(self):
        # stage scales for alpha = 1: Lap(3) for m, then Lap(6) = G, then
        # Lap(12) per visited rank, then one uniform for the final draw. The
        # mechanism reads four raw uniforms at ell = 1, and m is the Lap(3)
        # transform of the first, bit for bit; the reference draws the scales
        u = QualityUniverse.dense([1.0, 0.3, 0.2, 0.1], n=500)
        values = [0.6180339887498949, 0.4142135623730951, 0.7320508075688772, 0.2360679774997897]
        src = NoiseSource(0)
        src._rng = Replay(values)
        out = large_margin_mechanism(u, self.BUDGET, src)
        assert (out.ell, src._rng.draws) == (1, 4)
        assert out.m.hex() == (1.0 + laplace_quantile(values[0], 3.0) / 500).hex()
        rec = RecordingSource(NoiseSource(0))
        rec._inner._rng = Replay(values)
        assert _eager_lmm(u, self.BUDGET, rec) == (out.item, out.ell, out.m, out.certified)
        assert rec.laplace_scales == [3.0, 6.0, 12.0]
        assert rec.uniform_draws == 1

    def test_threshold_schedule_embeds_delta_thirds(self):
        # ln(3r/delta), ln(3/(2 delta)), ln(3/delta), ln(3r(r+1)/delta) terms verbatim
        n, alpha, delta, r = 100, 1.0, 0.05, 2
        pair = compute_thresholds(n, alpha, delta, r)
        t_manual = (6 / n) * (1 + math.log(3 * r / delta) / alpha)
        T_manual = (
            (3 / (n * alpha)) * math.log(3 / (2 * delta))
            + (6 / (n * alpha)) * math.log(3 / delta)
            + (12 / (n * alpha)) * math.log(3 * r * (r + 1) / delta)
            + t_manual
        )
        assert pair.t == pytest.approx(t_manual, rel=1e-12)
        assert pair.T == pytest.approx(T_manual, rel=1e-12)

    def test_requires_approximate_budget(self):
        u = QualityUniverse.dense([0.5, 0.2], n=10)
        with pytest.raises(ValueError):
            large_margin_mechanism(u, PrivacyBudget(1.0, 0.0), NoiseSource(0))

    def test_determinism(self):
        u = QualityUniverse.dense([0.6, 0.55, 0.3, 0.1], n=50)
        a = large_margin_mechanism(u, self.BUDGET, NoiseSource(12345))
        b = large_margin_mechanism(u, self.BUDGET, NoiseSource(12345))
        assert a == b

    def test_outcome_item_within_certified_rank(self):
        u = QualityUniverse.dense([0.9, 0.8, 0.5, 0.2, 0.1], n=200)
        base = NoiseSource(31)
        for t in range(3000):
            out = large_margin_mechanism(u, self.BUDGET, base.spawn(t))
            if out.certified:
                assert out.item in top_set(u, out.ell)

    def test_utility_guarantee(self):
        # margin condition at (ell*, gamma*) with eta = 0.05: bad picks are
        # rarer than eta plus Monte Carlo slack
        n, alpha, delta, eta, ell_star = 500, 1.0, 0.05, 0.05, 3
        gamma = lmm_required_margin(n, alpha, delta, eta, ell_star)
        assert gamma < 0.7
        values = [1.0, 0.98, 0.96] + [0.3] * 7
        u = QualityUniverse.dense(values, n=n)
        assert satisfies_margin(u, ell_star, gamma)
        radius = lmm_quality_radius(n, alpha, eta, ell_star)
        cutoff = order_stat(u, 1) - radius
        trials = 10_000
        base = NoiseSource(83)
        bad = 0
        for t in range(trials):
            out = large_margin_mechanism(u, PrivacyBudget(alpha, delta), base.spawn(t))
            bad += u.value(out.item) <= cutoff
        assert bad / trials <= eta + hoeffding(trials)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0])
    def test_guarantee_formulas_need_a_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            lmm_required_margin(500, alpha, 0.05, 0.05, 3)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            lmm_quality_radius(500, alpha, 0.05, 3)

    def test_range_independence_zero_override(self):
        nz = [1.0, 0.4, 0.2]
        small = QualityUniverse.sparse(nz, k=10, n=500)
        huge = QualityUniverse.sparse(nz, k=10**6, n=500)
        a = large_margin_mechanism(small, self.BUDGET, NoiseSource(0, zero_override=True))
        b = large_margin_mechanism(huge, self.BUDGET, NoiseSource(0, zero_override=True))
        assert (a.item, a.ell) == (b.item, b.ell) == (1, 1)

    def test_cap_exhausted_falls_back_uncertified(self):
        u = QualityUniverse.sparse([0.1], k=100, n=10)
        out = large_margin_mechanism(u, self.BUDGET, NoiseSource(0, zero_override=True))
        assert not out.certified
        assert out.ell is None
        assert out.m == 0.1
        assert 1 <= out.item <= 100

    def test_explicit_cap_rejected_out_of_range(self):
        u = QualityUniverse.dense([0.5, 0.2], n=10)
        with pytest.raises(ValueError):
            large_margin_mechanism(u, self.BUDGET, NoiseSource(0), cap=5)


class TestMaxOfLaplaces:
    def test_zero_override_argmax_lowest_id(self):
        u = QualityUniverse.dense([0.4, 0.9, 0.9, 0.1], n=10)
        out = max_of_laplaces(u, 1.0, NoiseSource(0, zero_override=True))
        assert out.item == 2
        ties = QualityUniverse.dense([0.5, 0.5, 0.5], n=10)
        assert max_of_laplaces(ties, 1.0, NoiseSource(0, zero_override=True)).item == 1

    def test_equal_values_uniform(self):
        u = QualityUniverse.dense([0.5] * 5, n=10)
        freqs = audit.estimate_distribution(build_mechanism("mol", PrivacyBudget(1.0)), u, 50_000, 91)
        for i in range(1, 6):
            assert freqs[i] == pytest.approx(0.2, abs=0.01)

    def test_two_item_convolution_oracle(self):
        # P(pick top) = P(X2 - X1 < gap) for iid Lap(2/(n alpha)) noise
        n, alpha = 20, 1.0
        u = QualityUniverse.dense([1 / n, 0.0], n=n)
        scale = 2.0 / (n * alpha)
        expected = 1.0 - laplace_diff_tail(1 / n, scale)
        freqs = audit.estimate_distribution(build_mechanism("mol", PrivacyBudget(alpha)), u, 100_000, 97)
        assert freqs[1] == pytest.approx(expected, abs=0.01)

    def test_sparse_block_matches_dense(self):
        dense = QualityUniverse.dense([0.5, 0.0, 0.0, 0.0], n=10)
        sparse = QualityUniverse.sparse([0.5], k=4, n=10)
        fd = audit.estimate_distribution(build_mechanism("mol", PrivacyBudget(1.0)), dense, 50_000, 101)
        fs = audit.estimate_distribution(build_mechanism("mol", PrivacyBudget(1.0)), sparse, 50_000, 103)
        assert tv_distance(fd, fs) < 0.02

    def test_sparse_all_fill_uniform(self):
        u = QualityUniverse.sparse([], k=5, n=10)
        freqs = audit.estimate_distribution(build_mechanism("mol", PrivacyBudget(1.0)), u, 50_000, 107)
        for i in range(1, 6):
            assert freqs[i] == pytest.approx(0.2, abs=0.01)

    def test_sparse_zero_override(self):
        u = QualityUniverse.sparse([], k=5, n=10)
        assert max_of_laplaces(u, 1.0, NoiseSource(0, zero_override=True)).item == 1


class TestGapMechanism:
    def test_zero_override_huge_gap_releases(self):
        u = QualityUniverse.dense([0.9, 0.1], n=100)
        out = gap_max_st13(u, PrivacyBudget(1.0, 0.05), NoiseSource(0, zero_override=True))
        assert out.item == 1

    def test_zero_override_tie_fails(self):
        u = QualityUniverse.dense([0.5, 0.5, 0.1], n=100)
        out = gap_max_st13(u, PrivacyBudget(1.0, 0.05), NoiseSource(0, zero_override=True))
        assert out.item == FAIL_KEY

    def test_tied_pair_declines_in_every_form(self, tmp_path):
        # under zero noise a tied top pair's gap is 0, below the threshold, so
        # every form of a run is the one declined outcome: the function, a
        # plan's single call, its runs and its release tuples; the CLI exits 3
        # with the fail record
        u = QualityUniverse.dense([0.5, 0.5, 0.1], n=100)
        budget = PrivacyBudget(1.0, 0.05)
        declined = MechanismOutcome(FAIL_KEY, budget, None, None, False)
        assert MechanismOutcome._fields == ("item", "budget", "m", "ell", "certified")
        plan = build_mechanism("st13", budget).bind(u)
        calls = [gap_max_st13(u, budget, NoiseSource(0, zero_override=True)),
                 plan(NoiseSource(0, zero_override=True))]
        runs = list(islice(plan.runs(NoiseSource(0, zero_override=True)), 3))
        releases = list(islice(plan.releases(NoiseSource(0, zero_override=True)), 3))
        assert calls + runs + releases == [declined] * 8
        assert {type(out) for out in calls + runs} == {MechanismOutcome}
        assert {type(release) for release in releases} == {tuple}
        path, out = tmp_path / "tie.json", tmp_path / "o.json"
        save_universe(u, path)
        assert cli.main(["select", "--in", str(path), "--mechanism", "st13", "--zero-noise",
                         "--seed", "2", "--out", str(out)]) == cli.EXIT_FAIL == 3
        assert json.loads(out.read_text()) == {"outcome": "fail", "alpha": 1.0, "delta": 0.05, "seed": 2}

    def test_tied_top_failure_probability(self):
        # tied top pair: P(Fail) = 1 - delta/2 under the default multipliers
        u = QualityUniverse.dense([1.0, 1.0] + [0.0] * 3, n=20)
        delta = 0.2
        trials = 50_000
        freqs = audit.estimate_distribution(
            build_mechanism("st13", PrivacyBudget(1.0, delta)), u, trials, 113
        )
        assert freqs["fail"] >= 0.5
        assert freqs["fail"] == pytest.approx(1.0 - delta / 2, abs=0.01)

    def test_requires_positive_delta(self):
        u = QualityUniverse.dense([0.5, 0.2], n=10)
        with pytest.raises(ValueError):
            gap_max_st13(u, PrivacyBudget(1.0, 0.0), NoiseSource(0))

    def test_single_item_always_releases(self):
        u = QualityUniverse.dense([0.5], n=10)
        out = gap_max_st13(u, PrivacyBudget(1.0, 0.05), NoiseSource(9))
        assert out.item == 1

    def test_tied_tops_release_lowest_id(self):
        # a uniform near 1 gives a huge positive gap noise, so the tie releases
        budget = PrivacyBudget(1.0, 0.05)
        u = QualityUniverse.dense([0.2, 0.9, 0.5, 0.9], n=10)
        assert gap_max_st13(u, budget, FixedSource([1.0 - 1e-12])).item == 2
        vals = [0.1] * 3_000
        vals[2_500] = vals[700] = vals[1_800] = 0.9
        u = QualityUniverse.dense(vals, n=10)
        assert gap_max_st13(u, budget, FixedSource([1.0 - 1e-12])).item == 701
        u = QualityUniverse.sparse([0.9, 0.9], k=10**9, n=10)
        assert gap_max_st13(u, budget, FixedSource([1.0 - 1e-12])).item == 1


class TestMechanismRegistry:
    def test_known_names(self):
        u = QualityUniverse.dense([1.0, 0.2], n=100)
        budget = PrivacyBudget(1.0, 0.05)
        for name in ("em", "mol", "st13", "lmm"):
            mech = build_mechanism(name, budget)
            res = mech(u, NoiseSource(0, zero_override=True))
            assert res.item == FAIL_KEY or 1 <= res.item <= 2
        assert restricted_exponential(u, 1, budget.alpha, NoiseSource(0)).item == 1

    def test_unknown_name(self):
        # rem needs an ell the CLI cannot supply, so it is called directly
        for name in ("nope", "rem"):
            with pytest.raises(ValueError, match="registered: em, mol, st13, lmm$"):
                build_mechanism(name, PrivacyBudget(1.0, 0.05))


def _direct_calls(budget, cap):
    """Each registered name's direct function, called as the registry would."""
    return {
        "em": lambda u, src: exponential_mechanism(u, budget.alpha, src),
        "mol": lambda u, src: max_of_laplaces(u, budget.alpha, src),
        "st13": lambda u, src: gap_max_st13(u, budget, src),
        "lmm": lambda u, src: large_margin_mechanism(u, budget, src, cap=cap),
    }


def _release_of(out):
    """What _reference_runs returns for a plan's outcome."""
    if out.item == FAIL_KEY:
        return "fail"
    return (out.item, out.ell, out.m, out.certified) if out.m is not None else out.item


def _reference_runs(budget):
    """Each registered name's run written with its source's ``uniform()`` and
    ``laplace()``, its generator's ``randrange`` for a fill index, and the
    reference functions: the item (em, mol), the item or "fail" (st13), or
    (item, ell, m, certified) (lmm)."""

    def mol(u, src, cap):
        scale = 2.0 / (u.n * budget.alpha)
        best, best_id = float("-inf"), 0
        for i, v in enumerate(u.explicit, start=1):
            noisy = v + src.laplace(scale)
            if noisy > best:
                best, best_id = noisy, i
        n_fill = u.k - len(u.explicit)
        if n_fill:
            block = u.fill + mechanisms._laplace_block_max(scale, n_fill, src)
            block_id = len(u.explicit) + 1 + src._rng.randrange(n_fill)
            if block > best:
                best_id = block_id
        return best_id

    def st13(u, src, cap):
        na = u.n * budget.alpha
        gap = order_stat(u, 1) - order_stat(u, 2) + src.laplace(2.0 / na)
        return top_set(u, 1)[0] if gap > 2.0 * math.log(1.0 / budget.delta) / na else "fail"

    return {
        "em": lambda u, src, cap: restricted_exponential(u, u.k, budget.alpha, src).item,
        "mol": mol,
        "st13": st13,
        "lmm": lambda u, src, cap: _eager_lmm(u, budget, src, cap),
    }


def _plan_cases():
    """(universe, lmm cap) pairs covering every path a plan caches."""
    t1 = compute_thresholds(500, 1.0, 0.05, 1).T
    t2 = compute_thresholds(500, 1.0, 0.05, 2).T
    rng = random.Random(47)
    return [
        (QualityUniverse.dense([rng.randint(0, 50) / 50 for _ in range(12)], n=50), None),
        (QualityUniverse.dense([0.2, 1.0 - t2, 0.1, 1.0, 1.0 - t1, 0.1, 0.15, 0.05], n=500), None),
        (QualityUniverse.sparse([0.9, 0.85, 0.8, 0.3], k=10**9, n=100), None),
        (QualityUniverse.sparse([0.6, 0.4], k=40, n=20, fill=0.3), None),
        (QualityUniverse.sparse([], k=5, n=10, fill=0.2), None),
        (QualityUniverse.dense([0.6, 0.58, 0.57, 0.56] + [0.5] * 16, n=40), 5),  # cap fallback
        (QualityUniverse.dense([0.0, -0.0, 0.0, -0.0], n=100), None),
        # no fill block: the fill weight exp(n alpha (0 - f_max)/2) would overflow
        (QualityUniverse.dense([-100.0, -100.5, -101.0], n=1000), None),
    ]


def _lmm_path_cases(budget):
    """(fresh-universe factory, lmm cap) pairs whose searches read past the
    256-rank initial head of a shuffled dense universe (k = 10,000, so a first
    growth sorts only part of it), or certify in the fill run of a sparse
    one or exhaust its cap; the shapes of
    test_lmm_matches_eager_reference_past_the_head."""
    T = lambda n, r: compute_thresholds(n, budget.alpha, budget.delta, r).T  # noqa: E731
    n = 2000
    rng = random.Random(45)
    vals = [0.9 - rng.random() * 20 / n for _ in range(256)]
    vals += [0.9 - T(n, 256) - rng.random() * 20 / n for _ in range(344)]
    vals += [0.9 - T(n, 600) - (100 + rng.random() * 1000) / n for _ in range(9400)]
    rng.shuffle(vals)
    m = 500
    top = [0.9, 0.9 - 5 / m, 0.9 - 10 / m, 0.9 - 15 / m]
    fill = 0.9 - T(m, 4) + 15 / m
    return [(lambda: QualityUniverse.dense(vals, n=n), None),
            (lambda: QualityUniverse.sparse(top, k=300, n=m, fill=fill), 40)]


class TestBoundPlans:
    """``build_mechanism(name, budget).bind(u)`` keeps one plan for many runs;
    each run must equal the direct function's call, draw for draw."""

    BUDGETS = (PrivacyBudget(1.0, 0.05), PrivacyBudget(0.5, 0.1))

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_bound_runs_match_direct_calls_on_a_shared_stream(self, name):
        for budget in self.BUDGETS:
            for u, cap in _plan_cases():
                direct = _direct_calls(budget, cap)[name]
                for zero in (False, True):
                    run = build_mechanism(name, budget, cap=cap).bind(u)
                    shared, reference = NoiseSource(9, zero_override=zero), NoiseSource(9, zero_override=zero)
                    got = [run(shared) for _ in range(150)]
                    assert got == [direct(u, reference) for _ in range(150)], (name, u, cap, zero)

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_bound_runs_draw_the_direct_scales(self, name):
        # bound and direct runs read the same number of raw uniforms from
        # their sources' generators, run by run
        budget = self.BUDGETS[0]
        for u, cap in _plan_cases():
            run = build_mechanism(name, budget, cap=cap).bind(u)
            bound, direct = NoiseSource(3), NoiseSource(3)
            bound._rng, direct._rng = Replay(iter(bound._rng.random, None)), Replay(iter(direct._rng.random, None))
            for _ in range(40):
                run(bound)
                _direct_calls(budget, cap)[name](u, direct)
                assert bound._rng.draws == direct._rng.draws
            assert bound._rng.draws >= 40

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_runs_yield_what_single_calls_return(self, name):
        # an audit shard iterates plan.runs(src); its outcomes must be the
        # plan's single calls on a twin stream, and the direct function's on
        # fresh plans, equal and of the same type, and leave the streams
        # aligned. Each pass gets a fresh universe, so each grows its head
        runs = 40
        paths, regrown = set(), 0  # (L, k, ell, certified, declined)
        for budget in self.BUDGETS:
            cases = [(lambda u=u: u, cap) for u, cap in _plan_cases()]
            if name == "lmm":
                cases += _lmm_path_cases(budget)
            for fresh, cap in cases:
                for zero in (False, True):
                    u = fresh()
                    src = NoiseSource(13, zero_override=zero)
                    gen = build_mechanism(name, budget, cap=cap).bind(u).runs(src)
                    got = [next(gen)]
                    if 256 < len(u._sorted) < len(u.explicit):  # another reader grows it again
                        order_stat(u, 4 * len(u._sorted) + 1)
                        regrown += 1
                    got += islice(gen, runs - 1)
                    plan, twin = build_mechanism(name, budget, cap=cap).bind(fresh()), NoiseSource(13, zero_override=zero)
                    assert got == [plan(twin) for _ in range(runs)], (name, u, cap, zero)
                    u, reference = fresh(), NoiseSource(13, zero_override=zero)
                    want = [_direct_calls(budget, cap)[name](u, reference) for _ in range(runs)]
                    assert got == want and list(map(type, got)) == list(map(type, want))
                    assert src.uniform() == twin.uniform() == reference.uniform()
                    paths.update((len(u.explicit), u.k, getattr(o, "ell", None), getattr(o, "certified", None),
                                  o.item == FAIL_KEY) for o in got)
        if name == "st13":
            assert any(fail for *_, fail in paths)
        if name == "lmm":
            assert regrown
            assert any(certified is False for _, _, _, certified, _ in paths)  # the cap fallback
            assert any(ell and ell > 256 for _, _, ell, _, _ in paths)  # past the initial head
            assert any(ell and L < ell < k for L, k, ell, _, _ in paths)  # the fill run

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_release_tuples_are_the_fields_of_runs(self, name):
        # an audit shard counts plan.releases(src), the loop whose plain field
        # tuples runs(src) wraps: field for field they must be the outcomes of
        # runs and of single calls on twin streams, and leave the streams
        # aligned; a declined st13 run is released as (FAIL_KEY, budget, None,
        # None, False). The shard counts must be plain dicts, which marshal
        # sends from a forked child
        runs = 40
        kinds, regrown = set(), 0
        for budget in self.BUDGETS:
            cases = [(lambda u=u: u, cap) for u, cap in _plan_cases()]
            if name == "lmm":
                cases += _lmm_path_cases(budget)
            for fresh, cap in cases:
                mech = build_mechanism(name, budget, cap=cap)
                for zero in (False, True):
                    u = fresh()
                    src = NoiseSource(13, zero_override=zero)
                    gen = mech.bind(u).releases(src)
                    got = [next(gen)]
                    if 256 < len(u._sorted) < len(u.explicit):  # another reader grows it again
                        order_stat(u, 4 * len(u._sorted) + 1)
                        regrown += 1
                    got += islice(gen, runs - 1)
                    twin, single = NoiseSource(13, zero_override=zero), NoiseSource(13, zero_override=zero)
                    outcomes = list(islice(mech.bind(fresh()).runs(twin), runs))
                    plan = mech.bind(fresh())
                    calls = [plan(single) for _ in range(runs)]
                    assert got == list(map(tuple, outcomes)) == list(map(tuple, calls))
                    assert list(map(type, outcomes)) == list(map(type, calls))
                    assert src.uniform() == twin.uniform() == single.uniform()
                    assert {type(release) for release in got} == {tuple}
                    kinds.update(map(type, outcomes))
                bound = [(mech.bind(fresh()), _SHARD_TRIALS + 5, NoiseSource(21), False)]
                counts = audit._count_tasks(bound, [(0, 0), (0, 1)])
                assert [type(c) for c in counts] == [dict, dict]
                assert marshal.loads(marshal.dumps(counts)) == counts
                runs_of = [islice(mech.bind(fresh()).runs(NoiseSource(21).spawn(s)), size)
                           for s, size in enumerate((_SHARD_TRIALS, 5))]
                assert counts == [dict(Counter(map(itemgetter(0), r))) for r in runs_of]
        assert kinds == {MechanismOutcome}
        assert regrown or name != "lmm"

    def test_lmm_searches_are_the_margin_search(self):
        # an audit shard counts the ell of plan.searches(src), the loop of
        # stages 1 and 2 that releases extends by stage 3's uniform: run after
        # run on one stream it must give the reference's (m, ell), bit for
        # bit, and leave the stream where the reference leaves it
        paths = set()
        for budget in self.BUDGETS:
            # the reference computes every T(r) up to the cap on each run, so
            # the k = 10,000 path cases run fewer times
            cases = [(lambda u=u: u, cap, 30) for u, cap in _plan_cases()]
            cases += [(fresh, cap, 6) for fresh, cap in _lmm_path_cases(budget)]
            for fresh, cap, runs in cases:
                for zero in (False, True):
                    src, reference = NoiseSource(17, zero_override=zero), NoiseSource(17, zero_override=zero)
                    got = list(islice(build_mechanism("lmm", budget, cap=cap).bind(fresh()).searches(src), runs))
                    assert got == [_eager_search(fresh(), budget, reference, cap) for _ in range(runs)]
                    assert src.uniform() == reference.uniform()
                    paths.update(ell for _, ell in got)
        assert None in paths and any(ell and ell > 256 for ell in paths) and len(paths) > 5

    def test_lmm_law_is_the_restricted_exponential_law(self):
        # plan.law mixes stage 3's law over ell: at one ell it is the
        # directly normalised restricted-EM weights over the top-ell set, in
        # top-set order (the fill ids of a sparse universe past its explicit
        # values, all k items on the cap path); mixed, the weighted sum; and
        # it sums to 1
        budget = PrivacyBudget(1.0, 0.05)
        third = budget.alpha / 3.0
        rng = random.Random(49)
        cases = [
            (QualityUniverse.dense([rng.randint(0, 50) / 50 for _ in range(12)], n=50), None),
            (QualityUniverse.sparse([0.6, 0.4], k=40, n=20, fill=0.3), None),  # fill segment
            (QualityUniverse.sparse([], k=5, n=10, fill=0.2), None),
            (QualityUniverse.sparse([0.9, 0.85, 0.8, 0.3], k=30, n=100), None),  # cap min(k, L+1) = 5
            (QualityUniverse.dense([0.6, 0.58, 0.57, 0.56] + [0.5] * 16, n=40), 5),  # explicit cap
        ]
        for u, cap in cases:
            plan = build_mechanism("lmm", budget, cap=cap).bind(u)
            values = [u.value(i) for i in range(1, u.k + 1)]
            ells = list(range(1, u.k + 1)) + [None]
            exact = {ell: exact_selection_weights(values, u.n, third, support=top_set(u, ell or u.k))
                     for ell in ells}
            for ell in ells:
                law = plan.law({ell: 1.0})
                assert list(law) == list(top_set(u, ell or u.k))
                assert law == pytest.approx(exact[ell], abs=1e-12)
                assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
            mix = dict(zip(rng.sample(ells, 4), (0.1, 0.2, 0.3, 0.4)))
            law = plan.law(mix)
            want = {i: math.fsum(p * exact[ell].get(i, 0.0) for ell, p in mix.items()) for i in range(1, u.k + 1)}
            assert law == pytest.approx({i: p for i, p in want.items() if p > 0.0}, abs=1e-12)
            assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_zero_override_is_the_generator(self, name):
        # zero-noise is the source's generator, not a branch in the plans: a
        # zero-override source and its spawn children draw 0.5 on every call
        # and the integer 0 on every randrange, and a plan releases on one
        # what it releases on a sampled source whose generator replays 0.5
        # and 0. The one exception is mol's fill block, drawn in closed form
        # through uniform(): the median of a block maximum is not 0, so
        # zero-override puts the block at the fill value and its lowest id,
        # which the replayed 0.5 does not
        zero = NoiseSource(4, zero_override=True)
        for src in (zero, zero.spawn(0), zero.spawn(7).spawn(1)):
            assert [src._rng.random() for _ in range(20)] == [0.5] * 20
            assert [src._rng.randrange(n) for n in (1, 2, 3, 2**64)] == [0] * 4
        differs = 0
        for budget in self.BUDGETS:
            for u, cap in _plan_cases():
                mech = build_mechanism(name, budget, cap=cap)
                replay = NoiseSource(4)
                replay._rng = Replay(repeat(0.5), lambda n: 0)
                got = list(islice(mech.bind(u).releases(NoiseSource(4, zero_override=True)), 5))
                want = list(islice(mech.bind(u).releases(replay), 5))
                if name == "mol" and len(u.explicit) < u.k:
                    differs += got != want
                else:
                    assert got == want, (name, u, cap)
        assert differs if name == "mol" else not differs

    def test_exponential_weights_grow_to_the_sums_of_a_fresh_pass(self):
        # one table drawn at ells that grow it piece by piece must pick what a
        # fresh table (restricted_exponential builds one per call) picks
        from privmax.mechanisms import _ExponentialWeights

        rng = random.Random(48)
        explicit = sorted((rng.random() for _ in range(20)), reverse=True)
        cases = [QualityUniverse.dense([rng.random() for _ in range(40)], n=10),
                 QualityUniverse.sparse(explicit, k=60, n=10, fill=explicit[-1] / 2)]
        for u in cases:
            weights = _ExponentialWeights(u, 0.7)
            ells = [1, 2, 3, 5, 8, 13, 21, 34, u.k] + [rng.randint(1, u.k) for _ in range(300)]
            shared, reference = NoiseSource(5), NoiseSource(5)
            got = [weights.pick(ell, shared.uniform(), shared._rng.randrange) for ell in ells]
            assert got == [restricted_exponential(u, ell, 0.7, reference).item for ell in ells]

    def test_lmm_plan_draws_the_stage_scales(self):
        # two bound runs at ell = 1 read four raw uniforms each; each m is the
        # Lap(3) transform of its run's first, bit for bit, and the reference
        # on the same uniforms draws the stage scales
        u = QualityUniverse.dense([1.0, 0.3, 0.2, 0.1], n=500)
        run = build_mechanism("lmm", self.BUDGETS[0]).bind(u)
        values = [0.6180339887498949, 0.4142135623730951, 0.7320508075688772, 0.2360679774997897,
                  0.3819660112501051, 0.5857864376269049, 0.2679491924311228, 0.7639320225002103]
        src = NoiseSource(0)
        src._rng = Replay(values)
        got = [run(src) for _ in range(2)]
        assert ([out.ell for out in got], src._rng.draws) == ([1, 1], 8)
        for out, first in zip(got, values[::4]):
            assert out.m.hex() == (1.0 + laplace_quantile(first, 3.0) / 500).hex()
        rec = RecordingSource(NoiseSource(0))
        rec._inner._rng = Replay(values)
        assert [_eager_lmm(u, self.BUDGETS[0], rec) for _ in range(2)] == [
            (out.item, out.ell, out.m, out.certified) for out in got]
        assert rec.laplace_scales == [3.0, 6.0, 12.0] * 2
        assert rec.uniform_draws == 2

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_plans_reject_a_raw_zero_at_every_draw(self, name):
        # random() covers [0, 1): one or two 0.0s replayed before any draw of
        # a run (m, G, each Z_r, the final pick, each mol item, the mol block
        # max, st13's gap) are skipped, as uniform() skips them, so the run
        # equals the run without them and the reference on the same replay.
        # A fill index is a randrange, which reads no replayed value
        budget = self.BUDGETS[0]
        n = 500
        t1, t2 = (compute_thresholds(n, 1.0, 0.05, r).T for r in (1, 2))
        cases = [
            (QualityUniverse.dense([0.9, 0.9 - t1, 0.9 - t2, 0.4, 0.35, 0.3], n=n), None),
            (QualityUniverse.sparse([0.6, 0.4], k=40, n=20, fill=0.3), None),
            (QualityUniverse.dense([0.6, 0.58, 0.57, 0.56] + [0.5] * 16, n=40), 5),  # cap fallback
        ]
        reference = _reference_runs(budget)[name]
        paths = set()
        for u, cap in cases:
            run = build_mechanism(name, budget, cap=cap).bind(u)
            for seed in range(12):
                base = [x for x in islice(iter(random.Random(seed).random, None), 400) if x > 0.0]
                src = NoiseSource(0)
                src._rng = Replay(base)
                want = run(src)
                draws = src._rng.draws
                paths.add((getattr(want, "ell", None), draws))
                for at, zeros in [(i, [0.0] * z) for i in range(draws) for z in (1, 2)]:
                    values = base[:at] + zeros + base[at:]
                    src, ref = NoiseSource(0), NoiseSource(0)
                    src._rng, ref._rng = Replay(values), Replay(values)
                    got = run(src)
                    assert got == want and src._rng.draws == draws + len(zeros), (name, u, at)
                    assert reference(u, ref, cap) == _release_of(got) and ref._rng.draws == src._rng.draws
        if name == "lmm":  # m, G, Z_1..Z_4 and the pick; certified at ranks 1 to 3, and the cap fallback
            assert {ell for ell, _ in paths} >= {1, 2, 3, None} and max(d for _, d in paths) == 7

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_plans_run_on_a_system_random_generator(self, name):
        # a plan reads only its source's zero_override and _rng.random(), so
        # a secret source, which draws from the operating system's generator,
        # runs every plan to valid outcomes
        for budget in self.BUDGETS:
            for u, cap in _plan_cases():
                src = NoiseSource(None)
                for out in islice(build_mechanism(name, budget, cap=cap).bind(u).runs(src), 50):
                    if out.item == FAIL_KEY:
                        assert name == "st13" and out.budget == budget
                        continue
                    assert type(out) is MechanismOutcome and 1 <= out.item <= u.k
                    if name == "lmm":
                        assert math.isfinite(out.m) and (out.ell is None) == (not out.certified)
                        assert out.ell is None or 1 <= out.ell <= u.k

    def test_calling_the_mechanism_equals_a_fresh_bind(self):
        u = QualityUniverse.dense([0.6, 0.55, 0.3, 0.1], n=50)
        mech = build_mechanism("lmm", self.BUDGETS[0])
        assert mech(u, NoiseSource(12345)) == mech.bind(u)(NoiseSource(12345))

    def test_bound_lmm_computes_each_threshold_once(self, monkeypatch):
        calls = []
        real = mechanisms.compute_thresholds

        def counting(n, alpha, delta, r):
            calls.append(r)
            return real(n, alpha, delta, r)

        monkeypatch.setattr(mechanisms, "compute_thresholds", counting)
        u = QualityUniverse.dense([1.0, 0.98, 0.95, 0.9] + [0.3] * 46, n=200)
        run = build_mechanism("lmm", self.BUDGETS[0]).bind(u)
        base = NoiseSource(41)
        deepest = max(min(run(base.spawn(t)).ell, u.k - 1) for t in range(300))
        assert calls == list(range(1, deepest + 1))

    def test_bind_validates_before_any_run(self):
        u = QualityUniverse.dense([0.5, 0.2], n=10)
        with pytest.raises(ValueError, match="requires delta"):
            build_mechanism("lmm", PrivacyBudget(1.0)).bind(u)
        with pytest.raises(ValueError, match="requires delta"):
            build_mechanism("st13", PrivacyBudget(1.0)).bind(u)
        with pytest.raises(ValueError, match="cap 3 outside"):
            build_mechanism("lmm", self.BUDGETS[0], cap=3).bind(u)

    def test_a_replaced_function_runs_once_per_run(self, monkeypatch):
        # bind resolves the function by its module-level name, so a wrapper
        # installed there (as a profiler installs one) sees every run
        seen = []
        real = mechanisms.large_margin_mechanism

        def wrapper(u, budget, src, cap=None):
            seen.append(u)
            return real(u, budget, src, cap)

        monkeypatch.setattr(mechanisms, "large_margin_mechanism", wrapper)
        u = QualityUniverse.dense([0.6, 0.55, 0.3, 0.1], n=50)
        mech = build_mechanism("lmm", self.BUDGETS[0], cap=3)
        run = mech.bind(u)
        got = [run(NoiseSource(seed)) for seed in range(5)]
        assert seen == [u] * 5
        assert got == [real(u, self.BUDGETS[0], NoiseSource(seed), 3) for seed in range(5)]


def test_laplace_block_max_distribution():
    # max of N iid Laplace drawn in closed form vs N explicit draws
    from privmax.mechanisms import _laplace_block_max

    n_block, scale, trials = 7, 0.5, 40_000
    base = NoiseSource(131)
    closed = sorted(_laplace_block_max(scale, n_block, base.spawn(t)) for t in range(trials))
    base = NoiseSource(137)
    naive = []
    for t in range(trials):
        src = base.spawn(t)
        naive.append(max(src.laplace(scale) for _ in range(n_block)))
    naive.sort()
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        i = int(q * trials)
        assert closed[i] == pytest.approx(naive[i], abs=0.05)


def _eager_search(u, budget, src, cap=None):
    """Reference LMM stages 1 and 2: (m, ell), the margin search fed the
    explicit list of all cap-1 threshold pairs, computed before any noise is
    drawn; ell is None when the cap is exhausted."""
    third = budget.alpha / 3.0
    limit = default_cap(u) if cap is None else cap
    thresholds = [compute_thresholds(u.n, budget.alpha, budget.delta, r) for r in range(1, limit)]
    m = noisy_max_estimate(u, third, src)
    try:
        return m, margin_search(u, third, m, thresholds, src, cap=limit)
    except CapExhausted:
        return m, None


def _eager_lmm(u, budget, src, cap=None):
    """Reference LMM: :func:`_eager_search`, then stage 3 over the top-ell
    set, or over all k items (the unrestricted mechanism) when the cap is
    exhausted."""
    m, ell = _eager_search(u, budget, src, cap)
    return restricted_exponential(u, ell or u.k, budget.alpha / 3.0, src).item, ell, m, ell is not None


def test_lmm_computes_thresholds_only_for_scanned_ranks(monkeypatch):
    calls = []
    real = mechanisms.compute_thresholds

    def counting(n, alpha, delta, r):
        calls.append(r)
        return real(n, alpha, delta, r)

    monkeypatch.setattr(mechanisms, "compute_thresholds", counting)
    budget = PrivacyBudget(1.0, 0.05)
    zero = NoiseSource(0, zero_override=True)

    # certified at rank 3: margins 0, 0, then 1.0 > T(3)
    u = QualityUniverse.dense([1.0, 1.0, 1.0] + [0.0] * 97, n=500)
    out = large_margin_mechanism(u, budget, zero)
    assert (out.ell, out.certified) == (3, True)
    assert calls == [1, 2, 3]

    # seeded runs: one threshold per rank scanned, in rank order
    u = QualityUniverse.dense([1.0, 0.98, 0.95, 0.9] + [0.3] * 46, n=200)
    base = NoiseSource(41)
    for t in range(300):
        calls.clear()
        out = large_margin_mechanism(u, budget, base.spawn(t))
        assert calls == list(range(1, min(out.ell, u.k - 1) + 1))

    # cap fallback: the search scans ranks 1..cap-1, then gives up
    calls.clear()
    out = large_margin_mechanism(QualityUniverse.dense([0.5] * 10, n=500), budget, zero, cap=6)
    assert not out.certified
    assert len(calls) == 5

    # full scan of a dense k = 10^4 universe: k-1 thresholds
    calls.clear()
    u = QualityUniverse.dense([0.5] * 10_000, n=500)
    out = large_margin_mechanism(u, budget, zero)
    assert out.ell == u.k
    assert len(calls) == u.k - 1


def test_lmm_matches_eager_threshold_reference():
    n, alpha, delta = 500, 1.0, 0.05
    t1 = compute_thresholds(n, alpha, delta, 1).T
    t2 = compute_thresholds(n, alpha, delta, 2).T
    rng = random.Random(43)
    cases = [
        (QualityUniverse.dense([rng.randint(0, 50) / 50 for _ in range(12)], n=50), None),
        (QualityUniverse.dense([1.0, 1.0 - t1, 1.0 - t2] + [0.1] * 5, n=n), None),
        (QualityUniverse.sparse([0.9, 0.85, 0.8, 0.3], k=10**9, n=100), None),
        (QualityUniverse.sparse([0.1], k=100, n=10), None),
        (QualityUniverse.dense([0.6, 0.58, 0.57, 0.56] + [0.5] * 16, n=40), 5),
        (QualityUniverse.dense([0.0, -0.0, 0.0, -0.0], n=100), None),
    ]
    for budget in (PrivacyBudget(alpha, delta), PrivacyBudget(0.5, 0.1)):
        for u, cap in cases:
            for seed in range(200):
                got = large_margin_mechanism(u, budget, NoiseSource(seed), cap=cap)
                want = _eager_lmm(u, budget, NoiseSource(seed), cap=cap)
                assert (got.item, got.ell, got.m, got.certified) == want
            got = large_margin_mechanism(u, budget, NoiseSource(0, zero_override=True), cap=cap)
            want = _eager_lmm(u, budget, NoiseSource(0, zero_override=True), cap=cap)
            assert (got.item, got.ell, got.m, got.certified) == want


def test_lmm_runs_stay_aligned_on_a_shared_stream():
    # an audit shard runs its 1,024 trials on one source, so each LMM run must
    # consume exactly the draws the eager reference does, or every later run
    # in the shard drifts; same cases and budgets as the fresh-source test
    n, alpha, delta = 500, 1.0, 0.05
    t1 = compute_thresholds(n, alpha, delta, 1).T
    t2 = compute_thresholds(n, alpha, delta, 2).T
    rng = random.Random(43)
    cases = [
        (QualityUniverse.dense([rng.randint(0, 50) / 50 for _ in range(12)], n=50), None),
        (QualityUniverse.dense([1.0, 1.0 - t1, 1.0 - t2] + [0.1] * 5, n=n), None),
        (QualityUniverse.sparse([0.9, 0.85, 0.8, 0.3], k=10**9, n=100), None),
        (QualityUniverse.sparse([0.1], k=100, n=10), None),
        (QualityUniverse.dense([0.6, 0.58, 0.57, 0.56] + [0.5] * 16, n=40), 5),
        (QualityUniverse.dense([0.0, -0.0, 0.0, -0.0], n=100), None),
    ]
    for budget in (PrivacyBudget(alpha, delta), PrivacyBudget(0.5, 0.1)):
        for u, cap in cases:
            for zero in (False, True):
                shared, reference = NoiseSource(9, zero_override=zero), NoiseSource(9, zero_override=zero)
                got = []
                for _ in range(200):
                    out = large_margin_mechanism(u, budget, shared, cap=cap)
                    got.append((out.item, out.ell, out.m, out.certified))
                want = [_eager_lmm(u, budget, reference, cap=cap) for _ in range(200)]
                assert got == want


def _eager_lmm_paths(fresh, budget, caps, head):
    """(cap, zero_override, ell) of bound runs on one plan, which must equal
    the eager reference's, as direct calls must. Every caller gets a fresh
    universe, and bind sorts a head of ``head`` ranks."""
    key = lambda out: (out.item, out.ell, out.m, out.certified)  # noqa: E731
    paths = set()
    for cap in caps:
        for zero in (False, True):
            runs = 2 if zero else 24
            u = fresh()
            run = build_mechanism("lmm", budget, cap=cap).bind(u)
            assert len(u._sorted) == head
            shared, reference = NoiseSource(11, zero_override=zero), NoiseSource(11, zero_override=zero)
            got = [key(run(shared)) for _ in range(runs)]
            assert got == [_eager_lmm(fresh(), budget, reference, cap=cap) for _ in range(runs)]
            for seed in range(runs // 4 or 1):
                direct = large_margin_mechanism(fresh(), budget, NoiseSource(seed, zero_override=zero), cap=cap)
                want = _eager_lmm(fresh(), budget, NoiseSource(seed, zero_override=zero), cap=cap)
                assert key(direct) == want
            paths.update((cap, zero, ell) for _, ell, _, _ in got)
    return paths


def test_lmm_matches_eager_reference_past_the_head():
    k, n = 2000, 2000
    for budget in (PrivacyBudget(1.0, 0.05), PrivacyBudget(0.5, 0.1)):
        T = lambda n, r: compute_thresholds(n, budget.alpha, budget.delta, r).T  # noqa: E731
        # shuffled distinct values, so bind sorts a head of exactly 256 ranks.
        # The top 256 sit T(256) above the next 344, and the 600 sit far above
        # the rest, so a sampled search certifies at rank 256, whose f(257) is
        # read past the head, or a little further down, from the grown head;
        # under zero noise it scans to rank 600. Each caller's first run
        # crosses the boundary itself, and the plan's later runs read the
        # grown head
        rng = random.Random(45)
        vals = [0.9 - rng.random() * 20 / n for _ in range(256)]
        vals += [0.9 - T(n, 256) - rng.random() * 20 / n for _ in range(344)]
        vals += [0.9 - T(n, 600) - (100 + rng.random() * 1000) / n for _ in range(k - 600)]
        rng.shuffle(vals)
        paths = _eager_lmm_paths(lambda: QualityUniverse.dense(vals, n=n), budget, (None, 400, 257), 256)
        assert {(None, False, 256), (257, False, 256), (257, False, None)} <= paths
        assert any(cap is None and not zero and 256 < ell < 600 for cap, zero, ell in paths)
        assert {ell for cap, zero, ell in paths if zero} == {600, None}
        # a sparse universe's head is its explicit values, and the ranks past
        # it read the fill value, which sits just under T(4) below the top:
        # searches certify in the fill run, exhaust an explicit cap past L+1,
        # or, with cap k, scan to k
        m = 500
        top = [0.9, 0.9 - 5 / m, 0.9 - 10 / m, 0.9 - 15 / m]
        fill = 0.9 - T(m, 4) + 15 / m
        paths = _eager_lmm_paths(lambda: QualityUniverse.sparse(top, k=300, n=m, fill=fill), budget,
                                 (None, 40, 300), 4)
        assert {(40, False, None), (300, False, 300), (300, True, 300)} <= paths
        assert any(cap == 40 and 4 < (ell or 0) < 40 for cap, _, ell in paths)


def test_lmm_sorts_only_the_prefix_it_reads():
    # a planted 1,500-item cluster far above the rest: the search certifies
    # near rank 1,500, and the dense universe never sorts all k items
    k, n, cluster = 200_000, 20_000, 1_500
    rng = random.Random(44)
    vals = [0.9 - rng.randint(0, 60) / n for _ in range(cluster)]
    vals += [0.5 - rng.randint(0, n // 3) / n for _ in range(k - cluster)]
    rng.shuffle(vals)
    u = QualityUniverse.dense(vals, n=n)
    out = large_margin_mechanism(u, PrivacyBudget(1.0, 0.05), NoiseSource(5))
    assert out.certified and out.ell <= cluster
    assert u.value(out.item) > 0.8
    assert len(u._ids_desc) < u.k


def test_lmm_grows_a_large_dense_head_once(monkeypatch):
    # the pac shape at k = 120,000: a 1,000-item cluster far above the rest,
    # so the search certifies near rank 1,000, below k/64 = 1,875, and the
    # first growth already covers every rank it reads
    k, n, cluster = 120_000, 20_000, 1_000
    rng = random.Random(46)
    vals = [0.9 - rng.randint(0, 60) / n for _ in range(cluster)]
    vals += [0.5 - rng.randint(0, n // 3) / n for _ in range(k - cluster)]
    rng.shuffle(vals)
    growths = []
    descending = QualityUniverse._descending

    def counting(u, m):
        growths.append(m)
        return descending(u, m)

    monkeypatch.setattr(QualityUniverse, "_descending", counting)
    for seed in (5, 6, 7):
        u = QualityUniverse.dense(vals, n=n)
        growths.clear()
        out = large_margin_mechanism(u, PrivacyBudget(1.0, 0.05), NoiseSource(seed))
        assert out.certified and out.ell <= k // 64
        assert len(growths) == 1
        # ties at the k/64-th value may lengthen the head, never to all k
        assert k // 64 <= len(u._sorted) < k
