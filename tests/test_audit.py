"""Audit harness: distribution estimation, DP checks, adversarial families."""

import csv
import errno
import json
import math
import os
import random
import warnings
from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest

from privmax import (
    AuditReport,
    MechanismOutcome,
    NeighborPair,
    NoiseSource,
    PrivacyBudget,
    QualityUniverse,
    build_lb2_family,
    build_mechanism,
    build_threshold_example,
    check_approx_dp,
    check_group_privacy,
    compute_thresholds,
    dp_outcome_checks,
    em_expected_gap,
    estimate_distribution,
    group_outcome_checks,
    hoeffding_slack,
    lb2_delta_bound,
    large_margin_mechanism,
    max_of_laplaces,
    order_stat,
    top_set,
)
from privmax import audit, mechanisms
from privmax.audit import _SHARD_TRIALS
from oracles import exact_selection_weights, satisfies_margin, tv_distance


def argmax_mechanism(u, src):
    # intentionally non-private: deterministic argmax, used to force violations
    return MechanismOutcome(item=top_set(u, 1)[0], budget=PrivacyBudget(1.0))


class TestHoeffdingSlack:
    def test_formula(self):
        assert hoeffding_slack(10_000, 0.99) == pytest.approx(
            math.sqrt(math.log(200.0) / 20_000.0)
        )

    def test_decreases_with_trials(self):
        assert hoeffding_slack(10**6) < hoeffding_slack(10**4)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_slack(0)
        with pytest.raises(ValueError):
            hoeffding_slack(100, 1.0)


class TestEstimateDistribution:
    def test_deterministic_mechanism_point_mass(self):
        u = QualityUniverse.dense([0.9, 0.3, 0.1], n=10)
        freqs = estimate_distribution(argmax_mechanism, u, trials=500, seed=0)
        assert freqs == {1: 1.0}

    def test_zero_override_unique_max_point_mass(self):
        u = QualityUniverse.dense([0.2, 0.9, 0.4], n=10)
        mech = build_mechanism("mol", PrivacyBudget(1.0))
        freqs = estimate_distribution(mech, u, trials=200, seed=0, zero_override=True)
        assert freqs == {2: 1.0}

    def test_equal_values_near_uniform(self):
        u = QualityUniverse.dense([0.5] * 4, n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        freqs = estimate_distribution(mech, u, trials=100_000, seed=3)
        for i in range(1, 5):
            assert freqs[i] == pytest.approx(0.25, abs=0.01)
        assert sum(freqs.values()) == pytest.approx(1.0)

    def test_em_matches_oracle_tv(self):
        values = [0.8, 0.6, 0.2]
        u = QualityUniverse.dense(values, n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        freqs = estimate_distribution(mech, u, trials=100_000, seed=7)
        assert tv_distance(freqs, exact_selection_weights(values, 10, 1.0)) < 0.01

    def test_fail_is_an_outcome(self):
        u = QualityUniverse.dense([0.5, 0.5], n=100)
        mech = build_mechanism("st13", PrivacyBudget(1.0, 0.05))
        freqs = estimate_distribution(mech, u, trials=2000, seed=11)
        assert freqs.get("fail", 0.0) > 0.9

    def test_trials_validation(self):
        u = QualityUniverse.dense([0.5], n=10)
        with pytest.raises(ValueError):
            estimate_distribution(argmax_mechanism, u, trials=0, seed=0)

    def test_nearby_seeds_give_independent_estimates(self):
        # seed XOR trial made seeds 0..3 draw the same set of trial streams
        u = QualityUniverse.dense([0.5] * 4, n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        estimates = [
            tuple(sorted(estimate_distribution(mech, u, 1000, seed).items()))
            for seed in range(4)
        ]
        assert len(set(estimates)) == 4

    def test_shards_replay_from_spawned_streams(self):
        u = QualityUniverse.dense([0.5, 0.45, 0.4, 0.1], n=10)
        mech = build_mechanism("lmm", PrivacyBudget(1.0, 0.05))
        trials = 2 * _SHARD_TRIALS + 5
        base = NoiseSource(17)
        counts = {}
        for shard, size in enumerate((_SHARD_TRIALS, _SHARD_TRIALS, 5)):
            src = base.spawn(shard)
            for _ in range(size):
                key = mech(u, src)[0]
                counts[key] = counts.get(key, 0) + 1
        replay = {key: c / trials for key, c in counts.items()}
        assert estimate_distribution(mech, u, trials, 17) == replay


def _on_cores(monkeypatch, cores):
    monkeypatch.setattr(audit, "_usable_cores", lambda: cores)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _conditional_estimate(mech, u, trials, seed):
    """The conditional estimate, shard by shard: the ell of each of a shard's
    runs of the plan's searches on ``NoiseSource(seed).spawn(shard)``, then
    the plan's law of the ell frequencies."""
    plan = mech.bind(u)
    counts = Counter()
    for shard in range(-(-trials // _SHARD_TRIALS)):
        size = min(_SHARD_TRIALS, trials - shard * _SHARD_TRIALS)
        counts.update(ell for _, ell in islice(plan.searches(NoiseSource(seed).spawn(shard)), size))
    return plan.law({ell: c / trials for ell, c in counts.items()})


def _assert_within(report, other, tolerance):
    """Two audits of one pair and mechanism estimate the same law: each
    outcome's p on each side differs by at most ``tolerance``, and the
    verdicts agree."""
    ps = {c.outcome: (c.p_left, c.p_right) for c in report.checks}
    others = {c.outcome: (c.p_left, c.p_right) for c in other.checks}
    for key in set(ps) | set(others):
        for p, q in zip(ps.get(key, (0.0, 0.0)), others.get(key, (0.0, 0.0))):
            assert abs(p - q) <= tolerance, (key, p, q, tolerance)
    assert report.passed == other.passed


def _fork_fails_from_second_call(monkeypatch):
    """Make ``os.fork`` raise EAGAIN from its second call on; returns the
    list that records each call, which a clear() resets."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, "no process left")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestFanOut:
    """Shards run on max(1, min(cores, shards // 8)) processes; the counts
    must not depend on how many."""

    LEFT = QualityUniverse.dense([0.5, 0.45, 0.4, 0.1], n=10)
    RIGHT = QualityUniverse.dense([0.45, 0.5, 0.35, 0.15], n=10)

    @pytest.mark.parametrize("zero_override", [False, True])
    def test_estimate_equal_for_one_and_three_workers(self, monkeypatch, zero_override):
        mech = build_mechanism("lmm", PrivacyBudget(1.0, 0.05))
        runs = []
        for cores in (1, 3):
            _on_cores(monkeypatch, cores)
            runs.append(estimate_distribution(mech, self.LEFT, 50_000, 23, zero_override))
        serial, forked = runs
        assert forked == serial
        assert list(forked) == list(serial)  # the same key order, too
        _assert_no_child_left()

    def test_audit_checks_equal_for_one_and_three_workers(self, monkeypatch):
        pair = NeighborPair(self.LEFT, self.RIGHT)
        budget = PrivacyBudget(1.0, 0.05)
        mechs = [build_mechanism("lmm", budget),
                 lambda u, src: max_of_laplaces(u, budget.alpha, src)]
        for mech in mechs:
            reports = []
            for cores in (1, 3):
                _on_cores(monkeypatch, cores)
                reports.append(check_approx_dp(pair, mech, budget, 12 * _SHARD_TRIALS, seed=9))
            serial, forked = reports
            assert forked.checks == serial.checks
            assert (serial.metadata["workers"], forked.metadata["workers"]) == (1, 3)
        _assert_no_child_left()

    def _failing_in_workers(self, failure):
        """An em run that fails in any process but this one, by raising or by
        exiting without a word, and the list of the runs made here."""
        parent, mech, here = os.getpid(), build_mechanism("em", PrivacyBudget(1.0)), []

        def run(u, src):
            if os.getpid() != parent:
                if failure == "raises":
                    raise ArithmeticError("only in a worker")
                os._exit(0)
            here.append(1)
            return mech(u, src)

        return run, here

    def test_worker_only_failure_is_counted_in_parent(self, monkeypatch):
        # both workers' children raise, so their shards are counted here
        mech, here = self._failing_in_workers("raises")
        _on_cores(monkeypatch, 1)
        serial = estimate_distribution(mech, self.LEFT, 24 * _SHARD_TRIALS, 5)
        _on_cores(monkeypatch, 3)
        here.clear()
        forked = estimate_distribution(mech, self.LEFT, 24 * _SHARD_TRIALS, 5)
        assert len(here) == 24 * _SHARD_TRIALS
        assert forked == serial and list(forked) == list(serial)
        _assert_no_child_left()

    def test_worker_that_sends_nothing_is_counted_in_parent(self, monkeypatch):
        mech, here = self._failing_in_workers("exits")
        _on_cores(monkeypatch, 1)
        serial = estimate_distribution(mech, self.LEFT, 16 * _SHARD_TRIALS, 6)
        _on_cores(monkeypatch, 2)
        here.clear()
        forked = estimate_distribution(mech, self.LEFT, 16 * _SHARD_TRIALS, 6)
        assert len(here) == 16 * _SHARD_TRIALS
        assert forked == serial and list(forked) == list(serial)
        _assert_no_child_left()

    def test_fork_failure_is_counted_in_parent(self, monkeypatch):
        # the first fork succeeds and the second raises, so of three parts
        # one runs in a child and two run here
        mech = build_mechanism("lmm", PrivacyBudget(1.0, 0.05))
        pair = NeighborPair(self.LEFT, self.RIGHT)
        _on_cores(monkeypatch, 1)
        serial = estimate_distribution(mech, self.LEFT, 24 * _SHARD_TRIALS, 7)
        serial_report = check_approx_dp(pair, mech, PrivacyBudget(1.0, 0.05), 12 * _SHARD_TRIALS, seed=7)
        _on_cores(monkeypatch, 3)
        forks = _fork_fails_from_second_call(monkeypatch)
        forked = estimate_distribution(mech, self.LEFT, 24 * _SHARD_TRIALS, 7)
        assert len(forks) == 2
        assert forked == serial and list(forked) == list(serial)
        _assert_no_child_left()
        forks.clear()
        report = check_approx_dp(pair, mech, PrivacyBudget(1.0, 0.05), 12 * _SHARD_TRIALS, seed=7)
        assert len(forks) == 2
        assert report.checks == serial_report.checks
        # of the three parts, one ran in a child: two processes counted
        assert report.metadata["workers"] == 2
        _assert_no_child_left()

    def test_unsendable_key_is_counted_in_parent(self, monkeypatch):
        # a child cannot marshal this key, so it sends nothing and every
        # shard is counted here: one process counted, whatever the fork width
        class Key:
            def __init__(self, item):
                self.item = item

            def __eq__(self, other):
                return isinstance(other, Key) and other.item == self.item

            def __hash__(self):
                return hash(self.item)

            def __repr__(self):  # the checks' order is the keys' str order
                return f"Key({self.item})"

        em = build_mechanism("em", PrivacyBudget(1.0))

        def mech(u, src):
            return (Key(em(u, src).item),)

        pair = NeighborPair(self.LEFT, self.RIGHT)
        _on_cores(monkeypatch, 1)
        serial = check_approx_dp(pair, mech, PrivacyBudget(1.0), 16 * _SHARD_TRIALS, seed=10)
        _on_cores(monkeypatch, 2)
        report = check_approx_dp(pair, mech, PrivacyBudget(1.0), 16 * _SHARD_TRIALS, seed=10)
        assert report.checks == serial.checks
        assert (serial.metadata["workers"], report.metadata["workers"]) == (1, 1)
        # the report says so: of its two parts, one was counted again here
        assert serial.warnings == []
        assert report.warnings == ["1 of 2 fan-out parts were counted again in the calling process: their "
                                   "fork failed or their worker sent nothing readable (say, an outcome that "
                                   "marshal cannot send)"]
        _assert_no_child_left()

    def test_parent_failure_keeps_its_type_and_reaps_workers(self, monkeypatch):
        _on_cores(monkeypatch, 3)
        parent = os.getpid()

        def mech(u, src):
            if os.getpid() == parent:
                raise ArithmeticError("only in the parent")
            return argmax_mechanism(u, src)

        with pytest.raises(ArithmeticError, match="only in the parent"):
            estimate_distribution(mech, self.LEFT, 24 * _SHARD_TRIALS, 0)
        _assert_no_child_left()

    def test_forked_path_raises_no_warning(self, monkeypatch):
        _on_cores(monkeypatch, 2)
        pair = NeighborPair(self.LEFT, self.RIGHT)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_approx_dp(pair, mech, PrivacyBudget(1.0), 8 * _SHARD_TRIALS, seed=4)
        assert report.metadata["workers"] == 2

    def test_few_shards_never_fork(self, monkeypatch):
        _on_cores(monkeypatch, 2)

        def no_fork():
            raise AssertionError("forked under 8 shards")

        monkeypatch.setattr(os, "fork", no_fork)
        freqs = estimate_distribution(argmax_mechanism, self.LEFT, 1000, 0)
        assert freqs == {1: 1.0}

    def test_no_fork_runs_in_process(self, monkeypatch):
        _on_cores(monkeypatch, 2)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        forked = estimate_distribution(mech, self.LEFT, 16 * _SHARD_TRIALS, 8)
        monkeypatch.delattr(os, "fork")
        assert estimate_distribution(mech, self.LEFT, 16 * _SHARD_TRIALS, 8) == forked
        pair = NeighborPair(self.LEFT, self.RIGHT)
        report = check_approx_dp(pair, mech, PrivacyBudget(1.0), 16 * _SHARD_TRIALS, seed=8)
        assert report.metadata["workers"] == 1


class CountingBinds:
    """A registered mechanism that records the process of every bind."""

    def __init__(self, mech):
        self.mech = mech
        self.binds = []

    def __call__(self, u, src):
        return self.mech(u, src)

    def bind(self, u):
        self.binds.append((os.getpid(), u))
        return self.mech.bind(u)


class TestBinding:
    """An audit binds each job's mechanism once, before it forks, and a
    bound run counts exactly what per-trial calls count."""

    LEFT, RIGHT = TestFanOut.LEFT, TestFanOut.RIGHT

    @pytest.mark.parametrize("cores", [1, 3])
    def test_binds_once_per_job_in_the_parent(self, monkeypatch, cores):
        _on_cores(monkeypatch, cores)
        mech = CountingBinds(build_mechanism("lmm", PrivacyBudget(1.0, 0.05)))
        report = check_approx_dp(NeighborPair(self.LEFT, self.RIGHT), mech, PrivacyBudget(1.0, 0.05),
                                 12 * _SHARD_TRIALS, seed=3)
        assert report.metadata["workers"] == cores
        assert mech.binds == [(os.getpid(), self.LEFT), (os.getpid(), self.RIGHT)]
        estimate_distribution(mech, self.LEFT, 12 * _SHARD_TRIALS, 3)
        assert len(mech.binds) == 3
        _assert_no_child_left()

    def test_bind_error_raises_in_the_parent(self, monkeypatch):
        # a pure budget cannot run lmm: the bind refuses it before any fork
        _on_cores(monkeypatch, 3)
        mech = build_mechanism("lmm", PrivacyBudget(1.0))
        with pytest.raises(ValueError, match="requires delta"):
            estimate_distribution(mech, self.LEFT, 24 * _SHARD_TRIALS, 0)
        _assert_no_child_left()

    @pytest.mark.parametrize("name", ["em", "mol", "st13", "lmm"])
    def test_bound_and_bindless_mechanisms_estimate_alike(self, monkeypatch, name):
        budget = PrivacyBudget(1.0, 0.05)
        mech = build_mechanism(name, budget, cap=3 if name == "lmm" else None)
        assert hasattr(mech.bind(self.LEFT), "runs")  # shards iterate the plan
        plain = lambda u, src: mech(u, src)  # noqa: E731  (no bind attribute, so one call per trial)
        pair = NeighborPair(self.LEFT, self.RIGHT)
        jobs = [(self.LEFT, 12 * _SHARD_TRIALS + 7, 5), (self.RIGHT, 12 * _SHARD_TRIALS + 7, 6)]
        for cores in (1, 3):
            _on_cores(monkeypatch, cores)
            bound, _, _ = audit._estimate_jobs([(mech, u, t, s, False) for u, t, s in jobs])
            bindless, _, _ = audit._estimate_jobs([(plain, u, t, s, False) for u, t, s in jobs])
            assert [list(p.items()) for p in bound] == [list(p.items()) for p in bindless]
            reports = [check_approx_dp(pair, m, budget, 12 * _SHARD_TRIALS, seed=9) for m in (mech, plain)]
            if name == "lmm":
                # the bound plan's audit is conditional, the bindless one
                # samples stage 3 too: two estimates of one law, each within
                # its slack of it, with the same verdict
                assert [r.metadata["estimator"] for r in reports] == ["conditional", "sampled"]
                _assert_within(*reports, reports[0].slack + reports[1].slack)
            else:
                assert reports[0].checks == reports[1].checks
        _assert_no_child_left()


def _sampled(mech):
    """``mech`` whose bound plan shows its ``releases`` loop but not its
    ``searches``, so an audit of it samples all three LMM stages."""
    return SimpleNamespace(bind=lambda u: SimpleNamespace(releases=mech.bind(u).releases))


def _certified_search_pair():
    """CI's certified-search pair: n = 500, the left side's top gaps at T(1)
    and T(2), and the right side's item 1 down and the rest up by 1/n."""
    n = 500
    t1, t2 = (compute_thresholds(n, 1.0, 0.05, r).T for r in (1, 2))
    left = [0.9, 0.9 - t1, 0.9 - t2, 0.4, 0.35, 0.3, 0.25, 0.2]
    right = [left[0] - 1 / n] + [v + 1 / n for v in left[1:]]
    return NeighborPair(QualityUniverse.dense(left, n=n), QualityUniverse.dense(right, n=n))


class TestConditionalAudit:
    """An audit of a bound LMM plan on at most as many items as trials
    samples only the margin search, counts ell, and takes stage 3 from its
    exact law; every other mechanism, and an LMM run that no plan makes,
    keeps sampling whole runs."""

    @pytest.mark.parametrize("case", ["certified-search", "criterion-3"])
    def test_agrees_with_a_sampled_audit_at_four_times_the_trials(self, case):
        if case == "certified-search":
            pair, budget, seed = _certified_search_pair(), PrivacyBudget(1.0, 0.05), 1
        else:
            pair = NeighborPair(QualityUniverse.dense([1.0, 0.3, 0.2, 0.1], n=10),
                                QualityUniverse.dense([0.9, 0.4, 0.3, 0.2], n=10))
            budget, seed = PrivacyBudget(0.5, 0.05), 31
        mech, trials = build_mechanism("lmm", budget), 20_000
        report = check_approx_dp(pair, mech, budget, trials, seed=seed)
        sampled = check_approx_dp(pair, _sampled(mech), budget, 4 * trials, seed=seed)
        assert (report.metadata["estimator"], sampled.metadata["estimator"]) == ("conditional", "sampled")
        # every conditional p lies within the sampled audit's slack of its p,
        # the verdicts agree, and every sampled outcome has a positive law
        _assert_within(report, sampled, sampled.slack)
        assert {c.outcome for c in sampled.checks} <= {c.outcome for c in report.checks}
        ells = report.metadata["ell_counts"]
        assert list(ells) == ["left", "right"]
        for counts in ells.values():
            assert sum(counts.values()) == trials
            assert list(counts) == sorted(counts, key=lambda ell: ell or math.inf)
            if case == "certified-search":  # at least two ranks below k hold 5 % of the runs each
                assert sum(c >= 0.05 * trials for ell, c in counts.items() if ell and ell < 8) >= 2

    @pytest.mark.parametrize("case", ["em", "mol", "st13", "bindless", "wrapped", "k>trials"])
    def test_other_runs_keep_the_sampled_estimate(self, monkeypatch, case):
        budget, trials = PrivacyBudget(1.0, 0.05), 2000
        pair = NeighborPair(TestFanOut.LEFT, TestFanOut.RIGHT)
        if case in ("em", "mol", "st13"):
            mech = build_mechanism(case, budget)
        elif case == "bindless":
            lmm = build_mechanism("lmm", budget)
            mech = lambda u, src: lmm(u, src)  # noqa: E731
        elif case == "wrapped":
            # a profiler's wrapper on the module-level function: bind calls it once per run
            monkeypatch.setattr(mechanisms, "large_margin_mechanism",
                                lambda u, b, src, cap=None: large_margin_mechanism(u, b, src, cap))
            mech = build_mechanism("lmm", budget)
        else:
            left = QualityUniverse.sparse([0.5, 0.45, 0.4], k=trials + 1, n=10)
            pair = NeighborPair(left, QualityUniverse.sparse([0.45, 0.4, 0.35], k=trials + 1, n=10))
            mech = build_mechanism("lmm", budget)
            # at k = trials the same plan is estimated conditionally
            at_k = check_approx_dp(pair, mech, budget, trials + 1, seed=3)
            assert at_k.metadata["estimator"] == "conditional"
        report = check_approx_dp(pair, mech, budget, trials, seed=3)
        assert (report.metadata["estimator"], report.metadata["ell_counts"]) == ("sampled", None)
        # the sampled estimate: the item frequencies of whole runs
        p_left = estimate_distribution(mech, pair.left, trials, 3)
        assert {c.outcome: c.p_left for c in report.checks if c.p_left} == p_left


class TestNeighborPair:
    def test_valid_pair(self):
        left = QualityUniverse.dense([0.5, 0.4], n=10)
        right = QualityUniverse.dense([0.45, 0.5], n=10)
        NeighborPair(left, right, "hand-built")

    def test_violating_pair_rejected(self):
        left = QualityUniverse.dense([0.5, 0.4], n=10)
        right = QualityUniverse.dense([0.75, 0.4], n=10)
        with pytest.raises(ValueError):
            NeighborPair(left, right)

    def test_shape_mismatch_rejected(self):
        a = QualityUniverse.dense([0.5, 0.4], n=10)
        b = QualityUniverse.dense([0.5, 0.4, 0.3], n=10)
        c = QualityUniverse.dense([0.5, 0.4], n=20)
        with pytest.raises(ValueError):
            NeighborPair(a, b)
        with pytest.raises(ValueError):
            NeighborPair(a, c)

    def test_sparse_pair(self):
        left = QualityUniverse.sparse([0.5, 0.3], k=1000, n=10)
        right = QualityUniverse.sparse([0.45, 0.35, 0.1], k=1000, n=10)
        NeighborPair(left, right)
        bad = QualityUniverse.sparse([0.8], k=1000, n=10)
        with pytest.raises(ValueError):
            NeighborPair(left, bad)

    def test_sparse_fill_mismatch(self):
        left = QualityUniverse.sparse([0.5], k=10, n=10, fill=0.0)
        right = QualityUniverse.sparse([0.5], k=10, n=10, fill=0.05)
        with pytest.raises(ValueError):
            NeighborPair(left, right)

    def test_mixed_dense_sparse_pair(self):
        sparse = QualityUniverse.sparse([0.5, 0.3], k=5, n=10)
        near = QualityUniverse.dense([0.45, 0.35, 0.05, 0.0, 0.1], n=10)
        NeighborPair(sparse, near)
        NeighborPair(near, sparse)
        # item 5 lies in the sparse universe's fill block
        far = QualityUniverse.dense([0.5, 0.3, 0.0, 0.0, 0.25], n=10)
        for left, right in ((sparse, far), (far, sparse)):
            with pytest.raises(ValueError, match="item 5 moves"):
                NeighborPair(left, right)

    def test_positional_and_keyword_forms(self):
        left = QualityUniverse.dense([0.5, 0.4], n=10)
        right = QualityUniverse.dense([0.45, 0.5], n=10)
        pair = NeighborPair(left, right, "hand-built")
        assert pair == NeighborPair(left=left, right=right, provenance="hand-built")
        assert hash(pair) == hash(NeighborPair(left, right=right, provenance="hand-built"))
        assert NeighborPair(left, right).provenance == ""
        assert tuple(pair) == (left, right, "hand-built")

    def test_frozen(self):
        pair = NeighborPair(QualityUniverse.dense([0.5], n=10), QualityUniverse.dense([0.45], n=10))
        with pytest.raises(AttributeError):
            pair.provenance = "changed"

    def test_make_and_replace_validate(self):
        left = QualityUniverse.dense([0.5, 0.4], n=10)
        right = QualityUniverse.dense([0.45, 0.5], n=10)
        bad = QualityUniverse.dense([0.75, 0.4], n=10)
        pair = NeighborPair(left, right)
        with pytest.raises(ValueError, match="item 1 moves"):
            pair._replace(right=bad)
        with pytest.raises(ValueError, match="share k and n"):
            NeighborPair._make((left, QualityUniverse.dense([0.5], n=10), ""))
        assert pair._replace(provenance="x") == NeighborPair(left, right, "x")


class TestDpOutcomeChecks:
    def test_identical_distributions_always_pass(self):
        p = {1: 0.4, 2: 0.6}
        for alpha, delta in [(0.1, 0.0), (1.0, 0.0), (0.5, 0.2)]:
            assert all(c.passed for c in dp_outcome_checks(p, p, alpha, delta))

    def test_point_mass_versus_absent_is_violation(self):
        checks = dp_outcome_checks({1: 1.0}, {2: 1.0}, alpha=1.0, delta=0.0)
        failed = [c for c in checks if not c.passed]
        assert failed
        assert any(c.outcome == 1 and c.direction == "left_vs_right" for c in failed)

    def test_delta_absorbs_point_mass(self):
        checks = dp_outcome_checks({1: 0.05, 2: 0.95}, {2: 1.0}, alpha=1.0, delta=0.05)
        assert all(c.passed for c in checks)

    def test_exact_pure_dp_of_exponential_mechanism(self):
        # extremal neighbor pair at n = 10: the exact distributions respect
        # e^alpha with delta = 0 at the mechanism's own alpha...
        n, alpha = 10, 1.0
        left_vals = [0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
        right_vals = [0.0, 0.1, 0.1, 0.1, 0.1, 0.1]
        p_left = exact_selection_weights(left_vals, n, alpha)
        p_right = exact_selection_weights(right_vals, n, alpha)
        assert all(c.passed for c in dp_outcome_checks(p_left, p_right, alpha, 0.0))
        # ...but fail when a strictly smaller alpha is claimed
        weaker = dp_outcome_checks(p_left, p_right, 0.7, 0.0)
        assert any(not c.passed for c in weaker)

    def test_restricted_leakage_bounded_by_beta(self):
        # margin width gamma >= (2/n)(1 + ln(ell/beta)/alpha) caps the
        # per-outcome leakage of the top-ell restriction at beta, even when
        # the top set's membership changes across the pair
        n, alpha, ell, beta = 50, 1.0, 2, 0.1
        gamma = (2.0 / n) * (1.0 + math.log(ell / beta) / alpha)
        left_vals = [0.9, 0.5, 0.49, 0.3, 0.1]
        right_vals = [0.9, 0.49, 0.5, 0.3, 0.1]
        left = QualityUniverse.dense(left_vals, n=n)
        right = QualityUniverse.dense(right_vals, n=n)
        NeighborPair(left, right)
        assert satisfies_margin(left, ell, gamma)
        p_left = exact_selection_weights(left_vals, n, alpha, support=top_set(left, ell))
        p_right = exact_selection_weights(right_vals, n, alpha, support=top_set(right, ell))
        checks = dp_outcome_checks(p_left, p_right, alpha, beta)
        assert all(c.passed for c in checks if c.direction == "left_vs_right")
        # the beta term is doing real work: item 2 leaks with zero mass across
        assert p_left[2] > math.exp(alpha) * p_right.get(2, 0.0)


class TestCheckApproxDp:
    def test_identical_pair_passes(self):
        u = QualityUniverse.dense([0.6, 0.4, 0.2], n=10)
        pair = NeighborPair(u, u, "left = right")
        mech = build_mechanism("em", PrivacyBudget(0.5))
        report = check_approx_dp(pair, mech, PrivacyBudget(0.5), trials=5000, seed=1)
        assert report.passed
        assert report.kind == "approx_dp"

    def test_non_private_mechanism_flagged(self):
        left = QualityUniverse.dense([0.55, 0.45], n=10)
        right = QualityUniverse.dense([0.45, 0.55], n=10)
        pair = NeighborPair(left, right, "argmax flips across the pair")
        report = check_approx_dp(pair, argmax_mechanism, PrivacyBudget(1.0), trials=2000, seed=2)
        assert not report.passed
        assert report.violations

    def test_em_passes_at_its_own_alpha(self):
        left = QualityUniverse.dense([0.6, 0.5, 0.3], n=10)
        right = QualityUniverse.dense([0.5, 0.6, 0.4], n=10)
        pair = NeighborPair(left, right)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        report = check_approx_dp(pair, mech, PrivacyBudget(1.0), trials=50_000, seed=3)
        assert report.passed

    def test_metadata_reports_the_run(self):
        u = QualityUniverse.dense([0.6, 0.4], n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        report = check_approx_dp(NeighborPair(u, u, "same"), mech, PrivacyBudget(1.0),
                                 trials=3000, seed=1)
        meta = report.metadata
        assert list(meta) == ["provenance", "seed", "workers", "wall_s", "trials_per_s", "estimator",
                              "ell_counts"]
        assert (meta["provenance"], meta["seed"], meta["workers"]) == ("same", 1, 1)
        assert meta["trials_per_s"] == pytest.approx(2 * 3000 / meta["wall_s"])
        assert (meta["estimator"], meta["ell_counts"]) == ("sampled", None)

    def test_small_trials_warn(self):
        u = QualityUniverse.dense([0.5, 0.5], n=10)
        pair = NeighborPair(u, u)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        report = check_approx_dp(pair, mech, PrivacyBudget(1.0), trials=50, seed=0)
        assert report.warnings

    @pytest.mark.parametrize("seed", [2**64 - 2**32, 2**64 - 1])
    def test_seeds_up_to_2_64_audit(self, seed):
        # the right side's seed wraps mod 2^64 instead of leaving the seed range
        pair = NeighborPair(TestFanOut.LEFT, TestFanOut.RIGHT)
        budget = PrivacyBudget(1.0, 0.05)
        mech = build_mechanism("lmm", budget)
        report = check_approx_dp(pair, mech, budget, 2000, seed=seed)
        p_left = _conditional_estimate(mech, pair.left, 2000, seed)
        p_right = _conditional_estimate(mech, pair.right, 2000, seed + 2**32 - 2**64)
        assert report.checks == dp_outcome_checks(p_left, p_right, 1.0, 0.05, report.slack)


class TestCheckGroupPrivacy:
    def test_zero_steps_reduces_to_equality(self):
        u = QualityUniverse.dense([0.7, 0.3], n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0, 0.05))
        report = check_group_privacy(
            u, u, 0, mech, PrivacyBudget(1.0, 0.05), trials=20_000, seed=4
        )
        assert report.passed
        assert report.group_size == 0

    def test_metadata_reports_the_run(self):
        u = QualityUniverse.dense([0.7, 0.3], n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        report = check_group_privacy(u, u, 0, mech, PrivacyBudget(1.0), trials=3000, seed=2,
                                     provenance="same")
        meta = report.metadata
        assert list(meta) == ["provenance", "seed", "workers", "wall_s", "trials_per_s", "estimator",
                              "ell_counts"]
        assert meta["workers"] == 1 and meta["wall_s"] > 0.0
        assert meta["trials_per_s"] == pytest.approx(2 * 3000 / meta["wall_s"])
        assert (meta["estimator"], meta["ell_counts"]) == ("sampled", None)

    def test_single_step_matches_dp_reverse_orientation(self):
        left = QualityUniverse.dense([0.6, 0.5, 0.3], n=10)
        right = QualityUniverse.dense([0.5, 0.6, 0.4], n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        report = check_group_privacy(
            left, right, 1, mech, PrivacyBudget(1.0), trials=50_000, seed=5
        )
        assert report.passed

    def test_exact_group_lower_bound(self):
        n, alpha, k = 10, 1.0, 2
        left_vals = [0.6, 0.5, 0.5]
        right_vals = [0.5, 0.6, 0.4]  # two record changes away
        p_left = exact_selection_weights(left_vals, n, alpha)
        p_right = exact_selection_weights(right_vals, n, alpha)
        assert all(c.passed for c in group_outcome_checks(p_left, p_right, k, alpha, 0.0))

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            group_outcome_checks({1: 1.0}, {1: 1.0}, -1, 1.0, 0.0)

    def test_group_size_checked_before_estimating(self, monkeypatch):
        def no_estimate(jobs):
            raise AssertionError("estimated before checking the group size")

        monkeypatch.setattr(audit, "_estimate_jobs", no_estimate)
        u = QualityUniverse.dense([0.7, 0.3], n=10)
        mech = build_mechanism("em", PrivacyBudget(1.0))
        with pytest.raises(ValueError, match="group size must be >= 0, got -1"):
            check_group_privacy(u, u, -1, mech, PrivacyBudget(1.0), trials=200_000)

    @pytest.mark.parametrize("seed", [2**64 - 2**32, 2**64 - 1])
    def test_seeds_up_to_2_64_audit(self, seed):
        left, right = TestFanOut.LEFT, TestFanOut.RIGHT
        budget = PrivacyBudget(1.0, 0.05)
        mech = build_mechanism("lmm", budget)
        report = check_group_privacy(left, right, 1, mech, budget, 2000, seed=seed)
        p_left = _conditional_estimate(mech, left, 2000, seed)
        p_right = _conditional_estimate(mech, right, 2000, seed + 2**32 - 2**64)
        assert report.checks == group_outcome_checks(p_left, p_right, 1, 1.0, 0.05, report.slack)


class TestBuildThresholdExample:
    def test_all_ones(self):
        u = build_threshold_example(5, [1, 1, 1])
        assert u.k == 5 and u.n == 3
        assert [order_stat(u, r) for r in range(1, 6)] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_all_max(self):
        u = build_threshold_example(3, [3, 3])
        assert [order_stat(u, r) for r in range(1, 4)] == [1.0, 1.0, 1.0]

    def test_mixed_entries(self):
        u = build_threshold_example(2, [1, 2])
        assert u.value(1) == 1.0 and u.value(2) == 0.5

    def test_values_nonincreasing(self):
        u = build_threshold_example(10, [1, 3, 3, 7, 2])
        vals = [u.value(i) for i in range(1, 11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            build_threshold_example(4, [1, 5])
        with pytest.raises(ValueError):
            build_threshold_example(4, [0])
        with pytest.raises(ValueError):
            build_threshold_example(4, [])


class TestLb2Family:
    def test_worked_instance(self):
        family, m = build_lb2_family(9, 20, 0.5, universe_size=12)
        assert m == 2
        d1 = family[0]
        assert d1.value(1) == 0.6
        assert all(d1.value(j) == 0.5 for j in range(2, 10))
        assert all(d1.value(j) == 0.0 for j in range(10, 13))

    def test_margin_condition_holds_for_every_member(self):
        family, m = build_lb2_family(9, 20, 0.5, universe_size=12)
        for u in family:
            assert satisfies_margin(u, 9, m / 20)

    def test_own_item_is_the_maximum(self):
        family, _ = build_lb2_family(5, 40, 0.3)
        for i, u in enumerate(family, start=1):
            assert u.value(i) == order_stat(u, 1)

    def test_pairwise_value_distance_is_m_over_n(self):
        family, m = build_lb2_family(7, 30, 0.4)
        a, b = family[2], [family[5]][0]
        diffs = [abs(a.value(i) - b.value(i)) for i in range(1, 8)]
        assert max(diffs) == pytest.approx(m / 30)
        assert sum(d > 0 for d in diffs) == 2

    def test_m_respects_n_half_cap(self):
        _, m = build_lb2_family(1000, 4, 1e-6)
        assert m == 2  # n/2 binds long before the log term

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            build_lb2_family(2, 20, 0.5)  # ln(1/2) < 0
        with pytest.raises(ValueError):
            build_lb2_family(9, 19, 0.5)  # odd n
        with pytest.raises(ValueError):
            build_lb2_family(9, 20, 50.0)  # alpha too large -> m = 0

    def test_delta_bound(self):
        assert lb2_delta_bound(9, 0.5) == pytest.approx((1 - math.exp(-0.5)) / 16)
        with pytest.raises(ValueError):
            lb2_delta_bound(1, 0.5)


class TestExactOracles:
    def test_em_expected_gap_hand_case(self):
        # two items, gap g: expected shortfall is g * P(bottom)
        n, alpha, g = 10, 1.0, 0.2
        u = QualityUniverse.dense([0.5, 0.3], n=n)
        p_bottom = exact_selection_weights([0.5, 0.3], n, alpha)[2]
        assert em_expected_gap(u, alpha) == pytest.approx(g * p_bottom, rel=1e-12)

    def test_em_expected_gap_grows_with_padding(self):
        nz = [0.5, 0.3]
        small = QualityUniverse.sparse(nz, k=10, n=10)
        big = QualityUniverse.sparse(nz, k=10_000, n=10)
        assert em_expected_gap(big, 1.0) > em_expected_gap(small, 1.0) > 0.0

    def test_em_expected_gap_equals_the_full_sum(self):
        # with a fill block the sum stops at the first weight that underflows;
        # every later term is an exact zero, so the full sums give the same
        # float. Unsorted dense values underflow mid-list and must not stop it
        rng = random.Random(51)
        explicit = sorted((rng.random() * 0.9 for _ in range(400)), reverse=True)
        shuffled = rng.sample(explicit, len(explicit))
        for n, alpha in ((3000, 1.0), (200, 0.5), (10**6, 2.0)):
            for u in (QualityUniverse.sparse(explicit, k=10**9, n=n), QualityUniverse.dense(shuffled, n=n)):
                rate, vmax, n_fill = 0.5 * n * alpha, explicit[0], u.k - len(u.explicit)
                weights = [math.exp(rate * (v - vmax)) for v in u.explicit]
                w_fill = math.exp(rate * (0.0 - vmax))
                total = math.fsum(weights) + n_fill * w_fill
                gap = math.fsum(w * (vmax - v) for w, v in zip(weights, u.explicit)) + n_fill * w_fill * vmax
                assert em_expected_gap(u, alpha).hex() == (gap / total).hex()
                if n >= 3000:
                    assert weights[-1] == 0.0 or not n_fill  # the cut is taken

    def test_exact_em_oracles_reject_infinite_alpha(self):
        # inf * 0.0 is NaN in the top item's exponent: a nan gap, where the
        # mechanism's own PrivacyBudget refuses inf
        u = QualityUniverse.dense([0.9, 0.1], n=10)
        with pytest.raises(ValueError, match="alpha must be positive and finite, got inf"):
            em_expected_gap(u, math.inf)


class TestAuditReport:
    def _report(self):
        checks = dp_outcome_checks({1: 1.0}, {2: 1.0}, alpha=0.5, delta=0.0)
        return AuditReport(
            kind="approx_dp", alpha=0.5, delta=0.0, slack=0.01,
            checks=checks, trials=1000, confidence=0.99,
        )

    def test_violations_and_passed(self):
        report = self._report()
        assert not report.passed
        assert len(report.violations) == 2

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "approx_dp"
        assert doc["passed"] is False
        assert len(doc["checks"]) == 4

    def test_csv_schema(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["outcome", "direction", "p_left", "p_right", "bound", "slack", "pass"]
        assert len(rows) == 1 + len(report.checks)

    def test_positional_form_and_defaults(self):
        checks = dp_outcome_checks({1: 1.0}, {1: 1.0}, alpha=0.5, delta=0.0)
        report = AuditReport("approx_dp", 0.5, 0.0, 0.01, checks)
        assert (report.kind, report.alpha, report.delta, report.slack) == ("approx_dp", 0.5, 0.0, 0.01)
        assert report.checks is checks
        assert (report.trials, report.confidence, report.group_size) == (None, None, 1)
        assert report.metadata == {} and report.warnings == []
        full = AuditReport("group", 0.5, 0.0, 0.01, checks, 10, 0.9, 2, {"a": 1}, ["w"])
        assert (full.trials, full.confidence, full.group_size) == (10, 0.9, 2)
        assert full.metadata == {"a": 1} and full.warnings == ["w"]

    def test_default_containers_are_per_report(self):
        a, b = self._report(), self._report()
        a.metadata["workers"] = 2
        a.warnings.append("low trials")
        assert b.metadata == {} and b.warnings == []
        assert a.metadata is not b.metadata and a.warnings is not b.warnings


def test_mol_deterministic_point_mass_under_zero_override():
    u = QualityUniverse.dense([0.2, 0.9, 0.4], n=10)
    base = NoiseSource(0, zero_override=True)
    freqs = {}
    for t in range(100):
        item = max_of_laplaces(u, 1.0, base.spawn(t)).item
        freqs[item] = freqs.get(item, 0) + 1
    assert freqs == {2: 100}
