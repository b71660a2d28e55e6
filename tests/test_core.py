"""Domain types, order statistics, margin predicates, and thresholds."""

import json
import math
import random
import sys
import threading

import pytest

from privmax import (
    Fail,
    MechanismOutcome,
    NoiseSource,
    PrivacyBudget,
    QualityUniverse,
    build_mechanism,
    compute_thresholds,
    load_universe,
    order_stat,
    restricted_exponential,
    satisfies_margin,
    save_universe,
    top_set,
    universe_from_dict,
    universe_to_dict,
)
from oracles import thresholds_highprec

NEG_INF = float("-inf")


class TestPrivacyBudget:
    def test_valid(self):
        b = PrivacyBudget(0.5, 0.05)
        assert b.alpha == 0.5 and b.delta == 0.05

    def test_pure_dp_allowed(self):
        assert PrivacyBudget(1.0).delta == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            PrivacyBudget(alpha, 0.05)

    @pytest.mark.parametrize("delta", [-0.01, 1.0, 1.5])
    def test_bad_delta(self, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, delta)

    def test_require_approximate(self):
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 0.0).require_approximate()
        PrivacyBudget(1.0, 0.1).require_approximate()


class TestQualityUniverse:
    def test_dense_basic(self):
        u = QualityUniverse.dense([0.5, 0.9, 0.1], n=10)
        assert u.k == 3 and u.n == 10 and not u.is_sparse
        assert u.sensitivity == 0.1
        assert u.value(2) == 0.9

    def test_sparse_basic(self):
        u = QualityUniverse.sparse([0.7, 0.4], k=1000, n=50)
        assert u.is_sparse and u.explicit_count == 2
        assert u.value(1) == 0.7 and u.value(999) == 0.0

    def test_sparse_must_be_sorted(self):
        with pytest.raises(ValueError):
            QualityUniverse.sparse([0.4, 0.7], k=10, n=5)

    def test_sparse_below_fill_rejected(self):
        with pytest.raises(ValueError):
            QualityUniverse.sparse([0.5, -0.1], k=10, n=5)

    def test_sparse_too_many_explicit(self):
        with pytest.raises(ValueError):
            QualityUniverse.sparse([0.3, 0.2, 0.1], k=2, n=5)

    def test_dense_wrong_count(self):
        with pytest.raises(ValueError):
            QualityUniverse(k=3, n=5, values=[1.0, 0.5])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            QualityUniverse.dense([0.5, bad], n=5)
        with pytest.raises(ValueError):
            QualityUniverse.sparse([bad], k=3, n=5)

    def test_value_out_of_range(self):
        u = QualityUniverse.dense([0.5], n=5)
        with pytest.raises(ValueError):
            u.value(0)
        with pytest.raises(ValueError):
            u.value(2)

    def test_json_round_trip(self, tmp_path):
        for u in (
            QualityUniverse.dense([0.5, 0.2, 0.9], n=7),
            QualityUniverse.sparse([0.9, 0.1], k=100, n=7, fill=0.05),
        ):
            path = tmp_path / "u.json"
            save_universe(u, path)
            v = load_universe(path)
            assert v.k == u.k and v.n == u.n and v.is_sparse == u.is_sparse
            assert all(v.value(i) == u.value(i) for i in (1, 2, 3))

    def test_from_dict_requires_values_or_nonzeros(self):
        with pytest.raises(ValueError):
            universe_from_dict({"k": 3, "n": 5})

    @pytest.mark.parametrize("form", [{"values": [0.5, 0.2, 0.1]}, {"nonzeros": [0.5], "fill": 0.0}])
    @pytest.mark.parametrize("field, bad", [("k", 3.7), ("n", 10.9), ("k", True), ("n", False),
                                            ("k", "3"), ("n", None), ("k", 3.0)])
    def test_from_dict_takes_only_json_integer_sizes(self, form, field, bad):
        # int() would load 3.7 as 3, true as 1 and "3" as 3
        with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
            universe_from_dict({"k": 3, "n": 10, **form, field: bad})

    @pytest.mark.parametrize("doc", [42, [0.5, 0.2], None, "u", 3.5])
    def test_from_dict_needs_an_object(self, doc):
        with pytest.raises(ValueError, match="universe document must be a JSON object"):
            universe_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"values": ["0.5", True]}, "field 'values' must hold only numbers, got '0.5'"),
        ({"values": [0.5, True]}, "field 'values' must hold only numbers, got True"),
        ({"values": [0.5, None]}, "field 'values' must hold only numbers, got None"),
        ({"values": "0.5 0.1"}, "field 'values' must be an array of numbers, got str"),
        ({"nonzeros": ["0.5"]}, "field 'nonzeros' must hold only numbers, got '0.5'"),
        ({"nonzeros": [False]}, "field 'nonzeros' must hold only numbers, got False"),
        ({"nonzeros": {"0": 0.5}}, "field 'nonzeros' must be an array of numbers, got dict"),
        ({"nonzeros": [0.5], "fill": "0.1"}, "field 'fill' must be a number, got '0.1'"),
        ({"nonzeros": [0.5], "fill": True}, "field 'fill' must be a number, got True"),
        ({"nonzeros": [0.5], "fill": None}, "field 'fill' must be a number, got None"),
    ])
    def test_from_dict_takes_only_json_numbers(self, doc, message):
        # float() would parse "0.5" and read true as 1.0
        with pytest.raises(ValueError, match=message):
            universe_from_dict({"k": 2, "n": 10, **doc})

    def test_from_dict_accepts_json_integers_as_values(self):
        dense = universe_from_dict({"k": 2, "n": 10, "values": [1, 0]})
        sparse = universe_from_dict({"k": 3, "n": 10, "nonzeros": [1], "fill": 0})
        assert dense.values == (1.0, 0.0)
        assert (sparse.nonzeros, sparse.fill) == ((1.0,), 0.0)

    @pytest.mark.parametrize("field", ["k", "n"])
    def test_from_dict_missing_size_is_value_error(self, field):
        doc = {"k": 3, "n": 10, "values": [0.5, 0.2, 0.1]}
        del doc[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            universe_from_dict(doc)

    def test_bool_sizes_rejected(self):
        # bool is an int subclass, so an isinstance check alone lets True in as 1
        with pytest.raises(ValueError, match="universe size k"):
            QualityUniverse(k=True, n=5, values=[0.5])
        with pytest.raises(ValueError, match="dataset size n"):
            QualityUniverse.sparse([0.5], k=3, n=True)

    def test_dense_order_matches_two_sort_reference(self):
        # reference: the id order sorted ascending by negated value
        def reference(vals):
            return (
                tuple(sorted(vals, reverse=True)),
                tuple(i + 1 for i in sorted(range(len(vals)), key=lambda j: -vals[j])),
            )

        rng = random.Random(11)
        cases = [
            [0.5, 0.5, 0.5],
            [0.0, -0.0, 0.0, -0.0, 0.3],
            [-0.0, 0.0, -1.0, 0.0],
            [0.2, 0.7, 0.2, 0.7, 0.1],
        ]
        cases += [[rng.choice((0.0, -0.0, 0.25, 0.5)) for _ in range(40)] for _ in range(20)]
        cases += [[rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 60))] for _ in range(20)]
        for vals in cases:
            u = QualityUniverse.dense(vals, n=10)
            ref_sorted, ref_ids = reference(tuple(vals))
            assert top_set(u, u.k) == ref_ids
            # repr tells -0.0 from 0.0
            assert [repr(order_stat(u, r)) for r in range(1, u.k + 1)] == list(map(repr, ref_sorted))

    def test_dense_prefix_reads_match_full_sort(self):
        # k = 5,000 is above 4 x 256, so the first reads sort only a prefix
        k = 5_000
        rng = random.Random(12)
        vals = [rng.choice((0.0, -0.0, 0.25, 0.5, 0.75)) for _ in range(k)]
        vals[rng.randrange(k)] = 1.0
        ref_sorted = [repr(v) for v in sorted(vals, reverse=True)]
        ref_ids = tuple(i + 1 for i in sorted(range(k), key=lambda j: -vals[j]))
        shuffled = list(range(1, k + 1))
        rng.shuffle(shuffled)
        for ranks in (range(1, k + 1), range(k, 0, -1), shuffled):
            u = QualityUniverse.dense(vals, n=10)
            for r in ranks:
                assert repr(order_stat(u, r)) == ref_sorted[r - 1]
                if r % 997 == 0:
                    assert top_set(u, r) == ref_ids[:r]
        # distinct values too, so the prefix is exactly as long as asked
        vals = [rng.uniform(-1.0, 1.0) for _ in range(k)] + [-0.0, 0.0]
        ref_sorted = [repr(v) for v in sorted(vals, reverse=True)]
        ref_ids = tuple(i + 1 for i in sorted(range(len(vals)), key=lambda j: -vals[j]))
        u = QualityUniverse.dense(vals, n=10)
        for ell in (1, 2, 255, 256, 257, 300, 2_048, 2_049, 1_000, 4_000, len(vals)):
            assert top_set(u, ell) == ref_ids[:ell]
            assert repr(order_stat(u, ell)) == ref_sorted[ell - 1]
        u = QualityUniverse.dense(vals, n=10)
        assert top_set(u, 1) == ref_ids[:1]
        assert len(u._ids_desc) < u.k
        for r in (5_002, 3, 600, 4_999):
            assert repr(order_stat(u, r)) == ref_sorted[r - 1]

    def test_concurrent_prefix_growth_reads_exact_ranks(self):
        # more threads than cores and a short switch interval, so growths of
        # one fresh universe's prefix interleave with each other and with reads
        k, workers, rounds = 20_000, 6, 20
        rng = random.Random(13)
        vals = [rng.choice((0.0, -0.0, 0.5)) + rng.randrange(4_000) / 4_000 for _ in range(k)]
        ref_sorted = [repr(v) for v in sorted(vals, reverse=True)]
        ref_ids = tuple(i + 1 for i in sorted(range(k), key=lambda j: -vals[j]))
        errors = []

        def reader(u, start, seed):
            r_rng = random.Random(seed)
            try:
                start.wait(timeout=30)
                for _ in range(30):
                    r = r_rng.randint(1, r_rng.choice((300, 3_000, k)))
                    if repr(order_stat(u, r)) != ref_sorted[r - 1] or top_set(u, r)[-1] != ref_ids[r - 1]:
                        errors.append(r)
            except Exception as exc:  # reported through the errors list
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(rounds):
                u = QualityUniverse.dense(vals, n=10)
                start = threading.Barrier(workers)
                threads = [
                    threading.Thread(target=reader, args=(u, start, round_ * workers + w))
                    for w in range(workers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_to_dict_shapes(self):
        dd = universe_to_dict(QualityUniverse.dense([1.0], n=2))
        assert set(dd) == {"k", "n", "values"}
        sd = universe_to_dict(QualityUniverse.sparse([1.0], k=5, n=2))
        assert set(sd) == {"k", "n", "nonzeros", "fill"}


class TestOrderStat:
    def test_second_highest(self):
        u = QualityUniverse.dense([0.5, 0.9, 0.9, 0.1], n=10)
        assert order_stat(u, 2) == 0.9

    def test_sentinel_at_k_plus_one(self):
        u = QualityUniverse.dense([0.3, 0.2, 0.4, 0.1], n=10)
        assert order_stat(u, 5) == NEG_INF

    def test_sparse_fill_tail(self):
        u = QualityUniverse.sparse([0.7, 0.4], k=1000, n=10)
        assert order_stat(u, 3) == 0.0
        assert order_stat(u, 1000) == 0.0
        assert order_stat(u, 1001) == NEG_INF

    @pytest.mark.parametrize("r", [0, -1, 6])
    def test_rank_out_of_range(self, r):
        u = QualityUniverse.dense([0.1, 0.2, 0.3, 0.4], n=10)
        with pytest.raises(ValueError):
            order_stat(u, r)

    def test_monotone_nonincreasing(self):
        rng = random.Random(0)
        for _ in range(50):
            k = rng.randint(1, 12)
            vals = [rng.uniform(-1, 1) for _ in range(k)]
            u = QualityUniverse.dense(vals, n=10)
            stats = [order_stat(u, r) for r in range(1, k + 2)]
            assert all(a >= b for a, b in zip(stats, stats[1:]))
            assert stats[-1] == NEG_INF


class TestSatisfiesMargin:
    def test_basic_true(self):
        u = QualityUniverse.dense([0.9, 0.9, 0.5, 0.1], n=10)
        assert satisfies_margin(u, 2, 0.3)

    def test_full_rank_always_true(self):
        rng = random.Random(1)
        for _ in range(20):
            k = rng.randint(1, 8)
            u = QualityUniverse.dense([rng.uniform(0, 1) for _ in range(k)], n=5)
            assert satisfies_margin(u, k, rng.uniform(1e-6, 10.0))

    def test_tie_at_top_false(self):
        u = QualityUniverse.dense([0.9, 0.9], n=10)
        assert not satisfies_margin(u, 1, 0.1)

    def test_monotone_in_ell_and_gamma(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randint(2, 9)
            u = QualityUniverse.dense([rng.uniform(0, 1) for _ in range(k)], n=5)
            ell = rng.randint(1, k - 1)
            gamma = rng.uniform(0.01, 0.5)
            if satisfies_margin(u, ell, gamma):
                assert satisfies_margin(u, min(ell + 1, k), gamma)
                assert satisfies_margin(u, ell, gamma / 2)

    def test_validation(self):
        u = QualityUniverse.dense([0.5, 0.2], n=10)
        with pytest.raises(ValueError):
            satisfies_margin(u, 0, 0.1)
        with pytest.raises(ValueError):
            satisfies_margin(u, 3, 0.1)
        with pytest.raises(ValueError):
            satisfies_margin(u, 1, 0.0)


class TestTopSet:
    def test_basic(self):
        u = QualityUniverse.dense([0.1, 0.9, 0.9], n=10)
        assert top_set(u, 2) == (2, 3)

    def test_tie_rule_lowest_id(self):
        u = QualityUniverse.dense([0.5, 0.5, 0.5], n=10)
        assert top_set(u, 1) == (1,)
        assert top_set(u, 2) == (1, 2)

    def test_full_universe(self):
        u = QualityUniverse.dense([0.2, 0.8, 0.5], n=10)
        assert sorted(top_set(u, 3)) == [1, 2, 3]

    def test_separation_property(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(1, 10)
            u = QualityUniverse.dense([rng.choice([0.1, 0.5, 0.9]) for _ in range(k)], n=5)
            ell = rng.randint(1, k)
            chosen = set(top_set(u, ell))
            assert len(chosen) == ell
            out = set(range(1, k + 1)) - chosen
            if out:
                assert min(u.value(i) for i in chosen) >= max(u.value(j) for j in out)

    def test_sparse_prefix(self):
        u = QualityUniverse.sparse([0.9, 0.4], k=50, n=5)
        assert top_set(u, 4) == (1, 2, 3, 4)

    def test_out_of_range(self):
        u = QualityUniverse.dense([0.5], n=5)
        with pytest.raises(ValueError):
            top_set(u, 0)
        with pytest.raises(ValueError):
            top_set(u, 2)


class TestComputeThresholds:
    def test_matches_high_precision_oracle(self):
        cases = [
            (100, 1.0, 0.1, 1),
            (500, 1.0, 0.05, 1),
            (500, 1.0, 0.05, 7),
            (10, 0.5, 0.05, 3),
            (1000, 0.25, 0.01, 50),
            (7, 2.0, 0.9, 2),
        ]
        for n, alpha, delta, r in cases:
            t_ref, T_ref = thresholds_highprec(n, alpha, delta, r)
            pair = compute_thresholds(n, alpha, delta, r)
            assert pair.t == pytest.approx(t_ref, rel=1e-12)
            assert pair.T == pytest.approx(T_ref, rel=1e-12)
            assert pair.r == r

    def test_hand_worked_point_value(self):
        # n=100, alpha=1, delta=0.1, r=1; third T term uses r(r+1) = 2
        pair = compute_thresholds(100, 1.0, 0.1, 1)
        t_expected = 0.06 * (1 + math.log(30))
        T_expected = 0.03 * math.log(15) + 0.06 * math.log(30) + 0.12 * math.log(60) + t_expected
        assert pair.t == pytest.approx(t_expected, rel=1e-12)
        assert pair.T == pytest.approx(T_expected, rel=1e-12)

    def test_strictly_increasing_in_rank(self):
        prev = compute_thresholds(100, 1.0, 0.05, 1)
        for r in range(2, 40):
            cur = compute_thresholds(100, 1.0, 0.05, r)
            assert cur.t > prev.t and cur.T > prev.T
            prev = cur

    def test_exact_halving_when_n_doubles(self):
        for n, alpha, delta, r in [(100, 1.0, 0.05, 1), (64, 0.5, 0.2, 5), (3, 2.0, 0.01, 11)]:
            a = compute_thresholds(n, alpha, delta, r)
            b = compute_thresholds(2 * n, alpha, delta, r)
            assert b.t == a.t / 2
            assert b.T == a.T / 2

    def test_ordering_invariant(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 10**6)
            alpha = rng.uniform(0.01, 5.0)
            delta = rng.uniform(1e-6, 0.999)
            r = rng.randint(1, 10**6)
            pair = compute_thresholds(n, alpha, delta, r)
            assert pair.T >= pair.t > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_thresholds(0, 1.0, 0.05, 1)
        with pytest.raises(ValueError):
            compute_thresholds(10, -1.0, 0.05, 1)
        with pytest.raises(ValueError):
            compute_thresholds(10, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            compute_thresholds(10, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            compute_thresholds(10, 1.0, 0.05, 0)


class TestDenseSparseEquivalence:
    def test_same_multiset_same_statistics(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(1, 9)
            explicit = sorted((round(rng.uniform(0.0, 1.0), 2) for _ in range(rng.randint(0, k))), reverse=True)
            dense_vals = list(explicit) + [0.0] * (k - len(explicit))
            rng.shuffle(dense_vals)
            if explicit and explicit[-1] < 0.0:
                continue
            ud = QualityUniverse.dense(dense_vals, n=10)
            us = QualityUniverse.sparse(explicit, k=k, n=10)
            for r in range(1, k + 2):
                assert order_stat(ud, r) == order_stat(us, r)
            for ell in range(1, k + 1):
                assert satisfies_margin(ud, ell, 0.05) == satisfies_margin(us, ell, 0.05)
                dv = sorted(ud.value(i) for i in top_set(ud, ell))
                sv = sorted(us.value(i) for i in top_set(us, ell))
                assert dv == sv


    def test_full_sparse_universe_gives_dense_outcomes(self):
        # a sparse universe with L = k holds the same values at the same ids as
        # a dense one, so every mechanism must draw the same outcome from it
        budget = PrivacyBudget(1.0, 0.05)
        rng = random.Random(23)
        for _ in range(20):
            k = rng.randint(2, 9)
            # steps near T(1) = 0.24 at n = 500 spread the certified rank
            vals = sorted((round(rng.choice([0.0, 0.2, 0.25, 0.5, 0.9]) + rng.choice([0.0, 0.05]), 2)
                           for _ in range(k)), reverse=True)
            ud = QualityUniverse.dense(vals, n=500)
            us = QualityUniverse.sparse(vals, k=k, n=500, fill=rng.choice([0.0, -1.0]))
            ell = rng.randint(1, k)
            mechs = {name: build_mechanism(name, budget) for name in ("em", "mol", "st13", "lmm")}
            mechs["rem"] = lambda u, src: restricted_exponential(u, ell, budget.alpha, src)
            for name, mech in mechs.items():
                for seed in range(8):
                    for zero in (False, True):
                        got_d = mech(ud, NoiseSource(seed, zero_override=zero))
                        got_s = mech(us, NoiseSource(seed, zero_override=zero))
                        if isinstance(got_d, Fail):
                            assert isinstance(got_s, Fail)
                            continue
                        assert (got_d.item, got_d.m, got_d.ell, got_d.certified) == (
                            got_s.item, got_s.m, got_s.ell, got_s.certified), (name, vals, seed, zero)


class TestMechanismOutcome:
    def test_json_schema(self):
        out = MechanismOutcome(item=3, budget=PrivacyBudget(0.5, 0.01), m=0.9, ell=2, seed=7)
        doc = out.to_json_dict()
        assert doc == {
            "item": 3,
            "m": 0.9,
            "ell": 2,
            "certified": True,
            "alpha": 0.5,
            "delta": 0.01,
            "seed": 7,
        }
        json.dumps(doc)
