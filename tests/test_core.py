"""Domain types, order statistics, margin predicates, and thresholds."""

import importlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import privmax
from privmax import (
    FAIL_KEY,
    NoiseSource,
    PrivacyBudget,
    QualityUniverse,
    build_mechanism,
    compute_thresholds,
    load_universe,
    order_stat,
    save_universe,
    top_set,
    universe_from_dict,
    universe_to_dict,
)
from privmax.core import json_numbers
from oracles import restricted_exponential, satisfies_margin, thresholds_highprec

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

    def test_positional_and_keyword_forms(self):
        b = PrivacyBudget(0.5, 0.05)
        assert b == PrivacyBudget(alpha=0.5, delta=0.05) == PrivacyBudget(0.5, delta=0.05)
        assert PrivacyBudget(alpha=0.5) == PrivacyBudget(0.5, 0.0)
        alpha, delta = b
        assert (alpha, delta) == (0.5, 0.05)

    def test_frozen(self):
        b = PrivacyBudget(0.5, 0.05)
        with pytest.raises(AttributeError):
            b.alpha = 1.0
        with pytest.raises(AttributeError):
            b.other = 1.0

    def test_equal_fields_equal_hash(self):
        assert hash(PrivacyBudget(0.5, 0.05)) == hash(PrivacyBudget(alpha=0.5, delta=0.05))
        assert len({PrivacyBudget(0.5, 0.05), PrivacyBudget(0.5, 0.05), PrivacyBudget(0.5)}) == 2

    def test_make_and_replace_validate(self):
        b = PrivacyBudget(1.0, 0.05)
        with pytest.raises(ValueError, match="alpha must be positive"):
            b._replace(alpha=-1.0)
        with pytest.raises(ValueError, match="delta must lie"):
            b._replace(delta=1.0)
        with pytest.raises(ValueError, match="alpha must be positive"):
            PrivacyBudget._make((float("nan"), 0.05))
        with pytest.raises(TypeError):
            PrivacyBudget._make((1.0,))
        assert b._replace(delta=0.1) == PrivacyBudget._make((1.0, 0.1)) == PrivacyBudget(1.0, 0.1)


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # the package's records are NamedTuples and csv is imported by the CSV
    # writers, so a cold `privmax` call pays for none of these modules
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, privmax.cli; print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_layer_trace_targets_resolve():
    # perfbench/layertrace.py wraps these names where their callers look them
    # up; a refactor that drops one breaks every traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace_under_test", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TARGETS
    for module, cls, attr, traced, _ in layertrace.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (module, cls, attr, traced)


def test_package_import_loads_no_submodule():
    # the package namespace is lazy: `import privmax` loads no submodule, nor
    # json or argparse; the core names import no json; an unknown name raises
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, privmax\n"
        "print(sorted(m for m in sys.modules if m.startswith('privmax.') or m in ('json', 'argparse')))\n"
        "from privmax import QualityUniverse, build_mechanism\n"
        "print('json' in sys.modules)\n"
        "try:\n"
        "    privmax.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.splitlines() == ["[]", "False", "module 'privmax' has no attribute 'nope'"]


def test_public_names_are_pinned():
    # the exported API, pinned so that any change to it is made on purpose
    public = [
        "AuditReport", "BasketDataset", "CapExhausted", "FAIL_KEY", "HypothesisClass", "ItemsetCodec",
        "ItemsetQuality", "MechanismOutcome", "NeighborPair", "NoiseSource", "OutcomeCheck",
        "PrivacyBudget", "QualityUniverse", "ShellDecomposition", "TStarResult", "ThresholdPair",
        "basket_neighbor", "basket_neighbor_pair", "build_lb2_family", "build_mechanism",
        "build_threshold_example", "check_approx_dp", "check_group_privacy", "compute_thresholds",
        "default_cap", "dp_outcome_checks", "em_expected_gap", "empirical_quality",
        "estimate_distribution", "exponential_mechanism", "gap_max_st13", "group_outcome_checks",
        "hoeffding_slack", "itemset_quality", "itemset_quality_dense", "large_margin_mechanism",
        "lb2_delta_bound", "lmm_quality_radius", "lmm_required_margin", "load_baskets",
        "load_universe", "margin_search", "max_of_laplaces", "order_stat",
        "pac_selection_constant", "save_universe", "shell_decomposition", "t_star",
        "top_set", "universe_from_dict", "universe_to_dict",
    ]
    assert sorted(privmax.__all__) == public
    assert dir(privmax) == public
    # each name resolves to the object its defining module holds
    for name in public:
        value = getattr(privmax, name)
        module = sys.modules["privmax." + privmax._MODULE_OF[name]]
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    # once resolved, the namespace holds exactly the public names
    assert sorted(
        name for name, value in vars(privmax).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ) == public


def test_readme_python_blocks_run():
    # README's four examples run in order in one namespace, as a reader runs
    # them, so a name they use cannot drift out of the library unnoticed
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


class TestQualityUniverse:
    def test_dense_basic(self):
        u = QualityUniverse.dense([0.5, 0.9, 0.1], n=10)
        assert u.k == 3 and u.n == 10 and u.explicit_count == u.k
        assert u.sensitivity == 0.1
        assert u.value(2) == 0.9

    def test_sparse_basic(self):
        u = QualityUniverse.sparse([0.7, 0.4], k=1000, n=50)
        assert u.explicit_count == 2 < u.k
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
            universe_from_dict({"k": 3, "n": 5, "values": [1.0, 0.5]})

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
            assert v.k == u.k and v.n == u.n and v.explicit_count == u.explicit_count
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

    def test_json_numbers_copies_only_an_array_holding_integers(self):
        floats = {"x": [0.5, -0.0, 1e-300]}
        assert json_numbers(floats, "x") is floats["x"]
        mixed = json_numbers({"x": [1, 0.5, 0, -3]}, "x")
        assert mixed == [1.0, 0.5, 0.0, -3.0]
        assert set(map(type, mixed)) == {float}
        assert json_numbers({"x": []}, "x") == []

    def test_from_dict_accepts_json_integers_as_values(self):
        dense = universe_from_dict({"k": 2, "n": 10, "values": [1, 0]})
        sparse = universe_from_dict({"k": 3, "n": 10, "nonzeros": [1], "fill": 0})
        assert dense.explicit == (1.0, 0.0)
        assert (sparse.explicit, sparse.fill) == ((1.0,), 0.0)

    @pytest.mark.parametrize("field", ["k", "n"])
    def test_from_dict_missing_size_is_value_error(self, field):
        doc = {"k": 3, "n": 10, "values": [0.5, 0.2, 0.1]}
        del doc[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            universe_from_dict(doc)

    def test_bool_sizes_rejected(self):
        # bool is an int subclass, so an isinstance check alone lets True in as 1
        with pytest.raises(ValueError, match="universe size k"):
            QualityUniverse([0.5], k=True, n=5)
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
        assert len(u._head[1]) < u.k
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

    @staticmethod
    def _assert_head_reads_match_full_sort(vals, ranks):
        # each rank on a fresh universe, so every read is a first growth
        ref_sorted = [repr(v) for v in sorted(vals, reverse=True)]
        ref_ids = tuple(i + 1 for i in sorted(range(len(vals)), key=lambda j: -vals[j]))
        for r in ranks:
            u = QualityUniverse.dense(vals, n=10)
            assert repr(order_stat(u, r)) == ref_sorted[r - 1], r
            assert top_set(u, r) == ref_ids[:r], r
            head, ids = u._head
            # the pair's one invariant: equal lengths, and each value is the
            # explicit float object of its id
            assert len(head) == len(ids)
            assert all(v is u.explicit[i - 1] for v, i in zip(head, ids))
            assert list(map(repr, head)) == ref_sorted[: len(head)]
            # the head ends at a value change, so ties at its last value are all in it
            assert len(head) == len(vals) or head[-1] > float(ref_sorted[len(head)])

    def test_head_growth_exact_on_adversarial_layouts(self):
        rng = random.Random(14)
        k = 40_960  # a stride of 10 over a 4,096-value sample
        step = k // 4_096
        ranks = (1, 2, 256, 257, k // 64, k // 64 + 1, 3_000, 10_000, k // 4 - 1, k // 4, k)
        # ascending in id order: the sample holds exact quantiles, each a stride apart
        self._assert_head_reads_match_full_sort([j / k for j in range(k)], ranks)
        # the largest values on the stride: the sample sees only them, so the
        # first candidates admit too few values and the search moves down; past
        # the 4,096 sampled values no candidate admits the rank and the growth
        # falls back to the full sort
        on_stride = [rng.uniform(0.0, 0.5) for _ in range(k)]
        for j in range(0, k, step):
            on_stride[j] = 1.0 + rng.random()
        self._assert_head_reads_match_full_sort(on_stride, ranks)
        # the top block between the stride points, where the sample never looks
        off_stride = [rng.uniform(0.0, 0.5) for _ in range(k)]
        for j in range(1, 4_000 * step, step):
            off_stride[j] = 1.0 + rng.random()
        self._assert_head_reads_match_full_sort(off_stride, ranks)
        # ties everywhere: all equal below one larger value, and a +-0.0 mix
        self._assert_head_reads_match_full_sort([0.25] * (k - 1) + [0.5], (1, 2, 300, k))
        pm_zero = [rng.choice((0.0, -0.0, 0.0, -0.0, 0.5, -0.5)) for _ in range(k)]
        self._assert_head_reads_match_full_sort(pm_zero, ranks)
        # all-equal values are descending, so the head is complete from the start
        u = QualityUniverse.dense([-0.0] * 5 + [0.0] * 5, n=10)
        assert len(u._head[0]) == 10
        assert [repr(order_stat(u, r)) for r in (1, 6, 10)] == ["-0.0", "0.0", "0.0"]
        # k just above 4 x 256, where the stride is 1 and the sample is every value
        small = [rng.uniform(-1.0, 1.0) for _ in range(4 * 256 + 3)]
        self._assert_head_reads_match_full_sort(small, (1, 255, 256, 257, 4 * 256 + 3))
        # at k = 64 x 256 the L/64 floor equals the 256-rank floor; at
        # k = 64 x 257 it is 257 ranks
        for size in (64 * 256, 64 * 257):
            vals = [rng.uniform(-1.0, 1.0) for _ in range(size)]
            self._assert_head_reads_match_full_sort(vals, (1, 256, 257, 258, size // 4))
            u = QualityUniverse.dense(vals, n=10)
            order_stat(u, 1)
            assert len(u._head[0]) == size // 64

    def test_to_dict_shapes(self):
        dd = universe_to_dict(QualityUniverse.dense([1.0], n=2))
        assert set(dd) == {"k", "n", "values"}
        sd = universe_to_dict(QualityUniverse.sparse([1.0], k=5, n=2))
        assert set(sd) == {"k", "n", "nonzeros", "fill"}

    def test_one_form_in_storage(self):
        assert QualityUniverse.__slots__ == ("k", "n", "explicit", "fill", "_head")
        for u in (QualityUniverse.dense([0.2, 0.7], n=5), QualityUniverse.sparse([0.7], k=9, n=5)):
            assert not hasattr(u, "nonzeros") and not hasattr(u, "is_sparse")
            assert u.values is u.explicit

    @pytest.mark.parametrize("explicit", [[0.4, 0.7], [0.5, -0.1]], ids=["ascending", "below-fill"])
    def test_fill_block_needs_descending_values_down_to_fill(self, explicit):
        with pytest.raises(ValueError, match="L < k"):
            QualityUniverse(explicit, k=3, n=5)

    def test_without_fill_block_any_order_is_dense(self):
        u = QualityUniverse([0.4, 0.7], k=2, n=5)
        ref = QualityUniverse.dense([0.4, 0.7], n=5)
        assert [u.value(i) for i in (1, 2)] == [ref.value(i) for i in (1, 2)] == [0.4, 0.7]
        assert [order_stat(u, r) for r in (1, 2, 3)] == [order_stat(ref, r) for r in (1, 2, 3)]
        assert top_set(u, 2) == top_set(ref, 2) == (2, 1)

    def test_descending_dense_head_matches_shuffled_and_reference(self):
        # a descending dense universe starts with its complete head; it and a
        # shuffle of it must read the two-sort reference order at every rank,
        # and the seeded LMM and EM must pick the same rank in both
        budget = PrivacyBudget(1.0, 0.05)
        mechs = [build_mechanism(name, budget) for name in ("lmm", "em")]
        rng = random.Random(29)
        cases = [[0.5, 0.5, 0.5], [0.3, 0.0, -0.0, 0.0, -0.0], [0.0, -0.0, -1.0]]
        cases += [[rng.choice((0.0, -0.0, 0.02, 0.25)) for _ in range(rng.randint(1, 30))] for _ in range(15)]
        for vals in cases:
            desc = sorted(vals, reverse=True)
            shuffled = rng.sample(vals, len(vals))
            k = len(vals)
            ud = QualityUniverse.dense(desc, n=100)
            assert ud._head[1] == range(1, k + 1)
            us = QualityUniverse.dense(shuffled, n=100)
            for u, raw in ((ud, desc), (us, shuffled)):
                ref_ids = tuple(i + 1 for i in sorted(range(k), key=lambda j: -raw[j]))
                ref_sorted = [repr(raw[i - 1]) for i in ref_ids]
                assert [repr(order_stat(u, r)) for r in range(1, k + 1)] == ref_sorted
                assert [top_set(u, ell) for ell in range(1, k + 1)] == [ref_ids[:ell] for ell in range(1, k + 1)]
            # the stable descending order of the shuffle maps rank q to its id
            order = top_set(us, k)
            for mech in mechs:
                for seed in range(6):
                    got_d = mech(ud, NoiseSource(seed))
                    got_s = mech(us, NoiseSource(seed))
                    assert order[got_d.item - 1] == got_s.item, (vals, seed)
                    assert (got_d.m, got_d.ell, got_d.certified) == (got_s.m, got_s.ell, got_s.certified)

    def test_file_form_follows_fill_block(self, tmp_path):
        path = tmp_path / "u.json"
        u = QualityUniverse.sparse([0.9, 0.1], k=2, n=7)
        save_universe(u, path)
        assert json.loads(path.read_text()) == {"k": 2, "n": 7, "values": [0.9, 0.1]}
        v = load_universe(path)
        assert (v.k, v.n, v.explicit, v.fill) == (2, 7, (0.9, 0.1), 0.0)
        save_universe(QualityUniverse.sparse([0.9, 0.1], k=3, n=7, fill=0.05), path)
        assert json.loads(path.read_text()) == {"k": 3, "n": 7, "nonzeros": [0.9, 0.1], "fill": 0.05}

    @pytest.mark.parametrize("doc, field", [
        ({"values": [0.1, 0.2, 0.3], "nonzeros": [0.9]}, "nonzeros"),
        ({"values": [0.1, 0.2, 0.3], "fill": 0.9}, "fill"),
        ({"values": [0.1, 0.2, 0.3], "nonzeros": [0.9], "fill": 0.0}, "nonzeros"),
    ], ids=["values-and-nonzeros", "values-and-fill", "all-three"])
    def test_from_dict_rejects_ambiguous_document(self, doc, field):
        # a field that no form reads would otherwise be dropped unread
        with pytest.raises(ValueError, match=f"must not hold '{field}'"):
            universe_from_dict({"k": 3, "n": 5, **doc})


    @pytest.mark.parametrize("doc, form, field", [
        ({"nonzeros": [0.9], "fil": 0.5}, "nonzeros", "fil"),
        ({"nonzeros": [0.9], "fill": 0.5, "note": "x"}, "nonzeros", "note"),
        ({"values": [0.9, 0.1, 0.0], "fill": 0.5}, "values", "fill"),
        ({"values": [0.9, 0.1, 0.0], "valuse": [0.2]}, "values", "valuse"),
    ], ids=["nonzeros-misspelt-fill", "nonzeros-extra", "values-fill", "values-misspelt"])
    def test_from_dict_rejects_a_key_outside_its_form(self, doc, form, field):
        # a misspelt "fil" would otherwise load with fill 0.0
        with pytest.raises(ValueError, match=f"^a '{form}' universe document must not hold '{field}'$"):
            universe_from_dict({"k": 3, "n": 5, **doc})

    def test_from_dict_without_a_value_field_names_both_forms(self):
        with pytest.raises(ValueError, match="needs a 'values' or 'nonzeros' field"):
            universe_from_dict({"k": 3, "n": 5, "value": [0.9, 0.1, 0.0]})


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

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_alpha_must_be_finite(self, alpha):
        # an infinite alpha zeroes every 1/(n alpha) term, leaving T = t = 6/n
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            compute_thresholds(10, alpha, 0.05, 1)


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
                        if got_d.item == FAIL_KEY:
                            assert got_s.item == FAIL_KEY
                            continue
                        assert (got_d.item, got_d.m, got_d.ell, got_d.certified) == (
                            got_s.item, got_s.m, got_s.ell, got_s.certified), (name, vals, seed, zero)
