"""Command-line interface: determinism, exit codes, output schemas."""

import argparse
import csv
import json
import math

import pytest

from privmax.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from privmax import NoiseSource, QualityUniverse, save_universe, shell_decomposition


@pytest.fixture
def clear_universe(tmp_path):
    path = tmp_path / "universe.json"
    save_universe(QualityUniverse.dense([1.0, 0.3, 0.2, 0.1], n=500), path)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSelect:
    def test_zero_noise_trace(self, clear_universe, tmp_path):
        out = tmp_path / "outcome.json"
        code = run(
            "select", "--in", clear_universe, "--mechanism", "lmm",
            "--alpha", "1", "--delta", "0.05", "--zero-noise", "--seed", "0",
            "--out", str(out),
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["item"] == 1 and doc["ell"] == 1 and doc["m"] == 1.0
        assert doc["certified"] is True and doc["seed"] == 0

    def test_repeat_run_byte_identical(self, clear_universe, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["select", "--in", clear_universe, "--mechanism", "lmm",
                "--alpha", "0.7", "--delta", "0.05", "--seed", "99"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_item_universe_every_mechanism(self, tmp_path):
        path = tmp_path / "one.json"
        save_universe(QualityUniverse.dense([0.4], n=50), path)
        for mech in ("em", "mol", "st13", "lmm"):
            out = tmp_path / f"{mech}.json"
            code = run("select", "--in", str(path), "--mechanism", mech,
                       "--alpha", "1", "--delta", "0.05", "--seed", "3", "--out", str(out))
            assert code == EXIT_OK
            assert json.loads(out.read_text())["item"] == 1

    def test_st13_fail_exit_code(self, tmp_path):
        path = tmp_path / "tie.json"
        save_universe(QualityUniverse.dense([0.5, 0.5], n=100), path)
        out = tmp_path / "o.json"
        code = run("select", "--in", str(path), "--mechanism", "st13",
                   "--alpha", "1", "--delta", "0.05", "--zero-noise", "--out", str(out))
        assert code == EXIT_FAIL
        assert json.loads(out.read_text())["outcome"] == "fail"

    def test_payload_key_order(self, clear_universe, tmp_path):
        # the CLI lays out a released outcome: the mechanism's item, m, ell
        # and certified, its budget as alpha and delta, then the --seed
        out = tmp_path / "o.json"
        assert run("select", "--in", clear_universe, "--mechanism", "lmm", "--alpha", "0.5",
                   "--delta", "0.01", "--zero-noise", "--seed", "7", "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert list(doc) == ["item", "m", "ell", "certified", "alpha", "delta", "seed"]
        assert (doc["item"], doc["alpha"], doc["delta"], doc["seed"]) == (1, 0.5, 0.01, 7)

    def test_lmm_uncertified_exit_code(self, tmp_path):
        path = tmp_path / "hard.json"
        save_universe(QualityUniverse.sparse([0.1], k=100, n=10), path)
        out = tmp_path / "o.json"
        code = run("select", "--in", str(path), "--mechanism", "lmm",
                   "--alpha", "1", "--delta", "0.05", "--zero-noise", "--out", str(out))
        assert code == EXIT_UNCERTIFIED
        assert json.loads(out.read_text())["certified"] is False

    def test_missing_input_is_runtime_error(self):
        assert run("select", "--mechanism", "em") == EXIT_ERROR

    def test_non_integer_universe_size_rejected(self, tmp_path, capsys):
        # int() would load this file as k=3, n=10
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"k": 3.7, "n": 10.9, "values": [0.5, 0.2, 0.1]}))
        assert run("select", "--in", str(path)) == EXIT_ERROR
        assert "field 'k' must be an integer, got 3.7" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["42", "[0.5, 0.1]", "null", '"u"'])
    def test_non_object_universe_file_rejected(self, tmp_path, capsys, document):
        path = tmp_path / "u.json"
        path.write_text(document)
        assert run("select", "--in", str(path)) == EXIT_ERROR
        assert "universe document must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, field", [({"nonzeros": [0.9]}, "nonzeros"), ({"fill": 0.9}, "fill")],
                             ids=["nonzeros", "fill"])
    def test_ambiguous_universe_file_rejected(self, tmp_path, capsys, extra, field):
        # loading would read 'values' and drop the other field unread
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"k": 3, "n": 5, "values": [0.1, 0.2, 0.3], **extra}))
        assert run("select", "--in", str(path)) == EXIT_ERROR
        assert f"a 'values' universe document must not hold '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("document, form, field", [
        ({"k": 3, "n": 5, "nonzeros": [0.9], "fil": 0.5}, "nonzeros", "fil"),
        ({"k": 2, "n": 5, "values": [0.9, 0.1], "sorted": True}, "values", "sorted"),
    ], ids=["nonzeros", "values"])
    def test_unknown_universe_key_rejected(self, tmp_path, capsys, document, form, field):
        # a misspelt key would otherwise be dropped unread: "fil" loaded fill 0.0
        path = tmp_path / "u.json"
        path.write_text(json.dumps(document))
        assert run("select", "--in", str(path)) == EXIT_ERROR
        assert f"a '{form}' universe document must not hold '{field}'" in capsys.readouterr().err

    def test_non_number_universe_value_rejected(self, tmp_path, capsys):
        # float() would load these values as (0.5, 1.0)
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"k": 2, "n": 10, "values": ["0.5", True]}))
        assert run("select", "--in", str(path)) == EXIT_ERROR
        assert "field 'values' must hold only numbers, got '0.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("document, field", [
        ({"k": 2, "n": 10, "values": [10**400, 0.5]}, "values"),
        ({"k": 2, "n": 10, "values": [math.nan, 10**400]}, "values"),
        ({"k": 2, "n": 10, "nonzeros": [0.5, -(10**400)]}, "nonzeros"),
        ({"k": 2, "n": 10, "nonzeros": [0.5], "fill": 10**400}, "fill"),
    ], ids=["values", "values-after-nan", "nonzeros", "fill"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, document, field):
        # float() raises OverflowError on these, which is no ValueError
        path = tmp_path / "u.json"
        path.write_text(json.dumps(document))
        assert run("select", "--in", str(path)) == EXIT_ERROR
        assert f"field '{field}' holds an integer too large for a float" in capsys.readouterr().err

    def test_integer_inside_float_range_accepted(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"k": 2, "n": 10, "values": [10**308, 0.5]}))
        out = tmp_path / "o.json"
        assert run("select", "--in", str(path), "--seed", "1", "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["item"] == 1

    def test_csv_format(self, clear_universe, tmp_path):
        out = tmp_path / "o.csv"
        code = run("select", "--in", clear_universe, "--mechanism", "lmm",
                   "--alpha", "1", "--delta", "0.05", "--zero-noise",
                   "--format", "csv", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert "item,1" in lines


class TestSecretNoise:
    """Without --seed a private run draws secret noise: no seed is printed,
    and no seed replays its draws back to the data."""

    F1, N = 0.7342, 200

    @pytest.fixture
    def universe(self, tmp_path):
        path = tmp_path / "universe.json"
        path.write_text(json.dumps({"k": 4, "n": self.N, "values": [self.F1, 0.2, 0.1, 0.05]}))
        return str(path)

    @staticmethod
    def select(universe, out, *extra):
        code = run("select", "--in", universe, "--mechanism", "lmm", "--out", str(out), *extra)
        assert code in (EXIT_OK, EXIT_UNCERTIFIED)
        return json.loads(out.read_text())

    def replayed_f1(self, doc):
        # LMM's stage 1 releases m = f(1) + Lap(3/alpha)/n, its first draw;
        # the seed-0 stream gives that draw back
        return doc["m"] - NoiseSource(0).laplace(3.0) / self.N

    def test_seed_zero_run_replays_to_the_top_quality(self, universe, tmp_path):
        doc = self.select(universe, tmp_path / "o.json", "--seed", "0")
        assert doc["seed"] == 0 and self.replayed_f1(doc) == self.F1

    def test_unseeded_run_prints_no_seed_and_resists_the_replay(self, universe, tmp_path):
        docs = [self.select(universe, tmp_path / f"{i}.json") for i in range(2)]
        assert [doc["seed"] for doc in docs] == [None, None]
        assert all(self.replayed_f1(doc) != self.F1 for doc in docs)
        assert docs[0]["m"] != docs[1]["m"]

    def test_zero_noise_without_seed_is_deterministic(self, universe, tmp_path):
        first, second = (self.select(universe, tmp_path / f"{i}.json", "--zero-noise") for i in range(2))
        assert first == second
        assert first["m"] == self.F1 and first["seed"] is None


class TestBenchRange:
    def test_schema_and_sweep(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench-range", "--ks", "50,200", "--n", "20",
                   "--alpha", "0.5", "--delta", "0.05",
                   "--mechanism", "em", "--trials", "4000", "--seed", "1",
                   "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        config_lines = [l for l in lines if l.startswith("#")]
        assert any("alpha=0.5" in l for l in config_lines)
        rows = list(csv.reader(l for l in lines if not l.startswith("#")))
        assert rows[0] == ["mechanism", "K", "n", "alpha", "trials", "success_rate", "mean_quality"]
        assert [r[1] for r in rows[1:]] == ["50", "200"]

    def test_em_success_matches_closed_form(self, tmp_path):
        import math

        out = tmp_path / "bench.csv"
        run("bench-range", "--ks", "100", "--n", "20", "--alpha", "0.5",
            "--mechanism", "em", "--trials", "20000", "--seed", "7", "--out", str(out))
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rate = float(rows[1].split(",")[5])
        expected = math.exp(5) / (99 + math.exp(5))
        assert abs(rate - expected) < 0.02

    def test_lmm_stays_strong_at_scale(self, tmp_path):
        out = tmp_path / "bench.csv"
        run("bench-range", "--ks", "100,10000", "--n", "500", "--alpha", "1",
            "--delta", "0.05", "--mechanism", "lmm", "--trials", "2000",
            "--seed", "5", "--out", str(out))
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        for row in rows[1:]:
            assert float(row[5]) >= 0.97

    def test_output_has_unix_line_endings(self, tmp_path, capsys):
        # the # key=value header lines end in \n, and so must the csv rows
        out = tmp_path / "bench.csv"
        argv = ["bench-range", "--ks", "10,100", "--mechanism", "em,lmm", "--trials", "50"]
        assert run(*argv, "--out", str(out)) == EXIT_OK
        assert run(*argv) == EXIT_OK
        written, printed = out.read_bytes(), capsys.readouterr().out
        assert b"\r" not in written and "\r" not in printed
        assert written.decode() == printed and len(written.splitlines()) == 9 + 1 + 4

    @pytest.mark.parametrize("flag, value, message", [
        ("--mechanism", "", "bench-range needs --mechanism, e.g. --mechanism em,lmm"),
        ("--mechanism", ",", "bench-range needs --mechanism, e.g. --mechanism em,lmm"),
        ("--ks", ",", "bench-range needs --ks, e.g. --ks 100,10000"),
    ], ids=["no-mechanism", "comma-mechanism", "comma-ks"])
    def test_empty_list_exits_one_and_writes_nothing(self, tmp_path, capsys, flag, value, message):
        # a sweep with no mechanism or no size would write a header-only table
        out = tmp_path / "bench.csv"
        argv = {"--ks": "10", "--mechanism": "em"} | {flag: value}
        assert run("bench-range", *(x for kv in argv.items() for x in kv), "--trials", "10",
                   "--out", str(out)) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestAudit:
    def test_identical_pair_passes(self, tmp_path):
        path = tmp_path / "u.json"
        save_universe(QualityUniverse.dense([0.6, 0.4], n=10), path)
        prefix = tmp_path / "report"
        code = run("audit", "--pair", str(path), str(path), "--mechanism", "em",
                   "--alpha", "1", "--delta", "0", "--trials", "2000",
                   "--seed", "3", "--out", str(prefix))
        assert code == EXIT_OK
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()

    def test_summary_reports_throughput(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        save_universe(QualityUniverse.dense([0.6, 0.4], n=10), path)
        prefix = tmp_path / "report"
        code = run("audit", "--pair", str(path), str(path), "--mechanism", "em",
                   "--trials", "2000", "--out", str(prefix))
        assert code == EXIT_OK
        summary = capsys.readouterr().out
        meta = json.loads((tmp_path / "report.json").read_text())["metadata"]
        assert f"{meta['trials_per_s']:,.0f} trials/s on 1 worker(s)" in summary

    def test_overclaimed_alpha_flagged(self, tmp_path):
        left, right = tmp_path / "l.json", tmp_path / "r.json"
        save_universe(QualityUniverse.dense([0.1, 0.0], n=10), left)
        save_universe(QualityUniverse.dense([0.0, 0.1], n=10), right)
        prefix = tmp_path / "report"
        code = run("audit", "--pair", str(left), str(right), "--mechanism", "em",
                   "--alpha", "1", "--delta", "0", "--claim-alpha", "0.2",
                   "--trials", "20000", "--seed", "11", "--out", str(prefix))
        assert code == EXIT_VIOLATION
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["violations"] > 0

    def test_threshold_example_generator(self, tmp_path):
        prefix = tmp_path / "report"
        code = run("audit", "--generator", "threshold-example", "--k", "4", "--n", "10",
                   "--mechanism", "lmm", "--alpha", "0.5", "--delta", "0.05",
                   "--trials", "5000", "--seed", "2", "--out", str(prefix))
        assert code == EXIT_OK

    def test_lb2_generator_records_regime(self, tmp_path):
        prefix = tmp_path / "report"
        code = run("audit", "--generator", "lb2-family", "--ell", "9", "--n", "20",
                   "--mechanism", "lmm", "--alpha", "0.5", "--delta", "0.02",
                   "--trials", "5000", "--seed", "2", "--out", str(prefix))
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["kind"] == "group_privacy"
        assert doc["metadata"]["delta_within_lower_bound_regime"] is True

    def test_largest_seed_audits(self, tmp_path):
        code = run("audit", "--generator", "threshold-example", "--trials", "2000",
                   "--seed", str(2**64 - 1), "--out", str(tmp_path / "report"))
        assert code == EXIT_OK

    def test_basket_neighbor_generator(self, tmp_path):
        baskets = tmp_path / "baskets.txt"
        baskets.write_text("a b\nb c\na c\nb c\n")
        prefix = tmp_path / "report"
        code = run("audit", "--generator", "basket-neighbor", "--baskets", str(baskets),
                   "--index", "0", "--replacement", "a c", "--r", "2",
                   "--mechanism", "em", "--alpha", "1", "--delta", "0",
                   "--trials", "5000", "--seed", "6", "--out", str(prefix))
        assert code == EXIT_OK


class TestFim:
    def test_identical_baskets_zero_gap(self, tmp_path):
        baskets = tmp_path / "baskets.txt"
        baskets.write_text("a b\na b\na b\n")
        out = tmp_path / "fim.json"
        code = run("fim", "--baskets", str(baskets), "--r", "2", "--mechanism", "lmm",
                   "--alpha", "1", "--delta", "0.05", "--zero-noise", "--non-private", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["itemset"] == ["a", "b"]
        assert doc["non_private"]["gap"] == 0.0
        assert doc["non_private"]["universe_provenance"] == "data-derived"

    def test_inflated_vocab_marks_a_priori(self, tmp_path):
        baskets = tmp_path / "baskets.txt"
        baskets.write_text("a b\n" * 300 + "b c\n" * 100)
        out = tmp_path / "fim.json"
        code = run("fim", "--baskets", str(baskets), "--r", "2", "--mechanism", "lmm",
                   "--alpha", "1", "--delta", "0.05", "--vocab-size", "50",
                   "--zero-noise", "--non-private", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())["non_private"]
        assert doc["universe_provenance"] == "a-priori"
        assert doc["em_exact_expected_gap"] > 0.0
        assert doc["universe_size"] == str(50 * 49 // 2)

    def test_csv_quotes_fields(self, tmp_path):
        baskets = tmp_path / "baskets.txt"
        baskets.write_text("a,b c\na,b c d\n")
        out = tmp_path / "fim.csv"
        # a large alpha puts the zero-noise exponential stage on the top itemset
        run("fim", "--baskets", str(baskets), "--alpha", "50", "--zero-noise",
            "--format", "csv", "--out", str(out))
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {2}
        assert dict(rows)["itemset"] == "a,b c"

    def test_missing_baskets(self):
        assert run("fim", "--r", "2") == EXIT_ERROR

    @pytest.mark.parametrize("mechanism", ["em", "mol"])
    def test_pure_dp_mechanism_at_delta_zero(self, tmp_path, mechanism):
        # the required margin needs delta > 0, so it is null for a pure-DP run
        baskets = tmp_path / "baskets.txt"
        baskets.write_text("a b\n" * 30 + "b c\n" * 10)
        out = tmp_path / "fim.json"
        code = run("fim", "--baskets", str(baskets), "--r", "2", "--mechanism", mechanism,
                   "--alpha", "1", "--delta", "0", "--seed", "4", "--non-private", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["delta"] == 0.0 and doc["non_private"]["required_margin"] is None
        assert doc["itemset"] in (["a", "b"], ["a", "c"], ["b", "c"])


class TestPac:
    def _spec(self, tmp_path, **fields):
        spec = {
            "num_hypotheses": 5,
            "n": 400,
            "d": 2,
            "error_profile": [0.05, 0.3, 0.35, 0.4, 0.5],
        } | fields
        path = tmp_path / "class.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_selects_best_under_zero_noise(self, tmp_path):
        out = tmp_path / "pac.json"
        code = run("pac", "--spec", self._spec(tmp_path), "--alpha", "1",
                   "--delta", "0.05", "--zero-noise", "--non-private", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["hypothesis"] == 0
        assert doc["non_private"]["regret"] == 0.0
        sizes = doc["non_private"]["shell_sizes"]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("mechanism", ["em", "mol"])
    def test_pure_dp_mechanism_at_delta_zero(self, tmp_path, mechanism):
        # the selection constant and t* need delta > 0, so they are null
        out = tmp_path / "pac.json"
        code = run("pac", "--spec", self._spec(tmp_path), "--mechanism", mechanism,
                   "--alpha", "1", "--delta", "0", "--seed", "4", "--non-private", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["delta"] == 0.0 and 0 <= doc["hypothesis"] < 5
        exact = doc["non_private"]
        assert exact["selection_constant"] is None
        assert exact["t_star"] is None and exact["t_star_exhausted"] is None

    def test_bad_spec_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_hypotheses": 2, "n": 100, "d": 1,
                                    "error_profile": [0.1]}))
        assert run("pac", "--spec", path.__str__(), "--alpha", "1", "--delta", "0.05") == EXIT_ERROR

    def test_missing_spec(self):
        assert run("pac") == EXIT_ERROR

    @pytest.mark.parametrize("field, bad", [("num_hypotheses", 5.0), ("n", 400.5), ("d", True),
                                            ("d", "2"), ("n", None)])
    def test_non_integer_spec_field_rejected(self, tmp_path, capsys, field, bad):
        # int() would read 5.0 as 5, truncate 400.5, read true as 1 and parse "2"
        assert run("pac", "--spec", self._spec(tmp_path, **{field: bad})) == EXIT_ERROR
        assert f"field '{field}' must be an integer" in capsys.readouterr().err

    def test_non_object_spec_rejected(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text("42")
        assert run("pac", "--spec", str(path)) == EXIT_ERROR
        assert "class spec must be a JSON object, got int" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, message", [
        (["0.1", True, 0.3, 0.4, 0.5], "must hold only numbers, got '0.1'"),
        ([0.05, True, 0.35, 0.4, 0.5], "must hold only numbers, got True"),
        ([0.05, 0.3, None, 0.4, 0.5], "must hold only numbers, got None"),
        ("0.05 0.3 0.35 0.4 0.5", "must be an array of numbers, got str"),
    ])
    def test_non_number_error_profile_rejected(self, tmp_path, capsys, profile, message):
        # float() would read "0.1" as 0.1 and true as 1.0
        assert run("pac", "--spec", self._spec(tmp_path, error_profile=profile)) == EXIT_ERROR
        assert f"field 'error_profile' {message}" in capsys.readouterr().err

    def test_integer_beyond_float_range_error_profile_rejected(self, tmp_path, capsys):
        profile = [0.05, 0.3, 0.35, 0.4, 10**400]
        assert run("pac", "--spec", self._spec(tmp_path, error_profile=profile)) == EXIT_ERROR
        assert "field 'error_profile' holds an integer too large for a float" in capsys.readouterr().err

    def test_integer_errors_accepted(self, tmp_path):
        code = run("pac", "--spec", self._spec(tmp_path, error_profile=[0, 1, 1, 1, 1]),
                   "--zero-noise", "--out", str(tmp_path / "pac.json"))
        assert code == EXIT_OK

    def test_integer_errors_print_as_floats(self, tmp_path):
        # an all-float profile is read as it is, and one holding integers as a float copy
        out = tmp_path / "pac.json"
        code = run("pac", "--spec", self._spec(tmp_path, error_profile=[1, 0, 0.5, 1, 1]),
                   "--zero-noise", "--non-private", "--out", str(out))
        assert code == EXIT_OK
        text = out.read_text()
        assert '"error": 0.0,' in text and '"min_error": 0.0,' in text
        payload = json.loads(text)
        assert payload["hypothesis"] == 1
        assert type(payload["error"]) is float and type(payload["non_private"]["regret"]) is float

    def test_missing_spec_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"num_hypotheses": 1, "n": 400, "error_profile": [0.1]}))
        assert run("pac", "--spec", str(path)) == EXIT_ERROR
        assert "missing field 'd'" in capsys.readouterr().err

    def test_missing_error_profile_rejected(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(json.dumps({"num_hypotheses": 1, "n": 400, "d": 2}))
        assert run("pac", "--spec", str(path)) == EXIT_ERROR
        assert "missing field 'error_profile'" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("flags, profile, code", [
        (["--mechanism", "lmm", "--seed", "4"], None, EXIT_OK),
        (["--mechanism", "em", "--delta", "0", "--seed", "4"], None, EXIT_OK),
        (["--mechanism", "mol", "--delta", "0", "--seed", "4"], None, EXIT_OK),
        (["--zero-noise"], None, EXIT_OK),
        # a tied top pair: st13's zero-noise gap is 0, so it returns Fail
        (["--mechanism", "st13", "--zero-noise"], [0.05, 0.05, 0.35, 0.4, 0.5], EXIT_FAIL),
    ], ids=["lmm", "em", "mol", "zero-noise", "st13-fail"])
    def test_split_output_is_the_serial_one(self, tmp_path, fmt, flags, profile, code):
        # pac selects and, under --non-private, then computes the shells of
        # the spec's errors, in one process; the CSV rows are the JSON
        # payload's fields, in its order, with the non_private object's
        # fields as non_private.<key> rows after the release's
        errors = profile or [0.05, 0.3, 0.35, 0.4, 0.5]
        spec = self._spec(tmp_path, error_profile=errors)
        payloads = []
        for exact in ([], ["--non-private"]):
            outs = {}
            for f in dict.fromkeys(("json", fmt)):
                outs[f] = tmp_path / f"pac.{f}"
                assert run("pac", "--spec", spec, *flags, *exact, "--format", f, "--out", str(outs[f])) == code
            payload = json.loads(outs["json"].read_text())
            if fmt == "csv":
                with open(outs["csv"], newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                flat = [(key, value) for key, value in payload.items() if key != "non_private"]
                flat += [(f"non_private.{key}", value) for key, value in payload.get("non_private", {}).items()]
                assert rows == [["key", "value"]] + [
                    [key, " ".join(map(str, value)) if isinstance(value, list) else str(value)]
                    for key, value in flat]
            payloads.append(payload)
        release, full = payloads
        if code == EXIT_FAIL:
            # a declined run prints the fail record alone, with or without the flag
            assert list(release) == list(full) == ["outcome", "alpha", "delta", "seed"]
            return
        keys = ["item", "m", "ell", "certified", "alpha", "delta", "seed", "hypothesis", "error"]
        assert list(release) == keys
        assert list(full) == keys + ["non_private"]
        assert {key: full[key] for key in keys} == release
        exact = full["non_private"]
        assert list(exact) == ["min_error", "regret", "regret_in_noise_units", "shell_sizes",
                               "shell_width", "t_star", "t_star_exhausted", "selection_constant"]
        shells = shell_decomposition(errors, d=2, n=400, delta0=0.05)
        assert release["hypothesis"] == release["item"] - 1
        assert release["error"] == errors[release["hypothesis"]]
        assert exact["min_error"] == shells.min_err
        assert exact["regret"] == release["error"] - exact["min_error"]
        assert exact["shell_sizes"] == list(shells.shell_sizes)
        assert exact["shell_width"] == shells.width

    @pytest.mark.parametrize("fields, flags, message", [
        ({"error_profile": [0.05, math.nan, 0.35, 0.4, 0.5]}, [],
         "explicit values and the fill value must all be finite"),
        ({"d": 0}, [], "need d >= 1 and n > 1, got d=0, n=400"),
        ({"n": 1}, [], "need d >= 1 and n > 1, got d=2, n=1"),
        ({}, ["--c0", "0"], "C0 must be positive, got 0.0"),
        ({}, ["--delta0", "0"], "delta0 must lie in (0, 1), got 0.0"),
        ({}, ["--cap", "9"], "cap 9 outside [1, 5]"),
        # the selection's errors (a non-finite error, --seed, --cap) come
        # before the shells' arguments
        ({}, ["--c0", "0", "--cap", "9"], "cap 9 outside [1, 5]"),
    ], ids=["nan", "d0", "n1", "c0", "delta0", "cap", "c0-and-cap"])
    def test_split_errors_are_the_serial_ones(self, tmp_path, capsys, fields, flags, message):
        assert run("pac", "--spec", self._spec(tmp_path, **fields), *flags) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_declined_run_still_checks_the_shell_arguments(self, tmp_path, capsys):
        # st13 declines on a tied top pair, and a bad --c0 still exits 1
        spec = self._spec(tmp_path, error_profile=[0.05, 0.05, 0.35, 0.4, 0.5])
        assert run("pac", "--spec", spec, "--mechanism", "st13", "--zero-noise") == EXIT_FAIL
        capsys.readouterr()
        assert run("pac", "--spec", spec, "--mechanism", "st13", "--zero-noise", "--c0", "0") == EXIT_ERROR
        assert capsys.readouterr() == ("", "error: C0 must be positive, got 0.0\n")


# the exact statistics a driver computes only under --non-private, by the
# privmax.cli global it looks each up at
EXACT_STATISTICS = {"pac": ("shell_decomposition", "t_star", "pac_selection_constant"),
                    "fim": ("em_expected_gap",)}


@pytest.mark.parametrize("command", ["pac", "fim"])
def test_exact_statistics_run_only_under_non_private(command, tmp_path, monkeypatch):
    import privmax.cli

    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"num_hypotheses": 5, "n": 400, "d": 2,
                                "error_profile": [0.05, 0.3, 0.35, 0.4, 0.5]}))
    baskets = tmp_path / "baskets.txt"
    baskets.write_text("a b\n" * 30 + "b c\n" * 10)
    argv = ([command, "--spec", str(spec)] if command == "pac" else [command, "--baskets", str(baskets)])
    argv += ["--seed", "4", "--out", str(tmp_path / "out.json")]
    names = [name for group in EXACT_STATISTICS.values() for name in group]
    calls = dict.fromkeys(names, 0)
    allowed = False

    def guarded(name, fn):
        def wrapper(*args, **kwargs):
            if not allowed:
                raise AssertionError(f"a default {command} call ran {name}")
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(privmax.cli, name, guarded(name, getattr(privmax.cli, name)))
    assert run(*argv) == EXIT_OK
    assert "non_private" not in json.loads((tmp_path / "out.json").read_text())
    allowed = True
    assert run(*argv, "--non-private") == EXIT_OK
    assert "non_private" in json.loads((tmp_path / "out.json").read_text())
    assert calls == {name: int(name in EXACT_STATISTICS[command]) for name in names}


# a neighbouring pair of inputs per driver, and the public outcome a fake
# mechanism releases on both sides. fim's D' moves one {e, f} basket to
# {c, d}: itemset ab keeps its support but its rank, its id, moves from 2 to
# 1, and the top support from 11 to 10. pac's D' moves hypothesis 0's error
# by 1/n; its id is the hypothesis index + 1 on both sides
PURITY_SIDES = {
    "fim": (10 * ["a b"] + 9 * ["c d"] + 11 * ["e f"], 10 * ["a b"] + 10 * ["c d"] + 10 * ["e f"]),
    "pac": ([0.1, 0.3, 0.3, 0.5], [0.2, 0.3, 0.3, 0.5]),
}
# every field of a default payload, in its order; fim's f_max and pac's
# error are exact statistics of the data until they leave the release
PURITY_FIELDS = {
    "fim": ("m", "ell", "certified", "alpha", "delta", "seed", "itemset", "f_max"),
    "pac": ("item", "m", "ell", "certified", "alpha", "delta", "seed", "hypothesis", "error"),
}
STILL_EXACT = {("fim", "f_max"), ("pac", "error")}


@pytest.fixture(scope="module")
def purity_payloads(tmp_path_factory):
    """Command -> the default payloads of D and D', each side's run
    releasing the itemset ab or hypothesis 0 under that side's id."""
    import privmax.cli
    from privmax import MechanismOutcome, itemset_quality, load_baskets

    root = tmp_path_factory.mktemp("purity")
    payloads = {}
    for command, sides in PURITY_SIDES.items():
        payloads[command] = []
        for side, data in enumerate(sides):
            path = root / f"{command}-{side}"
            if command == "fim":
                path.write_text("".join(line + "\n" for line in data))
                universe, codec = itemset_quality(load_baskets(path), 2)
                item = next(i for i in range(1, universe.k + 1) if codec.decode(i) == ("a", "b"))
                argv = ["fim", "--baskets", str(path)]
            else:
                path.write_text(json.dumps({"num_hypotheses": len(data), "n": 10, "d": 1, "error_profile": data}))
                item = 1  # hypothesis 0
                argv = ["pac", "--spec", str(path)]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(privmax.cli, "build_mechanism",
                           lambda name, budget, cap=None: lambda u, src: MechanismOutcome(item, budget, 0.5, 2, True))
                assert run(*argv, "--seed", "3", "--out", str(root / "out.json")) == EXIT_OK
            payloads[command].append((root / "out.json").read_text())
    return payloads


@pytest.mark.parametrize("command", sorted(PURITY_FIELDS))
def test_payload_fields_are_listed(command, purity_payloads):
    # a field a payload gains must join PURITY_FIELDS, which checks it below
    for text in purity_payloads[command]:
        assert tuple(json.loads(text)) == PURITY_FIELDS[command]


@pytest.mark.parametrize("command, field", [
    pytest.param(command, field, marks=pytest.mark.xfail(strict=True, reason="an exact statistic of the data"))
    if (command, field) in STILL_EXACT else (command, field)
    for command, fields in sorted(PURITY_FIELDS.items()) for field in fields
], ids=lambda value: value)
def test_payload_field_is_public(command, field, purity_payloads):
    # one public outcome on neighbouring inputs: the field prints the same bytes on both sides
    left, right = (json.dumps(json.loads(text)[field]) for text in purity_payloads[command])
    assert left == right


@pytest.mark.parametrize("command", ["select", "bench-range"])
def test_negative_seed_exits_one(command, clear_universe, capsys):
    extra = ["--in", clear_universe] if command == "select" else ["--ks", "10", "--trials", "10"]
    assert run(command, *extra, "--seed", "-5") == EXIT_ERROR
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--in", "{missing}"],
        ["fim", "--baskets", "{missing}"],
        ["pac", "--spec", "{missing}"],
        ["bench-range", "--ks", "10,100", "--mechanism", "em,bogus"],
        ["audit", "--pair", "{missing}", "{missing}"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_mechanism_rejected_by_registry_before_input(argv, tmp_path, capsys):
    # the input paths do not exist: the name must be rejected before any input is read
    missing = str(tmp_path / "missing")
    argv = [a.format(missing=missing) for a in argv]
    if "--mechanism" not in argv:
        argv += ["--mechanism", "bogus"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "unknown mechanism 'bogus'; registered: em, mol, st13, lmm" in err


# every option string each command registers, --help aside: a flag a command
# does not read is parsed and silently ignored, so it is not registered
COMMON = {"--alpha", "--delta", "--seed", "--mechanism", "--cap", "--out"}
OPTIONS = {
    "select": COMMON | {"--zero-noise", "--format", "--in"},
    "bench-range": COMMON | {"--zero-noise", "--trials", "--ks", "--n"},
    "audit": COMMON | {"--trials", "--pair", "--note", "--generator", "--confidence",
                       "--claim-alpha", "--claim-delta", "--k", "--n", "--ell", "--baskets",
                       "--index", "--replacement", "--r"},
    "fim": COMMON | {"--zero-noise", "--format", "--eta", "--baskets", "--r", "--vocab-size",
                     "--non-private"},
    "pac": COMMON | {"--zero-noise", "--format", "--spec", "--c0", "--delta0", "--non-private"},
}


def test_option_surface():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {
        command: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for command, p in sub.choices.items()
    }
    assert registered == {command: sorted(opts) for command, opts in OPTIONS.items()}
    assert sum(map(len, registered.values())) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--zero-noise"],
        ["select", "--trials", "5"],
        ["bench-range", "--ks", "10", "--format", "json"],
        ["pac", "--in", "x"],
        ["select", "--eta", "0.3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_flag_a_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
