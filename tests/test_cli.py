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
from privmax import QualityUniverse, audit, cli, save_universe
from test_applications import _assert_no_child_left, _record_fan_outs


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

    def test_env_var_seed(self, clear_universe, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIVMAX_SEED", "41")
        out = tmp_path / "o.json"
        run("select", "--in", clear_universe, "--mechanism", "em",
            "--alpha", "1", "--out", str(out))
        assert json.loads(out.read_text())["seed"] == 41

    @pytest.mark.parametrize("raw", ["1.5", "abc", ""], ids=["float", "word", "empty"])
    def test_non_integer_env_var_seed_named(self, raw, clear_universe, monkeypatch, capsys):
        monkeypatch.setenv("PRIVMAX_SEED", raw)
        assert run("select", "--in", clear_universe) == EXIT_ERROR
        assert f"error: PRIVMAX_SEED must be an integer, got {raw!r}" in capsys.readouterr().err

    def test_csv_format(self, clear_universe, tmp_path):
        out = tmp_path / "o.csv"
        code = run("select", "--in", clear_universe, "--mechanism", "lmm",
                   "--alpha", "1", "--delta", "0.05", "--zero-noise",
                   "--format", "csv", "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert "item,1" in lines


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
                   "--alpha", "1", "--delta", "0.05", "--zero-noise", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["itemset"] == ["a", "b"]
        assert doc["gap"] == 0.0
        assert doc["universe_provenance"] == "data-derived"

    def test_inflated_vocab_marks_a_priori(self, tmp_path):
        baskets = tmp_path / "baskets.txt"
        baskets.write_text("a b\n" * 300 + "b c\n" * 100)
        out = tmp_path / "fim.json"
        code = run("fim", "--baskets", str(baskets), "--r", "2", "--mechanism", "lmm",
                   "--alpha", "1", "--delta", "0.05", "--vocab-size", "50",
                   "--zero-noise", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
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
                   "--alpha", "1", "--delta", "0", "--seed", "4", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["delta"] == 0.0 and doc["required_margin"] is None
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
                   "--delta", "0.05", "--zero-noise", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["hypothesis"] == 0
        assert doc["regret"] == 0.0
        sizes = doc["shell_sizes"]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("mechanism", ["em", "mol"])
    def test_pure_dp_mechanism_at_delta_zero(self, tmp_path, mechanism):
        # the selection constant and t* need delta > 0, so they are null
        out = tmp_path / "pac.json"
        code = run("pac", "--spec", self._spec(tmp_path), "--mechanism", mechanism,
                   "--alpha", "1", "--delta", "0", "--seed", "4", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["delta"] == 0.0 and 0 <= doc["hypothesis"] < 5
        assert doc["selection_constant"] is None
        assert doc["t_star"] is None and doc["t_star_exhausted"] is None

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
                   "--zero-noise", "--out", str(out))
        assert code == EXIT_OK
        text = out.read_text()
        assert '"error": 0.0,' in text and '"min_error": 0.0,' in text
        payload = json.loads(text)
        assert payload["hypothesis"] == 1
        assert type(payload["error"]) is float and type(payload["regret"]) is float

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
    def test_split_output_is_the_serial_one(self, tmp_path, monkeypatch, fmt, flags, profile, code):
        spec = self._spec(tmp_path, **({"error_profile": profile} if profile else {}))
        outputs = []
        for cores in (1, 2):
            fan_outs = _split_pac_on(monkeypatch, cores)
            out = tmp_path / f"pac-{cores}.{fmt}"
            assert run("pac", "--spec", spec, *flags, "--format", fmt, "--out", str(out)) == code
            assert fan_outs == ([2] if cores == 2 else [])
            _assert_no_child_left()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fields, flags, message", [
        ({"error_profile": [0.05, math.nan, 0.35, 0.4, 0.5]}, [],
         "explicit values and the fill value must all be finite"),
        ({"d": 0}, [], "need d >= 1 and n > 1, got d=0, n=400"),
        ({"n": 1}, [], "need d >= 1 and n > 1, got d=2, n=1"),
        ({}, ["--c0", "0"], "C0 must be positive, got 0.0"),
        ({}, ["--delta0", "0"], "delta0 must lie in (0, 1), got 0.0"),
        ({}, ["--cap", "9"], "cap 9 outside [1, 5]"),
        # the serial order checks the shells' arguments before the plan's cap
        ({}, ["--c0", "0", "--cap", "9"], "C0 must be positive, got 0.0"),
    ], ids=["nan", "d0", "n1", "c0", "delta0", "cap", "c0-and-cap"])
    def test_split_errors_are_the_serial_ones(self, tmp_path, monkeypatch, capsys, fields, flags, message):
        fan_outs = _split_pac_on(monkeypatch, 2)
        assert run("pac", "--spec", self._spec(tmp_path, **fields), *flags) == EXIT_ERROR
        assert fan_outs == [2]
        _assert_no_child_left()
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_small_class_stays_serial(self, tmp_path, monkeypatch):
        fan_outs = _split_pac_on(monkeypatch, 2)
        monkeypatch.setattr(cli, "_MIN_SPLIT_HYPOTHESES", 6)
        out = tmp_path / "pac.json"
        assert run("pac", "--spec", self._spec(tmp_path), "--zero-noise", "--out", str(out)) == EXIT_OK
        assert fan_outs == []


def _split_pac_on(monkeypatch, cores):
    """Run pac on ``cores`` usable cores, splitting every class from one
    hypothesis up; returns the list that records the part count of each
    fan-out."""
    monkeypatch.setattr(audit, "_usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "_MIN_SPLIT_HYPOTHESES", 1)
    return _record_fan_outs(monkeypatch, cli)


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
    "fim": COMMON | {"--zero-noise", "--format", "--eta", "--baskets", "--r", "--vocab-size"},
    "pac": COMMON | {"--zero-noise", "--format", "--spec", "--c0", "--delta0"},
}


def test_option_surface():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {
        command: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for command, p in sub.choices.items()
    }
    assert registered == {command: sorted(opts) for command, opts in OPTIONS.items()}
    assert sum(map(len, registered.values())) == 62


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
