"""Golden seeded CLI outputs: seeded streams are part of the public contract.

Every case runs ``cli.main`` on inputs generated here from fixed seeds and
compares its exit code and stdout, byte for byte, with ``golden_cli.json``.
An audit case compares its exit code and the report CSV it writes instead:
its stdout prints the measured trials per second, and the CSV holds no
timings.
A change that alters any seeded output fails here; a deliberate stream
change regenerates the file and says so in CHANGES.md.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from privmax import QualityUniverse, save_universe
from privmax.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SEEDS = (0, 7)
SELECT_MECHANISMS = ("lmm", "em", "st13", "mol")
AUDIT_TRIALS = str(12 * 1024)


def write_inputs(root: Path) -> dict:
    """Write the generated inputs under ``root`` and return their paths."""
    rng = random.Random(20141)
    n = 40
    # dense, on the 1/n lattice: heavy ties, a tied top pair and +-0.0 entries
    values = [rng.randint(0, 30) / n for _ in range(300)]
    values[17] = values[211] = 36 / n
    for j in (3, 50, 120):
        values[j] = -0.0
    for j in (4, 51):
        values[j] = 0.0
    dense = root / "dense.json"
    save_universe(QualityUniverse.dense(values, n=n), dense)

    nonzeros = sorted((rng.randint(1, 60) / 200 for _ in range(50)), reverse=True)
    sparse = root / "sparse.json"
    save_universe(QualityUniverse.sparse(nonzeros, k=10**9, n=200), sparse)

    # pac: 2,000 hypotheses, a small near-best cluster and a long tail
    m = 2000
    errors = [rng.randint(100, 110) / m for _ in range(15)]
    errors += [rng.randint(150, 1000) / m for _ in range(2000 - len(errors))]
    rng.shuffle(errors)
    spec = root / "spec.json"
    spec.write_text(json.dumps({"num_hypotheses": len(errors), "n": m, "d": 3,
                                "error_profile": errors}))

    # 300 baskets over 30 tokens, one pair planted in a third of them
    tokens = [f"tok{i:02d}" for i in range(30)]
    lines = []
    for _ in range(300):
        basket = rng.sample(tokens, rng.randint(1, 5))
        if rng.random() < 1 / 3:
            basket += ["tok03", "tok17"]
        lines.append(" ".join(basket))
    baskets = root / "baskets.txt"
    baskets.write_text("\n".join(lines) + "\n")
    return {"dense": str(dense), "sparse": str(sparse), "spec": str(spec), "baskets": str(baskets),
            "audit": str(root / "audit")}


def cases() -> dict:
    """Case id -> argv, with input paths as ``{name}`` placeholders."""
    out = {}
    for seed in SEEDS:
        for zero in (False, True):
            tail = ["--seed", str(seed)] + (["--zero-noise"] if zero else [])
            tag = f"s{seed}{'-zero' if zero else ''}"
            for universe in ("dense", "sparse"):
                for mech in SELECT_MECHANISMS:
                    out[f"select-{universe}-{mech}-{tag}"] = [
                        "select", "--in", "{" + universe + "}", "--mechanism", mech] + tail
            out[f"pac-{tag}"] = ["pac", "--spec", "{spec}"] + tail
            for r in (1, 2, 3):
                fim = ["fim", "--baskets", "{baskets}", "--r", str(r)]
                out[f"fim-r{r}-{tag}"] = fim + tail
                out[f"fim-r{r}-v1000-{tag}"] = fim + ["--vocab-size", "1000"] + tail
        audit = ["audit", "--trials", AUDIT_TRIALS, "--seed", str(seed), "--out", "{audit}"]
        for mech in SELECT_MECHANISMS:
            out[f"audit-threshold-{mech}-s{seed}"] = audit + ["--generator", "threshold-example",
                                                              "--mechanism", mech]
        out[f"audit-lb2-s{seed}"] = audit + ["--generator", "lb2-family"]
        out[f"audit-basket-neighbor-s{seed}"] = audit + [
            "--generator", "basket-neighbor", "--baskets", "{baskets}", "--index", "3",
            "--replacement", "tok03 tok17 tok29"]
    as_csv = ["--format", "csv", "--seed", "0"]
    out["select-dense-lmm-csv"] = ["select", "--in", "{dense}"] + as_csv
    out["fim-r2-csv"] = ["fim", "--baskets", "{baskets}"] + as_csv
    out["pac-csv"] = ["pac", "--spec", "{spec}"] + as_csv
    # the exact statistics, nested under non_private (non_private.<key> rows in CSV)
    exact = ["--non-private", "--seed", "0"]
    out["pac-non-private-s0"] = ["pac", "--spec", "{spec}"] + exact
    out["pac-non-private-csv"] = ["pac", "--spec", "{spec}", "--format", "csv"] + exact
    out["fim-r2-non-private-s0"] = ["fim", "--baskets", "{baskets}"] + exact
    out["fim-r2-non-private-csv"] = ["fim", "--baskets", "{baskets}", "--format", "csv"] + exact
    return out


def run_case(argv: list[str], paths: dict) -> dict:
    argv = [a.format(**paths) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if argv[0] == "audit":
        report = Path(paths["audit"] + ".csv").read_bytes().decode("utf-8")
        return {"exit": code, "csv": report}
    return {"exit": code, "stdout": stdout.getvalue()}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_seeded_cli_output(case, paths, golden):
    assert run_case(cases()[case], paths) == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        generated = write_inputs(Path(tmp))
        expected = {case: run_case(argv, generated) for case, argv in sorted(cases().items())}
    GOLDEN.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} cases to {GOLDEN}")
