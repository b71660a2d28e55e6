"""Command-line front end: run mechanisms, benchmarks, audits, and the two
application drivers with seeded reproducibility.

Every command is a deterministic function of (inputs, flags, seed); the seed
defaults to the PRIVMAX_SEED environment variable, then 0. Exit codes:

    0  success
    1  runtime error (bad input file, invalid configuration)
    2  usage error (argparse)
    3  the gap mechanism returned Fail
    4  the adaptive mechanism fell back uncertified (cap exhausted)
    5  an audit reported at least one violation

Each subcommand registers only the flags it reads. --zero-noise, taken by
select, bench-range, fim and pac, replaces every noise draw with its median
for deterministic traces. It is NOT private; it exists for CI and debugging
only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import (
    PrivacyBudget,
    QualityUniverse,
    json_int,
    json_numbers,
    load_universe,
    order_stat,
)
from .noise import NoiseSource
from .mechanisms import (
    Fail,
    build_mechanism,
    lmm_quality_radius,
    lmm_required_margin,
)
from .audit import (
    FAIL_KEY,
    NeighborPair,
    _fan_out,
    _fan_out_width,
    build_lb2_family,
    build_threshold_example,
    check_approx_dp,
    check_group_privacy,
    em_expected_gap,
    estimate_distribution,
    lb2_delta_bound,
)
from .applications import (
    ShellDecomposition,
    itemset_quality,  # noqa: F401  (perfbench's layer trace wraps this name here)
    load_baskets,
    load_itemset_quality,
    pac_selection_constant,
    shell_decomposition,
    t_star,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 3
EXIT_UNCERTIFIED = 4
EXIT_VIOLATION = 5


def _default_seed() -> int:
    raw = os.environ.get("PRIVMAX_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PRIVMAX_SEED must be an integer, got {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Flags every command reads."""
    parser.add_argument("--alpha", type=float, default=1.0, help="privacy loss alpha")
    parser.add_argument("--delta", type=float, default=0.05, help="failure probability delta")
    parser.add_argument("--seed", type=int, default=None, help="base seed (default: $PRIVMAX_SEED or 0)")
    parser.add_argument(
        "--mechanism", default="lmm", help="mechanism name: em, mol, st13, lmm (comma list where supported)"
    )
    parser.add_argument("--cap", type=int, default=None, help="rank cap for the adaptive mechanism")
    parser.add_argument("--out", default=None, help="output file path (default: stdout)")


def _add_zero_noise(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--zero-noise", action="store_true", help="deterministic zero-noise trace; NOT private"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags _noise and _emit read, for the commands that run one mechanism once."""
    _add_zero_noise(parser)
    parser.add_argument("--format", choices=("csv", "json"), default="json", help="output format")


def _seed_of(args) -> int:
    return _default_seed() if args.seed is None else args.seed


def _config_dict(args) -> dict:
    """The bench-range flags, recorded in its CSV header."""
    keys = ("alpha", "delta", "trials", "mechanism", "cap", "zero_noise", "ks", "n")
    cfg = {k: getattr(args, k) for k in keys}
    cfg["seed"] = _seed_of(args)
    return cfg


def _emit(args, payload: dict) -> None:
    if args.format == "csv":
        import csv  # imported on use, so `import privmax` does not load it
        import io

        # flat key,value rows: plot-ready form of the same payload, each field
        # quoted as RFC 4180 needs; None stays None and a list is space-joined
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows([key, " ".join(map(str, value)) if isinstance(value, list) else str(value)]
                         for key, value in payload.items())
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv_rows(path, header: list[str], rows: list[list], config: dict) -> None:
    import csv  # imported on use, so `import privmax` does not load it

    out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        for key, value in sorted(config.items()):
            out.write(f"# {key}={value}\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _noise(args) -> NoiseSource:
    """The seeded source of a command that runs one mechanism once."""
    return NoiseSource(_seed_of(args), zero_override=args.zero_noise)


def _emit_outcome(args, result, details=None) -> int:
    """Emit ``result``, the outcome of one mechanism run on ``_noise(args)``.

    A Fail is emitted as its own record with exit code EXIT_FAIL. A released
    outcome is emitted with ``details(outcome)`` merged in, if given, and
    exits EXIT_OK when certified, else EXIT_UNCERTIFIED.
    """
    seed = _seed_of(args)
    if isinstance(result, Fail):
        budget = result.budget
        _emit(args, {"outcome": "fail", "alpha": budget.alpha, "delta": budget.delta, "seed": seed})
        return EXIT_FAIL
    payload = result._replace(seed=seed).to_json_dict()
    if details is not None:
        payload.update(details(result))
    _emit(args, payload)
    return EXIT_OK if result.certified else EXIT_UNCERTIFIED


def cmd_select(args) -> int:
    if args.input is None:
        raise ValueError("select needs --in with a universe JSON file")
    budget = PrivacyBudget(args.alpha, args.delta)
    mech = build_mechanism(args.mechanism, budget, cap=args.cap)
    return _emit_outcome(args, mech(load_universe(args.input), _noise(args)))


def cmd_bench_range(args) -> int:
    ks = [int(x) for x in args.ks.split(",") if x]
    if not ks:
        raise ValueError("bench-range needs --ks, e.g. --ks 100,10000")
    names = [m for m in args.mechanism.split(",") if m]
    budget = PrivacyBudget(args.alpha, args.delta)
    mechs = [build_mechanism(name, budget, cap=args.cap) for name in names]
    base = NoiseSource(_seed_of(args))
    rows = []
    for row_index, k in enumerate(ks):
        u = build_threshold_example(k, [1] * args.n)
        for mech_index, (name, mech) in enumerate(zip(names, mechs)):
            # each table cell audits its own hashed child seed
            cell_seed = base.spawn(row_index * len(names) + mech_index).seed
            freqs = estimate_distribution(mech, u, args.trials, cell_seed,
                                          zero_override=args.zero_noise)
            # a Fail contributes quality 0 and no success
            quality = math.fsum(p * u.value(i) for i, p in freqs.items() if i != FAIL_KEY)
            rows.append(
                [name, k, u.n, budget.alpha, args.trials,
                 f"{freqs.get(1, 0.0):.6f}", f"{quality:.6f}"]
            )
    _write_csv_rows(args.out, ["mechanism", "K", "n", "alpha", "trials", "success_rate", "mean_quality"],
                    rows, _config_dict(args))
    return EXIT_OK


def _build_audit_pair(args):
    if args.pair:
        left = load_universe(args.pair[0])
        right = load_universe(args.pair[1])
        return NeighborPair(left, right, provenance=args.note or "user-supplied pair"), None
    if args.generator == "threshold-example":
        n = args.n
        k = 4 if args.k is None else args.k
        left = build_threshold_example(k, [1] * n)
        right = build_threshold_example(k, [2] + [1] * (n - 1))
        pair = NeighborPair(left, right, provenance="threshold example: one entry raised 1 -> 2")
        return pair, None
    if args.generator == "lb2-family":
        family, m = build_lb2_family(args.ell, args.n, args.alpha, universe_size=args.k)
        return None, (family[0], family[1], m)
    if args.generator == "basket-neighbor":
        from .applications import basket_neighbor_pair

        if not args.baskets or args.replacement is None:
            raise ValueError("basket-neighbor needs --baskets and --replacement")
        d = load_baskets(args.baskets)
        pair = basket_neighbor_pair(d, args.index, args.replacement.split(), args.r)
        return pair, None
    raise ValueError("audit needs either --pair LEFT RIGHT or --generator NAME")


def cmd_audit(args) -> int:
    budget = PrivacyBudget(args.alpha, args.delta)
    claim = PrivacyBudget(
        args.claim_alpha if args.claim_alpha is not None else args.alpha,
        args.claim_delta if args.claim_delta is not None else args.delta,
    )
    mech = build_mechanism(args.mechanism, budget, cap=args.cap)
    seed = _seed_of(args)
    pair, group = _build_audit_pair(args)
    if group is not None:
        far, near, m = group
        report = check_group_privacy(
            far, near, m, mech, claim, args.trials,
            confidence=args.confidence, seed=seed,
            provenance=f"hard-family members 1 and 2, differing in m={m} records",
        )
        report.metadata["delta_bound"] = lb2_delta_bound(args.ell, claim.alpha)
        report.metadata["delta_within_lower_bound_regime"] = (
            claim.delta <= report.metadata["delta_bound"]
        )
    else:
        report = check_approx_dp(
            pair, mech, claim, args.trials, confidence=args.confidence, seed=seed
        )
    prefix = args.out or "audit_report"
    report.write_json(f"{prefix}.json")
    report.write_csv(f"{prefix}.csv")
    status = "PASS" if report.passed else "FAIL"
    run = report.metadata
    print(f"{status}: {len(report.violations)} violation(s) across {len(report.checks)} checks "
          f"(slack {report.slack:.5f}); {run['trials_per_s']:,.0f} trials/s on {run['workers']} "
          f"worker(s); wrote {prefix}.json, {prefix}.csv")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_fim(args) -> int:
    if args.baskets is None:
        raise ValueError("fim needs --baskets")
    budget = PrivacyBudget(args.alpha, args.delta)
    mech = build_mechanism(args.mechanism, budget, cap=args.cap)
    universe, codec = load_itemset_quality(args.baskets, args.r, vocab_size=args.vocab_size)

    def details(result):
        f_max = order_stat(universe, 1)
        gap = f_max - universe.value(result.item)
        na = universe.n * budget.alpha
        ell_star = max(universe.explicit_count, 1)
        return {
            "itemset": list(codec.decode(result.item)),
            "f_max": f_max,
            "gap": gap,
            "gap_in_noise_units": gap * na,  # multiples of 1/(n*alpha)
            "universe_size": str(universe.k),
            "occurring_itemsets": universe.explicit_count,
            "quality_radius": lmm_quality_radius(universe.n, budget.alpha, args.eta, ell_star),
            # the margin exists only for delta > 0; em and mol also run at delta = 0
            "required_margin": (lmm_required_margin(universe.n, budget.alpha, budget.delta, args.eta, ell_star)
                                if budget.delta > 0.0 else None),
            "em_exact_expected_gap": em_expected_gap(universe, budget.alpha),
            "universe_provenance": "a-priori" if args.vocab_size else "data-derived",
        }

    return _emit_outcome(args, mech(universe, _noise(args)), details)


# the shells are counted in a forked child while this process selects only
# from this many hypotheses up: the fork and the round trip of its result cost
# about 3 ms, and in a cold call the split breaks even near 20k hypotheses
_MIN_SPLIT_HYPOTHESES = 30_000


def cmd_pac(args) -> int:
    """Select a hypothesis of the spec's class privately and report its
    regret and the class's error shells.

    The selection runs on the dense universe of qualities 1 - error. The
    shells, ``t_star`` and ``pac_selection_constant`` feed only the report.
    On two usable cores or more, from ``_MIN_SPLIT_HYPOTHESES`` hypotheses
    up, they are counted in a child forked through :func:`audit._fan_out`
    while this process builds the universe and selects; the child sends the
    shell fields and the selection diagnostics back as plain values, and
    the record is rebuilt here. The output is the same either way. If a
    part or the worker fails, the serial path runs instead and raises its
    own error, in its order: the universe's, the shells', then the plan's.
    """
    if args.spec is None:
        raise ValueError("pac needs --spec with a class spec JSON file")
    budget = PrivacyBudget(args.alpha, args.delta)
    mech = build_mechanism(args.mechanism, budget, cap=args.cap)
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"class spec must be a JSON object, got {type(spec).__name__}")
    num_hypotheses, n, d = (json_int(spec, field) for field in ("num_hypotheses", "n", "d"))
    errors = json_numbers(spec, "error_profile")
    if len(errors) != num_hypotheses:
        raise ValueError("error_profile length must equal num_hypotheses")

    def universe():
        return QualityUniverse.dense([1.0 - e for e in errors], n=n)

    def diagnostics():
        """The shell fields as a plain tuple and the selection diagnostics,
        which marshal sends from a forked child."""
        shells = shell_decomposition(errors, d=d, n=n, delta0=args.delta0, C0=args.c0)
        # the selection constant and t* exist only for delta > 0; em and mol
        # also run at delta = 0, where all three diagnostics are null
        selection = dict.fromkeys(("t_star", "t_star_exhausted", "selection_constant"))
        if budget.delta > 0.0:
            ell_ref = shells.shell_sizes[min(1, shells.R)]
            constant = pac_selection_constant(n, args.alpha, args.delta, max(ell_ref, 2))
            ts = t_star(shells, args.alpha, args.delta, d, n, C=constant)
            selection.update(t_star=ts.t, t_star_exhausted=ts.exhausted, selection_constant=constant)
        return tuple(shells), selection

    parts = None
    if len(errors) >= _MIN_SPLIT_HYPOTHESES and _fan_out_width(2, 1) > 1:
        try:
            parts = _fan_out(lambda part: part(), [lambda: mech(universe(), _noise(args)), diagnostics])
        except Exception:
            pass  # the serial path below raises the error in its own words
    if parts is None:
        u = universe()
        diagnosed = diagnostics()
        parts = [mech(u, _noise(args)), diagnosed]
    result, (fields, selection) = parts
    shells = ShellDecomposition(*fields)

    def details(result):
        best = shells.min_err
        chosen = errors[result.item - 1]
        return {
            "hypothesis": result.item - 1,
            "error": chosen,
            "min_error": best,
            "regret": chosen - best,
            "regret_in_noise_units": (chosen - best) * n * budget.alpha,
            "shell_sizes": list(shells.shell_sizes),
            "shell_width": shells.width,
            **selection,
        }

    return _emit_outcome(args, result, details)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privmax",
        description="Differentially private selection: mechanisms, audits, benchmarks, drivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="run one mechanism on a universe file")
    _add_common(p)
    _add_run_flags(p)
    p.add_argument("--in", dest="input", default=None, help="universe JSON file")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bench-range", help="success-rate sweep over universe sizes")
    _add_common(p)
    _add_zero_noise(p)
    p.add_argument("--trials", type=int, default=20000, help="Monte Carlo trials per table cell")
    p.add_argument("--ks", required=True, help="comma-separated universe sizes")
    p.add_argument("--n", type=int, default=20, help="dataset size for the generated instances")
    p.set_defaults(func=cmd_bench_range)

    p = sub.add_parser("audit", help="statistical approximate-DP audit on a neighbor pair")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100000, help="Monte Carlo trials per side")
    p.add_argument("--pair", nargs=2, metavar=("LEFT", "RIGHT"), help="two universe JSON files")
    p.add_argument("--note", default=None, help="provenance note for a user-supplied pair")
    p.add_argument(
        "--generator",
        choices=("threshold-example", "lb2-family", "basket-neighbor"),
        default=None,
        help="named neighbor-pair generator",
    )
    p.add_argument("--confidence", type=float, default=0.99, help="slack confidence level")
    p.add_argument(
        "--claim-alpha", type=float, default=None,
        help="audit this alpha claim instead of the mechanism's run alpha",
    )
    p.add_argument(
        "--claim-delta", type=float, default=None,
        help="audit this delta claim instead of the mechanism's run delta",
    )
    p.add_argument("--k", type=int, default=None, help="universe size for generators (threshold-example: 4)")
    p.add_argument("--n", type=int, default=10, help="dataset size for generators")
    p.add_argument("--ell", type=int, default=9, help="family size for lb2-family")
    p.add_argument("--baskets", default=None, help="basket file for basket-neighbor")
    p.add_argument("--index", type=int, default=0, help="basket index to replace")
    p.add_argument("--replacement", default=None, help="replacement basket tokens")
    p.add_argument("--r", type=int, default=2, help="itemset size for basket-neighbor")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("fim", help="private frequent-itemset selection")
    _add_common(p)
    _add_run_flags(p)
    p.add_argument("--eta", type=float, default=0.05, help="utility confidence parameter")
    p.add_argument("--baskets", default=None, help="basket file (one basket per line)")
    p.add_argument("--r", type=int, default=2, help="itemset size")
    p.add_argument(
        "--vocab-size", type=int, default=None,
        help="a-priori vocabulary size (>= observed tokens); marks the universe a-priori",
    )
    p.set_defaults(func=cmd_fim)

    p = sub.add_parser("pac", help="private hypothesis selection with shell decomposition")
    _add_common(p)
    _add_run_flags(p)
    p.add_argument("--spec", default=None, help="synthetic class spec JSON")
    p.add_argument("--c0", type=float, default=1.0, help="uniform-convergence constant")
    p.add_argument("--delta0", type=float, default=0.05, help="uniform-convergence confidence")
    p.set_defaults(func=cmd_pac)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
