"""Command-line front end: run mechanisms, benchmarks, audits, and the two
application drivers.

select, fim and pac without --seed draw secret noise and print no seed. A
seeded run replays as a function of (inputs, flags, seed), so it stays
private only while its seed stays secret. audit and bench-range default to
seed 0. Exit codes:

    0  success
    1  runtime error (bad input file, invalid configuration)
    2  usage error (argparse)
    3  the gap mechanism declined to release (an outcome whose item is FAIL_KEY)
    4  the adaptive mechanism fell back uncertified (cap exhausted)
    5  an audit reported at least one violation

Each subcommand registers only the flags it reads. --zero-noise, taken by
select, bench-range, fim and pac, replaces every noise draw with its median
for deterministic traces. It is NOT private; it exists for CI and debugging
only.

fim and pac print the release by default; fim prints the released itemset
and not its id, which ranks the itemset by its support in the data.
--non-private also computes their exact statistics of the data (pac's error
shells, t* and selection constant, fim's gap and exact expected EM gap, and
the rest) and nests them in one "non_private" object; that object is not
private. The seed and two exact fields the benchmark's checkers read, pac's
error and fim's f_max, stay at top level.
"""

from __future__ import annotations

import argparse
import json
import math
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
    FAIL_KEY,
    build_mechanism,
    lmm_quality_radius,
    lmm_required_margin,
)
from .audit import (
    NeighborPair,
    build_lb2_family,
    build_threshold_example,
    check_approx_dp,
    check_group_privacy,
    em_expected_gap,
    estimate_distribution,
    lb2_delta_bound,
)
from .applications import (
    itemset_quality,
    load_baskets,
    pac_selection_constant,
    shell_decomposition,
    shell_parameters,
    t_star,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 3
EXIT_UNCERTIFIED = 4
EXIT_VIOLATION = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Flags every command reads."""
    parser.add_argument("--alpha", type=float, default=1.0, help="privacy loss alpha")
    parser.add_argument("--delta", type=float, default=0.05, help="failure probability delta")
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
    parser.add_argument("--seed", type=int, default=None,
                        help="replayable seed, private only while secret (default: secret noise, no seed)")
    _add_zero_noise(parser)
    parser.add_argument("--format", choices=("csv", "json"), default="json", help="output format")


def _add_non_private(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--non-private", action="store_true",
        help="also compute exact statistics of the data, nested under non_private; NOT private",
    )


def _config_dict(args) -> dict:
    """The bench-range flags, recorded in its CSV header."""
    keys = ("alpha", "delta", "trials", "mechanism", "cap", "zero_noise", "ks", "n", "seed")
    return {k: getattr(args, k) for k in keys}


def _flat(payload: dict):
    """(key, value) pairs of ``payload``, a nested object's fields as
    ``outer.inner`` in its place."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from ((f"{key}.{inner}", v) for inner, v in value.items())
        else:
            yield key, value


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
                         for key, value in _flat(payload))
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
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _noise(args) -> NoiseSource:
    """The source of a command that runs one mechanism once: --seed's, else secret."""
    return NoiseSource(args.seed, zero_override=args.zero_noise)


def _emit_outcome(args, result, release=None, non_private=None, print_item=True) -> int:
    """Emit ``result``, the outcome of one mechanism run on ``_noise(args)``,
    with ``args.seed``, the run's only seed.

    A declined st13 run (item ``FAIL_KEY``) is emitted as the fail record
    with exit code EXIT_FAIL, and calls neither hook. A released outcome is
    emitted with its item id unless ``print_item`` is false, with
    ``release(outcome)`` merged in, if given, and under --non-private with
    ``non_private(outcome)`` as its last field, ``"non_private"``, the one
    place exact statistics of the data enter a payload; it exits EXIT_OK
    when certified, else EXIT_UNCERTIFIED.
    """
    budget = result.budget
    if result.item == FAIL_KEY:
        _emit(args, {"outcome": "fail", "alpha": budget.alpha, "delta": budget.delta, "seed": args.seed})
        return EXIT_FAIL
    payload = {"item": result.item, "m": result.m, "ell": result.ell, "certified": result.certified,
               "alpha": budget.alpha, "delta": budget.delta, "seed": args.seed}
    if not print_item:
        del payload["item"]
    if release is not None:
        payload.update(release(result))
    if non_private is not None and args.non_private:
        payload["non_private"] = non_private(result)
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
    if not names:
        raise ValueError("bench-range needs --mechanism, e.g. --mechanism em,lmm")
    budget = PrivacyBudget(args.alpha, args.delta)
    mechs = [build_mechanism(name, budget, cap=args.cap) for name in names]
    base = NoiseSource(args.seed)
    rows = []
    for row_index, k in enumerate(ks):
        u = build_threshold_example(k, [1] * args.n)
        for mech_index, (name, mech) in enumerate(zip(names, mechs)):
            # each table cell audits its own hashed child seed
            cell_seed = base.spawn(row_index * len(names) + mech_index).seed
            freqs = estimate_distribution(mech, u, args.trials, cell_seed,
                                          zero_override=args.zero_noise)
            # a declined st13 run contributes quality 0 and no success
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
    pair, group = _build_audit_pair(args)
    if group is not None:
        far, near, m = group
        report = check_group_privacy(
            far, near, m, mech, claim, args.trials,
            confidence=args.confidence, seed=args.seed,
            provenance=f"hard-family members 1 and 2, differing in m={m} records",
        )
        report.metadata["delta_bound"] = lb2_delta_bound(args.ell, claim.alpha)
        report.metadata["delta_within_lower_bound_regime"] = (
            claim.delta <= report.metadata["delta_bound"]
        )
    else:
        report = check_approx_dp(
            pair, mech, claim, args.trials, confidence=args.confidence, seed=args.seed
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
    universe, codec = itemset_quality(load_baskets(args.baskets), args.r, vocab_size=args.vocab_size)
    result = mech(universe, _noise(args))
    f_max = order_stat(universe, 1)

    def release(result):
        return {"itemset": list(codec.decode(result.item)), "f_max": f_max}

    def non_private(result):
        gap = f_max - universe.value(result.item)
        na = universe.n * budget.alpha
        ell_star = max(universe.explicit_count, 1)
        return {
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

    # a fim id is a rank by support, an exact statistic of the data, so the
    # payload names the itemset alone
    return _emit_outcome(args, result, release, non_private, print_item=False)


def cmd_pac(args) -> int:
    """Select a hypothesis of the spec's class privately; under
    --non-private, also report its regret and the class's error shells.

    The selection runs on the dense universe of qualities 1 - error. The
    shells, ``t_star`` and ``pac_selection_constant`` feed none of it, so
    they run only under --non-private and only for a released hypothesis:
    a declined st13 run prints none of them. The shells' scalar arguments
    are checked on every call, after the selection, so the first error
    raised is the selection's (a non-finite error, --seed, --cap), then the
    shells' (d, n, --c0, --delta0).
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
    result = mech(QualityUniverse.dense([1.0 - e for e in errors], n=n), _noise(args))
    shell_parameters(d, n, args.delta0, args.c0)  # checks them; the shells run only on request

    def release(result):
        return {"hypothesis": result.item - 1, "error": errors[result.item - 1]}

    def non_private(result):
        shells = shell_decomposition(errors, d=d, n=n, delta0=args.delta0, C0=args.c0)
        # the selection constant and t* exist only for delta > 0; em and mol
        # also run at delta = 0, where all three are null
        t, exhausted, constant = None, None, None
        if budget.delta > 0.0:
            ell_ref = shells.shell_sizes[min(1, shells.R)]
            constant = pac_selection_constant(n, args.alpha, args.delta, max(ell_ref, 2))
            t, exhausted = t_star(shells, args.alpha, args.delta, d, n, C=constant)
        best = shells.min_err
        chosen = errors[result.item - 1]
        return {
            "min_error": best,
            "regret": chosen - best,
            "regret_in_noise_units": (chosen - best) * n * budget.alpha,
            "shell_sizes": list(shells.shell_sizes),
            "shell_width": shells.width,
            "t_star": t,
            "t_star_exhausted": exhausted,
            "selection_constant": constant,
        }

    return _emit_outcome(args, result, release, non_private)


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
    p.add_argument("--seed", type=int, default=0, help="base seed of the sampled trials (default: 0)")
    _add_zero_noise(p)
    p.add_argument("--trials", type=int, default=20000, help="Monte Carlo trials per table cell")
    p.add_argument("--ks", required=True, help="comma-separated universe sizes")
    p.add_argument("--n", type=int, default=20, help="dataset size for the generated instances")
    p.set_defaults(func=cmd_bench_range)

    p = sub.add_parser("audit", help="statistical approximate-DP audit on a neighbor pair")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="base seed of the sampled trials (default: 0)")
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
    _add_non_private(p)
    p.set_defaults(func=cmd_fim)

    p = sub.add_parser("pac", help="private hypothesis selection, with its shell analysis on request")
    _add_common(p)
    _add_run_flags(p)
    _add_non_private(p)
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
