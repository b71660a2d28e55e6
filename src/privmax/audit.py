"""Statistical falsification harness for (alpha, delta)-DP claims.

The audits estimate a mechanism's outcome distribution on two neighboring
universes and test, per singleton outcome and in both directions, the
inequality P(i) <= e^alpha * P'(i) + delta with a two-sided Hoeffding slack.
A failing audit is a bug signal; a passing audit is evidence, not proof --
singleton checks over finitely many sampled outcomes cannot certify privacy.

An audit samples only what is random. For a bound LMM plan on at most as
many items as trials, it samples stages 1 and 2 alone, counts the ell each
run certifies, and takes stage 3 from its exact law given ell: P(i) =
sum_ell P^(ell) P(i | ell), a conditional Monte Carlo (Rao-Blackwell)
estimate, unbiased and of no larger variance, whose slack is the same.
Every other mechanism, and estimate_distribution, samples whole runs. The
report's metadata names the estimator and, when it is conditional, each
side's run counts per ell, so an LMM audit shows which search paths it
reached.

Also here: the adversarial instance families used as audit fixtures and
utility benchmarks, and the exact (no-sampling) expected quality gap of the
exponential mechanism.
"""

from __future__ import annotations

import marshal
import math
import os
import time
from collections import _count_elements
from itertools import islice, repeat, zip_longest
from operator import itemgetter
from typing import Callable, Hashable, NamedTuple, Sequence

from .core import PrivacyBudget, QualityUniverse, checked_make, order_stat, require_alpha
from .noise import NoiseSource

# an audit whose statistical slack exceeds this cannot certify anything useful
_SLACK_WARN = 0.1

# per-side seed offset, mod 2^64, so left/right estimates never share a stream
_RIGHT_SEED_OFFSET = 1 << 32

# trials per noise stream in estimate_distribution: seeding a Mersenne Twister
# costs far more than a trial's few draws, so a stream serves a whole shard
_SHARD_TRIALS = 1024

# the item of a run, read in C: index 0 of a plan's release tuple and of a
# MechanismOutcome alike
_item = itemgetter(0)

# the ell of a margin search, index 1 of the (m, ell) of an LMM plan's searches
_ell = itemgetter(1)

# an audit forks one worker per usable core, but only while each worker gets
# at least this many shards: a two-part fan-out round trip costs about one
# shard (2.5-2.8 ms against 2.0-2.9 ms for a 1,024-trial shard of the
# benchmark's audit-lmm pair, 2-core host, Python 3.11), so the fork stays
# near an eighth of a worker's work
_MIN_SHARDS_PER_WORKER = 8


def hoeffding_slack(trials: int, confidence: float = 0.99) -> float:
    """Two-sided Hoeffding deviation bound for one empirical frequency."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def estimate_distribution(
    mechanism: Callable,
    u: QualityUniverse,
    trials: int,
    seed: int,
    zero_override: bool = False,
) -> dict:
    """Empirical outcome frequencies over ``trials`` runs of ``mechanism``.

    Trials are cut into shards of ``_SHARD_TRIALS``; shard j draws from the
    hashed child stream ``NoiseSource(seed).spawn(j)``, and its trials consume
    that one stream in order. Aggregation is order-independent and any shard
    can be replayed on its own, so the shards run on every usable core (see
    :func:`_estimate_jobs`) and the result is the same for any number of them.
    A bound plan's shard counts its release tuples (``plan.releases(src)``)
    without building a MechanismOutcome per trial (see :func:`_count_tasks`).
    Outcomes are keyed by their item (``FAIL_KEY`` for a declined st13
    run); ``zero_override`` propagates the deterministic noise mode, the
    source's generator (see :mod:`privmax.mechanisms`), to every shard.
    """
    (freqs,), _, _ = _estimate_jobs([(mechanism, u, trials, seed, zero_override)])
    return freqs


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set where the platform
    reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _estimate_jobs(jobs: list[tuple], conditional: bool = False) -> tuple[list[dict], list | None, list[int]]:
    """Outcome frequencies of each job ``(mechanism, universe, trials, seed,
    zero_override)``, each job's run counts per ell (ascending, None last)
    when they were estimated conditionally, else None, and the pid of the
    process that counted each fan-out part, in part order.

    Each job is cut into ``(job, shard)`` tasks, which are dealt round-robin
    to ``_fan_out_width(tasks, _MIN_SHARDS_PER_WORKER)`` workers and counted
    by :func:`_fan_out`, which counts here the slice of a worker whose fork
    or child fails. Each job's mechanism is bound to its universe once,
    here, before any fork (see :func:`_bind`), so a bind error raises in this
    process. A child inherits the bound runs, so nothing is pickled, and it
    sends its pid and its counts, plain dicts, through ``marshal``; a part
    counted again here has this process's pid. An outcome key that marshal
    cannot send (not an int, string or tuple of them) is not an error: each
    child sends nothing, so its shards are counted again here, and every pid
    returned is this process's. Shard counts are merged in task order, so
    each dict equals the serial estimate, key order included, for any worker
    count and any failed worker.

    With ``conditional``, and when every bound plan has ``searches`` (an
    LMM plan whose function no wrapper replaced) and every universe has at
    most as many items as its job has trials, the shards sample only each
    run's stages 1 and 2 and count its ell (see :func:`_count_tasks`);
    after the merge, the plan's ``law`` turns the ell frequencies into the
    item law sum_ell P^(ell) * P(item | ell), the conditional
    (Rao-Blackwell) estimate. It is unbiased, its variance is never larger than the
    sampled one's, and each of its frequencies is still a mean of trials
    values in [0, 1], so the per-outcome Hoeffding slack holds unchanged.
    The rule reads only the plans, the universes and the trial counts, so it
    is decided before any sampling; the k bound keeps the law no larger than
    the sampled estimate could be. Otherwise each shard counts the items of
    whole runs.
    """
    tasks = []
    for j, (_, _, trials, _, _) in enumerate(jobs):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        tasks += [(j, shard) for shard in range(-(-trials // _SHARD_TRIALS))]
    runs = [_bind(mechanism, u) for mechanism, u, _, _, _ in jobs]
    conditional = conditional and all(hasattr(run, "searches") and u.k <= trials
                                      for run, (_, u, trials, _, _) in zip(runs, jobs))
    # (bound run, trials, base stream, conditional) per job
    bound = [(run, trials, NoiseSource(seed, zero_override=zero_override), conditional)
             for run, (_, _, trials, seed, zero_override) in zip(runs, jobs)]
    width = _fan_out_width(len(tasks), _MIN_SHARDS_PER_WORKER)
    slices = [tasks[w::width] for w in range(width)]

    def count_slice(part: list[tuple]) -> tuple[int, list[dict]]:
        return os.getpid(), _count_tasks(bound, part)

    shard_counts, pids = {}, []
    for part, (pid, counts) in zip(slices, _fan_out(count_slice, slices)):
        pids.append(pid)
        shard_counts.update(zip(part, counts))
    totals = [{} for _ in jobs]
    for j, shard in tasks:
        total = totals[j]
        for key, c in shard_counts[j, shard].items():
            total[key] = total.get(key, 0) + c
    freqs = [{k: c / trials for k, c in total.items()}
             for (_, _, trials, _, _), total in zip(jobs, totals)]
    if conditional:
        # each job's runs per ell, ascending, the cap path's None last
        ells = [dict(sorted(total.items(), key=lambda kv: kv[0] or math.inf)) for total in totals]
        return [run.law(f) for run, f in zip(runs, freqs)], ells, pids
    return freqs, None, pids


def _fan_out_width(units: int, min_units: int) -> int:
    """Workers for ``units`` of work: one per usable core, while each gets at
    least ``min_units`` of it, and one where ``os.fork`` does not exist."""
    cores = _usable_cores() if hasattr(os, "fork") else 1
    return max(1, min(cores, units // min_units))


def _fan_out(work: Callable, parts: list) -> list:
    """``[work(part) for part in parts]``, the library's one fork fan-out,
    which counts an audit's shards, and the one place that handles a failed
    fork or worker.

    This process runs ``work(parts[0])``; each other part runs in a child
    forked before it, which inherits ``work`` and its part, so nothing is
    pickled, and sends ``marshal`` of its result back through a pipe. So a
    result must be marshal-able: ints, floats, strings, and tuples, lists
    and plain dicts of them. A part runs here instead, in part order, when
    its child sends nothing readable (its ``work`` raised, say) or when its
    fork, or an earlier part's, raises ``OSError``; so the first error
    raised is the list's first error. If anything raises, every child still
    running is killed; every child is reaped either way.
    """
    children = []  # (pid, read end of its pipe) of each forked part, in part order
    try:
        try:
            for part in parts[1:]:
                children.append(_fork_worker(work, part))
        except OSError:
            pass  # this part and every later one run here
        results = [work(parts[0])]
        for part, child in zip_longest(parts[1:], children):
            sent = _receive(child[1]) if child else []
            results += sent or [work(part)]
    except BaseException:
        if children:
            import signal  # only a failed fan-out needs it

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, source in children:
            source.close()
            os.waitpid(pid, 0)
    return results


def _bind(mechanism: Callable, u: QualityUniverse) -> Callable:
    """``mechanism.bind(u)``, the plan (or run(src) callable) that does the
    per-universe work once; a mechanism without ``bind`` is called as
    ``mechanism(u, src)``."""
    bind = getattr(mechanism, "bind", None)
    if bind is None:
        return lambda src: mechanism(u, src)
    return bind(u)


def _count_tasks(bound: list[tuple], tasks: list[tuple]) -> list[dict]:
    """Outcome counts of each ``(job, shard)`` task, in task order.

    A job is bound as ``(run, trials, base stream, conditional)``. A shard's
    trials are successive runs on its one stream, ``base.spawn(shard)``:
    with ``conditional``, the first ``size`` (m, ell) pairs of
    ``run.searches(src)``, an LMM plan's stages 1 and 2, keyed by their
    ell (None on the cap path); else the first ``size`` release tuples of
    ``run.releases(src)`` when the bound object has ``releases`` (a bound
    plan), or ``size`` calls of it (a bindless mechanism, or the run a
    replaced mechanism function binds to), keyed by index 0, the item of a
    release tuple and of a MechanismOutcome alike. A plan's loop draws under
    the draw contract of :mod:`privmax.mechanisms`. Each shard's counts are
    a plain dict in first-seen key order, counted in C; not a Counter, which
    ``marshal`` cannot send from a forked child."""
    out = []
    for j, shard in tasks:
        run, trials, base, conditional = bound[j]
        src = base.spawn(shard)
        size = min(_SHARD_TRIALS, trials - shard * _SHARD_TRIALS)
        releases = getattr(run, "releases", None)
        if conditional:
            keys = map(_ell, islice(run.searches(src), size))
        elif releases is None:
            keys = map(_item, map(run, repeat(src, size)))
        else:
            keys = map(_item, islice(releases(src), size))
        counts = {}
        _count_elements(counts, keys)
        out.append(counts)
    return out


def _fork_worker(work: Callable, part):
    """Fork a child that runs ``work(part)`` and writes ``marshal`` of its
    result to a pipe, or nothing if ``work`` raises; returns the child's pid
    and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child leaves by os._exit, error or not, and never returns into its caller
        try:
            os.close(read_fd)
            data = marshal.dumps(work(part))
            with open(write_fd, "wb") as sink:
                sink.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(source) -> list:
    """A one-item list of the result a forked child sent, or ``[]`` if it
    sent nothing readable."""
    with source:
        data = source.read()
    try:
        return [marshal.loads(data)]
    except (EOFError, ValueError, TypeError):
        return []


class NeighborPair(
    NamedTuple("NeighborPair", [("left", QualityUniverse), ("right", QualityUniverse), ("provenance", str)])
):
    """Two universes whose values differ by at most 1/n per item: the
    Lipschitz witness for a single-record change. Checked on construction."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, left: QualityUniverse, right: QualityUniverse, provenance: str = "") -> NeighborPair:
        lu, ru = left, right
        if lu.k != ru.k or lu.n != ru.n:
            raise ValueError("neighbor universes must share k and n")
        bound = 1.0 / lu.n * (1.0 + 1e-9) + 1e-15
        # ids past both explicit parts lie in both fill blocks
        span = max(lu.explicit_count, ru.explicit_count)
        if span < lu.k and lu.fill != ru.fill:
            raise ValueError("neighbor universes must share the fill value")
        for i in range(1, span + 1):
            if abs(lu.value(i) - ru.value(i)) > bound:
                raise ValueError(
                    f"item {i} moves by {abs(lu.value(i) - ru.value(i)):.6g} > 1/n = {1.0 / lu.n:.6g}"
                )
        return super().__new__(cls, left, right, provenance)


class OutcomeCheck(NamedTuple):
    """One slack-adjusted inequality check for a single outcome."""

    outcome: Hashable
    direction: str  # "left_vs_right" or "right_vs_left"
    p_left: float
    p_right: float
    bound: float
    slack: float
    passed: bool


class AuditReport:
    """Per-outcome probabilities and pass/fail results for one audit run.

    ``metadata`` and ``warnings`` default to a fresh dict and list per report.
    """

    def __init__(
        self,
        kind: str,
        alpha: float,
        delta: float,
        slack: float,
        checks: list[OutcomeCheck],
        trials: int | None = None,
        confidence: float | None = None,
        group_size: int = 1,
        metadata: dict | None = None,
        warnings: list[str] | None = None,
    ) -> None:
        self.kind = kind
        self.alpha = alpha
        self.delta = delta
        self.slack = slack
        self.checks = checks
        self.trials = trials
        self.confidence = confidence
        self.group_size = group_size
        self.metadata = {} if metadata is None else metadata
        self.warnings = [] if warnings is None else warnings

    @property
    def violations(self) -> list[OutcomeCheck]:
        return [c for c in self.checks if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha": self.alpha,
            "delta": self.delta,
            "trials": self.trials,
            "confidence": self.confidence,
            "slack": self.slack,
            "group_size": self.group_size,
            "passed": self.passed,
            "violations": len(self.violations),
            "warnings": self.warnings,
            "metadata": self.metadata,
            "checks": [c._asdict() for c in self.checks],
        }

    def write_json(self, path) -> None:
        import json  # imported on use, as csv is in write_csv

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    def write_csv(self, path) -> None:
        import csv  # imported on use, so `import privmax` does not load it

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outcome", "direction", "p_left", "p_right", "bound", "slack", "pass"])
            for c in self.checks:
                writer.writerow(
                    [c.outcome, c.direction, f"{c.p_left:.10g}", f"{c.p_right:.10g}",
                     f"{c.bound:.10g}", f"{c.slack:.10g}", c.passed]
                )


def dp_outcome_checks(
    p_left: dict, p_right: dict, alpha: float, delta: float, slack: float = 0.0
) -> list[OutcomeCheck]:
    """Per-outcome approximate-DP checks in both directions.

    Direction left_vs_right asserts p_left(i) <= e^alpha * p_right(i) + delta
    + slack * (1 + e^alpha); the slack term covers estimation error on both
    sides (upper on the left, lower on the right). slack = 0 gives the exact
    check for brute-force distributions.
    """
    ea = math.exp(alpha)
    return _outcome_checks(p_left, p_right, slack, ea, delta, slack * (1.0 + ea), lower=False)


def group_outcome_checks(
    p_left: dict, p_right: dict, k: int, alpha: float, delta: float, slack: float = 0.0
) -> list[OutcomeCheck]:
    """Per-outcome group-privacy lower-bound checks across a k-record change:

        p_left(i) >= e^(-k alpha) * p_right(i) - delta/(1 - e^(-alpha)) - slack-term

    and symmetrically for the other direction.
    """
    if k < 0:
        raise ValueError(f"group size must be >= 0, got {k}")
    eka = math.exp(-k * alpha)
    leak = delta / (1.0 - math.exp(-alpha)) if delta > 0.0 else 0.0
    # IEEE x - y is x + (-y): the bounds are eka * p - leak - slack * (1 + eka), bit for bit
    return _outcome_checks(p_left, p_right, slack, eka, -leak, -(slack * (1.0 + eka)), lower=True)


def _outcome_checks(p_left: dict, p_right: dict, slack: float, scale: float, shift: float,
                    margin: float, lower: bool) -> list[OutcomeCheck]:
    """Both directions' checks of every outcome, in str order: one side's p
    against the bound ``scale * other + shift + margin``, summed in that order;
    a check passes when p <= bound, or p >= bound if ``lower``."""
    checks = []
    for key in sorted(set(p_left) | set(p_right), key=str):
        pl = p_left.get(key, 0.0)
        pr = p_right.get(key, 0.0)
        for direction, p, other in (("left_vs_right", pl, pr), ("right_vs_left", pr, pl)):
            bound = scale * other + shift + margin
            checks.append(OutcomeCheck(key, direction, pl, pr, bound, slack,
                                       p >= bound if lower else p <= bound))
    return checks


def _audit(kind: str, left: QualityUniverse, right: QualityUniverse, mechanism: Callable,
           budget: PrivacyBudget, trials: int, confidence: float, seed: int, provenance: str,
           checks: Callable, group_size: int = 1) -> AuditReport:
    """The one audit path: validate the inputs, estimate both sides in one
    :func:`_estimate_jobs` fan-out, conditionally where it can, run
    ``checks(p_left, p_right, slack)`` and build the report, which warns when
    a fan-out part was counted again in this process. The right side
    draws from (seed + _RIGHT_SEED_OFFSET) mod 2^64, so every seed in
    [0, 2^64) is valid and gives two streams."""
    slack = hoeffding_slack(trials, confidence)
    if group_size < 0:
        raise ValueError(f"group size must be >= 0, got {group_size}")
    t0 = time.perf_counter()
    (p_left, p_right), ells, pids = _estimate_jobs(
        [(mechanism, left, trials, seed, False),
         (mechanism, right, trials, (seed + _RIGHT_SEED_OFFSET) % (1 << 64), False)],
        conditional=True,
    )
    wall = time.perf_counter() - t0
    workers = len(set(pids))
    warnings = []
    if slack > _SLACK_WARN:
        warnings.append(
            f"slack {slack:.4f} exceeds {_SLACK_WARN}; increase trials for a meaningful audit"
        )
    if workers < len(pids):
        warnings.append(
            f"{len(pids) - workers} of {len(pids)} fan-out parts were counted again in the calling "
            "process: their fork failed or their worker sent nothing readable (say, an outcome "
            "that marshal cannot send)"
        )
    metadata = {"provenance": provenance, "seed": seed, "workers": workers, "wall_s": wall,
                "trials_per_s": 2 * trials / wall, "estimator": "conditional" if ells else "sampled",
                "ell_counts": dict(zip(("left", "right"), ells)) if ells else None}
    return AuditReport(
        kind=kind, alpha=budget.alpha, delta=budget.delta, slack=slack,
        checks=checks(p_left, p_right, slack), trials=trials, confidence=confidence,
        group_size=group_size, metadata=metadata, warnings=warnings,
    )


def check_approx_dp(
    pair: NeighborPair,
    mechanism: Callable,
    budget: PrivacyBudget,
    trials: int,
    confidence: float = 0.99,
    seed: int = 0,
) -> AuditReport:
    """Monte Carlo approximate-DP audit of ``mechanism`` on a neighbor pair.

    Estimates both outcome distributions (independent derived seeds per side),
    then runs the per-outcome inequality in both directions at the stated
    confidence. Singleton outcome sets only; see the module docstring for what
    a pass does and does not mean. The metadata records how the estimates ran:
    ``workers``, ``wall_s`` and ``trials_per_s`` (both sides' trials).
    """
    return _audit(
        "approx_dp", pair.left, pair.right, mechanism, budget, trials, confidence, seed,
        pair.provenance,
        lambda pl, pr, slack: dp_outcome_checks(pl, pr, budget.alpha, budget.delta, slack),
    )


def check_group_privacy(
    u_far: QualityUniverse,
    u_near: QualityUniverse,
    k: int,
    mechanism: Callable,
    budget: PrivacyBudget,
    trials: int,
    confidence: float = 0.99,
    seed: int = 0,
    provenance: str = "",
) -> AuditReport:
    """Group-privacy audit across universes differing by a k-step neighbor
    chain; its metadata records the run as :func:`check_approx_dp`'s does."""
    return _audit(
        "group_privacy", u_far, u_near, mechanism, budget, trials, confidence, seed, provenance,
        lambda pl, pr, slack: group_outcome_checks(pl, pr, k, budget.alpha, budget.delta, slack),
        group_size=k,
    )


def build_threshold_example(K: int, entries: Sequence[int]) -> QualityUniverse:
    """Counting instance over items 1..K from integer dataset entries.

    value(i) = |{j : entries_j >= i}| / n, which is nonincreasing in i; stored
    in compact form (explicit values down to the last nonzero, fill 0). With
    all entries equal to 1 this is the clear-maximizer instance whose top item
    survives any n/2 - 1 record changes.
    """
    entries = [int(e) for e in entries]
    if not entries:
        raise ValueError("entries must be nonempty")
    if any(not 1 <= e <= K for e in entries):
        raise ValueError(f"entries must lie in [1, {K}]")
    n = len(entries)
    top = max(entries)
    ge_counts = [0] * (top + 2)
    for e in entries:
        ge_counts[e] += 1
    # suffix-sum: count of entries >= i
    for i in range(top - 1, 0, -1):
        ge_counts[i] += ge_counts[i + 1]
    values = [ge_counts[i] / n for i in range(1, top + 1)]
    return QualityUniverse.sparse(values, k=K, n=n)


def lb2_delta_bound(ell: int, alpha: float) -> float:
    """Largest delta for which the near-maximizer lower bound applies to the
    hard family: (1 - e^(-alpha)) / (2 (ell - 1))."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    require_alpha(alpha)
    return (1.0 - math.exp(-alpha)) / (2.0 * (ell - 1))


def build_lb2_family(
    ell: int, n: int, alpha: float, universe_size: int | None = None
) -> tuple[list[QualityUniverse], int]:
    """Hard family of ell universes for the near-maximizer lower bound.

    Family member i scores 1/2 + m/n at item i, 1/2 at the other items of
    1..ell, and 0 elsewhere, where m = floor(min(n/2, ln((ell-1)/2)/alpha)).
    It arises from datasets whose first n/2 records are the full set 1..ell,
    next n/2 - m records empty, and last m records {i} -- so any two members
    differ in exactly m records, and each satisfies the (ell, m/n)-margin
    condition with its own item on top.

    Returns the family and m. universe_size pads the universe with zero items
    beyond ell (default: exactly ell items).
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    require_alpha(alpha)
    m = math.floor(min(n / 2.0, math.log((ell - 1) / 2.0) / alpha))
    if m < 1:
        raise ValueError(
            f"degenerate family: floor(min(n/2, ln((ell-1)/2)/alpha)) = {m} < 1"
        )
    k = ell if universe_size is None else universe_size
    if k < ell:
        raise ValueError(f"universe_size {k} smaller than ell {ell}")
    family = []
    for i in range(1, ell + 1):
        values = [0.5] * ell + [0.0] * (k - ell)
        values[i - 1] = 0.5 + m / n
        family.append(QualityUniverse.dense(values, n=n))
    return family, m


def em_expected_gap(u: QualityUniverse, alpha: float) -> float:
    """Exact expected quality gap E[f(1) - f(I)] of the exponential mechanism.

    Closed form over explicit values plus the collapsed fill block, so it is
    O(L) even for combinatorially large k. This is what makes the mechanism's
    range-dependence visible when the universe is padded: the fill block's
    weight share grows with k while every sampled run still looks perfect.
    """
    require_alpha(alpha)
    rate = 0.5 * u.n * alpha
    vmax = order_stat(u, 1)
    n_fill = u.k - len(u.explicit)
    weights = []
    for v in u.explicit:
        w = math.exp(rate * (v - vmax))
        # a fill block keeps the explicit values descending, so the weights
        # descend too: past the first one that underflows to 0.0, every
        # weight and gap term is an exact zero, which neither fsum reads
        if not w and n_fill:
            break
        weights.append(w)
    w_fill = math.exp(rate * (u.fill - vmax)) if n_fill > 0 else 0.0
    total = math.fsum(weights) + n_fill * w_fill
    gap = math.fsum(w * (vmax - v) for w, v in zip(weights, u.explicit))
    gap += n_fill * w_fill * (vmax - u.fill)
    return gap / total
