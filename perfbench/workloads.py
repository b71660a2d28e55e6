"""Seeded inputs and output checks for the three benchmark workloads.

Everything here is independent of privmax except the audit pair, which is a
pair of privmax universes by definition. Inputs depend only on the workload
seed; the checks never compare against exact seeded outputs, only against
properties every correct selection must have.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, combinations

ALPHA = 1.0
DELTA = 0.05

# pac-dense: dense, large-k hypothesis class with a tight near-best cluster
PAC_HYPOTHESES = 200_000
PAC_N = 20_000
PAC_D = 10
PAC_CLUSTER = 1_500  # 0.75 % of the class: the search certifies at this rank
PAC_CLUSTER_WIDTH = 60  # error counts; 60/n stays far below T(1)
PAC_GAP = 500  # error counts between cluster and rest; above T(1500) ~ 334/n

# fim-sparse: Zipf baskets over a small vocabulary, inflated a-priori vocabulary
FIM_BASKETS = 20_000
FIM_TOKENS = 400
FIM_MIN_LEN, FIM_MAX_LEN = 2, 8
FIM_ZIPF = 1.1
FIM_PLANT_SHARE = 0.4
FIM_R = 2
FIM_VOCAB = 1_000_000

# audit-lmm: dense k=8 neighbor pair with its top gaps at T(1) and T(2)
AUDIT_K = 8
AUDIT_N = 500
AUDIT_TRIALS = 50_000  # per side
AUDIT_CONFIDENCE = 0.99

# a rank is "materially" reached when at least this share of runs stop there
MATERIAL_SHARE = 0.05


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def call_seeds(workload: str, seed: int):
    """Endless stream of per-call mechanism seeds for one run."""
    rng = random.Random(f"{workload}/{seed}/calls")
    while True:
        yield rng.randrange(2**31)


# ---------------------------------------------------------------- pac-dense

def pac_errors(seed: int) -> list[float]:
    """Error profile: PAC_CLUSTER near-best hypotheses, the rest spread out.

    Errors are multiples of 1/n, as empirical errors on n points are.
    """
    rng = workload_rng("pac-dense", seed)
    best = rng.randint(PAC_N // 20, PAC_N // 8)
    counts = [best] + [best + rng.randint(0, PAC_CLUSTER_WIDTH) for _ in range(PAC_CLUSTER - 1)]
    lo = best + PAC_CLUSTER_WIDTH + PAC_GAP
    counts += [rng.randint(lo, lo + PAC_N // 3) for _ in range(PAC_HYPOTHESES - PAC_CLUSTER)]
    rng.shuffle(counts)
    return [c / PAC_N for c in counts]


def write_pac_spec(path, errors: list[float]) -> None:
    spec = {"num_hypotheses": len(errors), "n": PAC_N, "d": PAC_D, "error_profile": errors}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


class PacChecker:
    def __init__(self, errors: list[float]):
        self.errors = errors
        self.sorted_errors = sorted(errors)

    def __call__(self, code: int, out: dict | None) -> str | None:
        """None when the call's output is acceptable, else the reason."""
        if code not in (0, 4):
            return f"exit code {code}"
        h = len(self.errors)
        ell = out.get("ell")
        if not (isinstance(ell, int) and 1 <= ell <= h):
            return f"ell {ell!r} outside [1, {h}]"
        idx = out.get("hypothesis")
        if not (isinstance(idx, int) and 0 <= idx < h):
            return f"hypothesis {idx!r} outside [0, {h})"
        if out.get("error") != self.errors[idx]:
            return f"reported error {out.get('error')!r} != generated {self.errors[idx]!r}"
        if self.errors[idx] > self.sorted_errors[ell - 1]:
            return f"chosen error {self.errors[idx]} above the {ell}-th smallest {self.sorted_errors[ell - 1]}"
        return None


# --------------------------------------------------------------- fim-sparse

def fim_baskets(seed: int) -> list[list[str]]:
    """Zipf baskets with one planted pair in FIM_PLANT_SHARE of them."""
    rng = workload_rng("fim-sparse", seed)
    tokens = [f"w{i:03d}" for i in range(FIM_TOKENS)]
    cum = list(accumulate(1.0 / (i + 1) ** FIM_ZIPF for i in range(FIM_TOKENS)))
    total = cum[-1]
    planted = rng.sample(tokens[FIM_TOKENS // 8:], 2)
    baskets = []
    for _ in range(FIM_BASKETS):
        size = rng.randint(FIM_MIN_LEN, FIM_MAX_LEN)
        basket = set(planted) if rng.random() < FIM_PLANT_SHARE else set()
        while len(basket) < size:
            basket.add(tokens[bisect_right(cum, rng.random() * total)])
        baskets.append(sorted(basket))
    return baskets


def write_baskets(path, baskets: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for b in baskets:
            fh.write(" ".join(b) + "\n")


class FimChecker:
    def __init__(self, baskets: list[list[str]]):
        self.n = len(baskets)
        self.vocabulary = set().union(*map(set, baskets))
        self.support = Counter()
        for b in baskets:
            self.support.update(combinations(sorted(b), FIM_R))
        self.sorted_counts = sorted(self.support.values(), reverse=True)

    def kth_largest(self, k: int) -> int:
        return self.sorted_counts[k - 1] if k <= len(self.sorted_counts) else 0

    def __call__(self, code: int, out: dict | None) -> str | None:
        if code not in (0, 4):
            return f"exit code {code}"
        itemset = out.get("itemset")
        if not (isinstance(itemset, list) and len(set(itemset)) == FIM_R == len(itemset)):
            return f"itemset {itemset!r} is not {FIM_R} distinct tokens"
        unknown = set(itemset) - self.vocabulary
        if unknown:
            return f"itemset has unknown tokens {sorted(unknown)}"
        if out.get("f_max") != self.kth_largest(1) / self.n:
            return f"f_max {out.get('f_max')!r} != top support {self.kth_largest(1) / self.n!r}"
        ell = out.get("ell")
        if not (isinstance(ell, int) and ell >= 1):
            return f"ell {ell!r} is not a positive rank"
        chosen = self.support.get(tuple(sorted(itemset)), 0)
        if chosen < self.kth_largest(ell):
            return f"chosen support {chosen} below the {ell}-th largest {self.kth_largest(ell)}"
        return None


# ---------------------------------------------------------------- audit-lmm

def audit_pair(seed: int):
    """Neighbor pair whose left top gaps sit exactly at T(1) and T(2).

    The right side lowers item 1 and raises the rest by 1/n, shrinking each
    gap by 2/n, so both sides spread the certified rank over 1, 2 and 3.
    """
    from privmax import NeighborPair, QualityUniverse, compute_thresholds

    rng = workload_rng("audit-lmm", seed)
    t1, t2 = (compute_thresholds(AUDIT_N, ALPHA, DELTA, r).T for r in (1, 2))
    top = 0.85 + 0.1 * rng.random()
    tail = sorted((top - 0.5 - 0.3 * rng.random() for _ in range(AUDIT_K - 3)), reverse=True)
    left = [top, top - t1, top - t2] + tail
    step = 1.0 / AUDIT_N
    right = [left[0] - step] + [v + step for v in left[1:]]
    ids = list(range(AUDIT_K))
    rng.shuffle(ids)  # rank j sits at item id ids[j] + 1
    left_by_id, right_by_id = [0.0] * AUDIT_K, [0.0] * AUDIT_K
    for j, i in enumerate(ids):
        left_by_id[i], right_by_id[i] = left[j], right[j]
    return NeighborPair(
        QualityUniverse.dense(left_by_id, n=AUDIT_N),
        QualityUniverse.dense(right_by_id, n=AUDIT_N),
        provenance="top gaps at T(1), T(2); neighbor moves item 1 down, rest up by 1/n",
    )


def audit_mechanism():
    from privmax import PrivacyBudget, build_mechanism

    budget = PrivacyBudget(ALPHA, DELTA)
    return build_mechanism("lmm", budget), budget


def check_audit(report) -> str | None:
    if report.violations:
        return f"{len(report.violations)} audit violation(s)"
    for side in ("p_left", "p_right"):
        mass = math.fsum(getattr(c, side) for c in report.checks if c.direction == "left_vs_right")
        if abs(mass - 1.0) > 1e-9:
            return f"{side} distribution sums to {mass!r}"
    return None


def material_ranks(hist: dict, k: int) -> list[int]:
    """Certified ranks below k that at least MATERIAL_SHARE of the runs reach.

    ``hist`` maps a certified rank, as a string, to its run count; the rank
    "None" marks uncertified cap fallbacks.
    """
    runs = sum(hist.values())
    return sorted(int(r) for r, c in hist.items()
                  if r != "None" and int(r) < k and c >= MATERIAL_SHARE * runs)


def coverage_failure(ell_hist: dict, k: int) -> str | None:
    """Path-coverage guard: each side must stop materially at two ranks < k."""
    for side, hist in ell_hist.items():
        ranks = material_ranks(hist, k)
        if len(ranks) < 2:
            return f"path coverage: on {side} only ranks {ranks} below k={k} reach a {MATERIAL_SHARE} share"
    return None
