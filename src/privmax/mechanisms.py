"""Randomized selection mechanisms.

Five mechanisms over a :class:`~privmax.core.QualityUniverse`:

* ``exponential_mechanism`` -- classic selection with weight exp(n*alpha*f/2);
* ``restricted_exponential`` -- the same, restricted to the top-ell items;
* ``max_of_laplaces`` -- report-noisy-max with per-item Lap(2/(n*alpha));
* ``gap_max_st13`` -- release the maximizer only if the noisy top-two gap
  clears a threshold, else Fail;
* ``large_margin_mechanism`` -- the three-stage adaptive mechanism: noisy max
  estimate, threshold search certifying a margin rank ell, then the
  exponential mechanism restricted to the top ell items. Each stage runs at
  a third of the caller's alpha.

All mechanisms are pure given a NoiseSource. Noise stream order is fixed and
documented per mechanism so zero-override and replay traces are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from typing import NamedTuple

from .core import (
    MechanismOutcome,
    PrivacyBudget,
    QualityUniverse,
    ThresholdPair,
    compute_thresholds,
    order_stat,
    top_set,
)
from .noise import NoiseSource


class Fail(NamedTuple):
    """Declined release from the gap mechanism: an outcome, not an error."""

    budget: PrivacyBudget


class CapExhausted(RuntimeError):
    """Margin search hit its rank cap without certifying any rank."""

    def __init__(self, cap: int):
        super().__init__(f"margin search exhausted its rank cap {cap}")
        self.cap = cap


def _pick_exponential(u: QualityUniverse, alpha: float, ell: int, src: NoiseSource) -> int:
    """Sample an id from p_i proportional to exp(n*alpha*f(i)/2) over the top-ell set.

    The maximum exponent is subtracted before exponentiation, so the weights
    never overflow regardless of n*alpha*f. One uniform is inverted through
    the cumulative weights; cumulative order is the top-set order (descending
    value, ties by ascending id): the explicit values of the head, then the
    fill ids of the top set as a single closed-form segment.
    """
    rate = 0.5 * u.n * alpha
    vals = u.explicit
    n_explicit = min(ell, len(vals))
    n_fill = ell - n_explicit
    # the head first: reading rank 1 first would sort a prefix that a
    # full-universe selection then sorts again
    ids = u._ids_desc
    if len(ids) < n_explicit:
        ids = top_set(u, n_explicit)
    vmax = order_stat(u, 1)
    total = 0.0
    cum = []
    for i in ids[:n_explicit]:
        total += math.exp(rate * (vals[i - 1] - vmax))
        cum.append(total)
    w_fill = math.exp(rate * (u.fill - vmax)) if n_fill > 0 else 0.0
    grand = total + n_fill * w_fill
    target = src.uniform() * grand
    if target < total or n_fill == 0:
        return ids[min(bisect_right(cum, target), n_explicit - 1)]
    if w_fill <= 0.0:  # fill weight underflowed; lowest fill id stands in
        return n_explicit + 1
    j = min(int((target - total) / w_fill), n_fill - 1)
    return n_explicit + 1 + j


def exponential_mechanism(u: QualityUniverse, alpha: float, src: NoiseSource) -> MechanismOutcome:
    """Select item i with probability proportional to exp(n*alpha*f(i)/2)."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    item = _pick_exponential(u, alpha, u.k, src)
    return MechanismOutcome(item=item, budget=PrivacyBudget(alpha))


def restricted_exponential(u: QualityUniverse, ell: int, alpha: float, src: NoiseSource) -> MechanismOutcome:
    """Exponential mechanism restricted to the ell highest-quality items.

    Items outside the top set receive probability exactly 0; at ell = k the
    distribution coincides with the unrestricted mechanism.
    """
    if not 1 <= ell <= u.k:
        raise ValueError(f"ell {ell} outside [1, {u.k}]")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    item = _pick_exponential(u, alpha, ell, src)
    return MechanismOutcome(item=item, budget=PrivacyBudget(alpha), ell=ell)


def noisy_max_estimate(u: QualityUniverse, alpha: float, src: NoiseSource) -> float:
    """Top value plus Lap(1/alpha)/n: a private estimate of the maximum."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return order_stat(u, 1) + src.laplace(1.0 / alpha) / u.n


def margin_search(
    u: QualityUniverse,
    alpha: float,
    m: float,
    thresholds: Sequence[ThresholdPair],
    src: NoiseSource,
    cap: int | None = None,
) -> int:
    """Noise-calibrated scan for the first rank whose margin clears its threshold.

    Draws G ~ Lap(2/alpha) once and Z_r ~ Lap(4/alpha) per rank visited, and
    returns the first r in 1..cap-1 with

        m - order_stat(r+1) > (Z_r + G)/n + thresholds[r-1].T

    Returns k when the full scan (cap = k) finds no such rank; raises
    :class:`CapExhausted` when a smaller cap is hit first, leaving the
    fallback choice to the caller.

    ``thresholds`` may be any sequence of at least cap-1 pairs, including a
    lazy one such as :class:`ThresholdSchedule`: only the entries of the
    ranks visited are read, in rank order.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    limit = u.k if cap is None else cap
    if not 1 <= limit <= u.k:
        raise ValueError(f"cap {cap} outside [1, {u.k}]")
    if len(thresholds) < limit - 1:
        raise ValueError(
            f"threshold count mismatch: need {limit - 1} for ranks 1..{limit - 1}, got {len(thresholds)}"
        )
    n = u.n
    G = src.laplace(2.0 / alpha)
    for r in range(1, limit):
        z_r = src.laplace(4.0 / alpha)
        if m - order_stat(u, r + 1) > (z_r + G) / n + thresholds[r - 1].T:
            return r
    if limit == u.k:
        return u.k
    raise CapExhausted(limit)


class ThresholdSchedule(Sequence):
    """Read-only T(r) schedule for ranks 1..count whose pairs are computed on access.

    Item r-1 is ``compute_thresholds(n, alpha, delta, r)``, evaluated when it
    is read, so a margin search that stops at rank r pays for r pairs instead
    of count.
    """

    __slots__ = ("_n", "_alpha", "_delta", "_count")

    def __init__(self, n: int, alpha: float, delta: float, count: int):
        self._n = n
        self._alpha = alpha
        self._delta = delta
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> ThresholdPair:
        if not 0 <= index < self._count:
            raise IndexError(f"rank index {index} outside [0, {self._count})")
        return compute_thresholds(self._n, self._alpha, self._delta, index + 1)


def default_cap(u: QualityUniverse) -> int:
    """Rank cap for the margin search: min(k, L+1), which is k when every
    value is explicit.

    Ranks past L+1 all compare against the same fill value with ever larger
    thresholds, so scanning them buys nothing; capping keeps combinatorial k
    feasible.
    """
    return min(u.k, len(u.explicit) + 1)


def large_margin_mechanism(
    u: QualityUniverse,
    budget: PrivacyBudget,
    src: NoiseSource,
    cap: int | None = None,
) -> MechanismOutcome:
    """Margin-adaptive private selection at (alpha, delta).

    Three stages, each at alpha/3, in fixed noise order:

    1. m = noisy max estimate (Z ~ Lap(3/alpha));
    2. ell = margin search against the T(r) schedule for the caller's
       (n, alpha, delta) (G ~ Lap(6/alpha), Z_r ~ Lap(12/alpha) per rank);
    3. item = exponential mechanism over the top-ell set with weight
       exp(n*alpha*f/6).

    If the margin search exhausts its cap (possible only when cap < k), the
    mechanism falls back to the plain exponential mechanism over the full
    universe at the remaining alpha/3 and flags the outcome uncertified.

    Thresholds are computed only for the ranks the search reaches, so the
    cost follows the ranks scanned rather than k.
    """
    budget.require_approximate()
    third = budget.alpha / 3.0
    limit = default_cap(u) if cap is None else cap
    if not 1 <= limit <= u.k:
        raise ValueError(f"cap {cap} outside [1, {u.k}]")
    thresholds = ThresholdSchedule(u.n, budget.alpha, budget.delta, limit - 1)
    m = noisy_max_estimate(u, third, src)
    try:
        ell = margin_search(u, third, m, thresholds, src, cap=limit)
    except CapExhausted:
        item = _pick_exponential(u, third, u.k, src)
        return MechanismOutcome(item=item, budget=budget, m=m, ell=None, certified=False)
    item = _pick_exponential(u, third, ell, src)
    return MechanismOutcome(item=item, budget=budget, m=m, ell=ell, certified=True)


def _laplace_block_max(scale: float, count: int, src: NoiseSource) -> float:
    """Max of ``count`` iid Lap(scale) variates from one uniform.

    Inverse CDF of the max: F(x)^count = u. Evaluated through log/expm1 so it
    stays exact for block sizes up to combinatorial k.
    """
    u = src.uniform()
    log_f = math.log(u) / count
    one_minus_f = -math.expm1(log_f)
    if one_minus_f <= 0.5:
        return -scale * math.log(2.0 * one_minus_f)
    return scale * (math.log(2.0) + log_f)


def max_of_laplaces(u: QualityUniverse, alpha: float, src: NoiseSource) -> MechanismOutcome:
    """Report-noisy-max: add Lap(2/(n*alpha)) per item, return the argmax.

    Ties break to the lowest id (relevant only under zero-override; sampled
    noise is tie-free almost surely). The fill block's maximum is drawn in
    closed form and then a uniform index inside the block, so the cost is
    O(L), not O(k). Noise order: explicit ids ascending, then the block max,
    then the block index.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    scale = 2.0 / (u.n * alpha)
    best_id = 0
    best = float("-inf")
    for i, v in enumerate(u.explicit, start=1):
        noisy = v + src.laplace(scale)
        if noisy > best:
            best, best_id = noisy, i
    n_fill = u.k - len(u.explicit)
    if n_fill > 0:
        if src.zero_override:
            block, block_id = u.fill, len(u.explicit) + 1
        else:
            block = u.fill + _laplace_block_max(scale, n_fill, src)
            block_id = len(u.explicit) + 1 + min(int(src.uniform() * n_fill), n_fill - 1)
        if block > best or best_id == 0:
            best, best_id = block, block_id
    return MechanismOutcome(item=best_id, budget=PrivacyBudget(alpha))


def gap_max_st13(u: QualityUniverse, budget: PrivacyBudget, src: NoiseSource) -> MechanismOutcome | Fail:
    """Release the maximizer only when the noisy top-two gap is large.

    g = (f(1) - f(2)) + Lap(2/(n*alpha)); the (lowest-id) maximizer is
    released iff g > 2 ln(1/delta) / (n*alpha), otherwise the distinguished
    Fail outcome is returned.
    """
    budget.require_approximate()
    na = u.n * budget.alpha
    gap = order_stat(u, 1) - order_stat(u, 2)
    noisy_gap = gap + src.laplace(2.0 / na)
    threshold = 2.0 * math.log(1.0 / budget.delta) / na
    if noisy_gap > threshold:
        return MechanismOutcome(item=top_set(u, 1)[0], budget=budget)
    return Fail(budget)


def lmm_required_margin(n: int, alpha: float, delta: float, eta: float, ell: int) -> float:
    """Margin width gamma* above which the adaptive mechanism's utility
    guarantee at confidence 1 - eta activates for rank ell:

        gamma* = (21/(n*alpha)) * ln(3/eta) + T(ell).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    pair = compute_thresholds(n, alpha, delta, ell)
    return (21.0 / (n * alpha)) * math.log(3.0 / eta) + pair.T


def lmm_quality_radius(n: int, alpha: float, eta: float, ell: int) -> float:
    """Quality slack 6 ln(2 ell / eta) / (n*alpha) of the utility guarantee:
    with probability at least 1 - eta the selected item's quality is within
    this radius of the maximum, provided the gamma* margin holds."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not (alpha > 0.0 and n >= 1 and ell >= 1):
        raise ValueError("need alpha > 0, n >= 1, ell >= 1")
    return 6.0 * math.log(2.0 * ell / eta) / (n * alpha)


def build_mechanism(name: str, budget: PrivacyBudget, *, cap: int | None = None):
    """Callable (universe, source) -> outcome for a registered mechanism name.

    Registered names: em, mol, st13, lmm -- the names the CLI's --mechanism
    takes. Used by the audit harness and the CLI; ``cap`` applies to lmm only.
    """
    if name == "em":
        return lambda u, src: exponential_mechanism(u, budget.alpha, src)
    if name == "mol":
        return lambda u, src: max_of_laplaces(u, budget.alpha, src)
    if name == "st13":
        return lambda u, src: gap_max_st13(u, budget, src)
    if name == "lmm":
        return lambda u, src: large_margin_mechanism(u, budget, src, cap=cap)
    raise ValueError(f"unknown mechanism {name!r}; registered: em, mol, st13, lmm")
