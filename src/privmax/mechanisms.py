"""Randomized selection mechanisms.

Four mechanisms over a :class:`~privmax.core.QualityUniverse`, each
registered with :func:`build_mechanism`:

* ``exponential_mechanism`` -- classic selection with weight exp(n*alpha*f/2);
* ``max_of_laplaces`` -- report-noisy-max with per-item Lap(2/(n*alpha));
* ``gap_max_st13`` -- release the maximizer only if the noisy top-two gap
  clears a threshold, else decline: an outcome whose item is ``FAIL_KEY``;
* ``large_margin_mechanism`` -- the three-stage adaptive mechanism: noisy max
  estimate, threshold search certifying a margin rank ell, then the
  exponential mechanism restricted to the top ell items. Each stage runs at
  a third of the caller's alpha. Its stages are private only together:
  stage 3 draws from a data-dependent top-ell set, and only stage 2's
  certified margin makes that private.

All mechanisms are pure given a NoiseSource. Noise stream order is fixed and
documented per mechanism so zero-override and replay traces are exact.

Each registered mechanism runs through a plan: the per-universe work (budget
and cap checks, order statistics, the T(r) schedule, the exponential weights)
done once, with its tables grown only as far as a run reads them. A plan's
one loop, ``releases(src)``, yields the plain field tuple (item, budget, m,
ell, certified) of each run on one stream; ``runs(src)`` wraps those as
MechanismOutcomes, one run per item, and calling the plan makes one run.
The direct functions build a fresh plan per call; :func:`build_mechanism`
returns a :class:`Mechanism` whose ``bind(u)`` keeps one plan for many
runs. The LMM plan runs the margin search inline, in ``searches(src)``, the
loop of stages 1 and 2 that ``releases`` extends by stage 3, and ``law``
gives stage 3's exact item law given ell; :func:`margin_search` is the
search's readable reference, which the tests pin the plan against draw for
draw.

The draw contract: a plan binds ``src._rng.random`` and
``src._rng.randrange``, the source's generator. ``random()`` gives values in
[0, 1) on the 2^-53 grid; ``randrange(n)`` gives an exact uniform integer
in [0, n) for any n, however far past 2^53 (as ``random.Random`` and
``random.SystemRandom`` give them, by rejection on ``getrandbits``). Each
``random()`` draw runs in the loop's own frame: a 0.0 is rejected, as
:meth:`NoiseSource.uniform` rejects it, and a Laplace variate is
:meth:`NoiseSource.laplace`'s inverse CDF, bit for bit. A fill id is never
a float: em's and the LMM's pick choose the fill segment with their
uniform, then the id in it with one ``randrange``, and mol's block index is
one ``randrange``. Zero-noise is the generator, not a branch: a
zero-override source's ``random()`` is the constant 0.5, which gives the
uniform 0.5 and the Laplace +0.0, and its ``randrange(n)`` is 0, the lowest
fill id. Only mol's fill block, once per run, draws its max through
``uniform()``, and only it reads ``zero_override``, because the median of a
block maximum is not 0. So a NoiseSource whose ``_rng`` is any such
generator runs every plan. The readable references --
``NoiseSource.uniform`` and ``laplace``, and :func:`margin_search` -- draw
through ``uniform()`` and ``laplace()``, and the tests pin the plans to them
draw for draw.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from functools import partial
from math import log1p

from .core import (
    MechanismOutcome,
    PrivacyBudget,
    QualityUniverse,
    ThresholdPair,
    compute_thresholds,
    order_stat,
    require_alpha,
    top_set,
)
from .noise import NoiseSource


# the item of a declined st13 run, and so its audit outcome key
FAIL_KEY = "fail"


class CapExhausted(RuntimeError):
    """Margin search hit its rank cap without certifying any rank."""

    def __init__(self, cap: int):
        super().__init__(f"margin search exhausted its rank cap {cap}")
        self.cap = cap


# MechanismOutcome from a full field tuple (item, budget, m, ell, certified),
# without the Python-level __new__ a NamedTuple call runs
_outcome = partial(tuple.__new__, MechanismOutcome)


class _Plan:
    """A mechanism's per-universe work, done once. ``releases(src)`` is the
    plan's one loop: an endless generator of the field tuples (item, budget,
    m, ell, certified) of successive runs on one stream, which audit shards
    count as they come; it draws under the module's draw contract.
    ``runs(src)`` wraps each tuple as a MechanismOutcome in one C-level map,
    and calling the plan makes one run, so all three give the same outcomes,
    draw for draw, for every plan. Single-owner, like a NoiseSource."""

    __slots__ = ()

    def runs(self, src: NoiseSource) -> Iterator[MechanismOutcome]:
        return map(_outcome, self.releases(src))

    def __call__(self, src: NoiseSource):
        return next(self.runs(src))


class _ExponentialWeights:
    """Sampler for p_i proportional to exp(n*alpha*f(i)/2) over the top-ell set
    of one universe at one alpha, for any ell.

    The maximum exponent is subtracted before exponentiation, so the weights
    never overflow regardless of n*alpha*f. One uniform is inverted through
    the cumulative weights; cumulative order is the top-set order (descending
    value, ties by ascending id): the explicit values of the head, then the
    fill ids of the top set as a single segment of equal weights, in which
    the id is one exact uniform integer. The cumulative sums of the explicit
    values are one list, summed in that order and grown as far as the
    largest ell drawn, so every ell reads the same sums a fresh pass would
    give. Single-owner, like the plans that hold it.
    """

    __slots__ = ("_u", "_rate", "_vmax", "_w_fill", "_ids", "_cum", "_ends")

    def __init__(self, u: QualityUniverse, alpha: float):
        self._u = u
        self._rate = 0.5 * u.n * alpha
        self._vmax = order_stat(u, 1)
        # a universe without a fill block may hold values below its fill 0.0,
        # where this weight would overflow; it is never read there
        has_fill = len(u.explicit) < u.k
        self._w_fill = math.exp(self._rate * (u.fill - self._vmax)) if has_fill else 0.0
        self._ids = ()
        self._cum = []
        self._ends = {}  # ell -> (explicit ids in the top-ell set, their total, grand total)

    def _end(self, ell: int) -> tuple[int, float, float]:
        u = self._u
        n_explicit = min(ell, len(u.explicit))
        cum = self._cum
        if len(cum) < n_explicit:
            ids = self._ids
            if len(ids) < n_explicit:
                # the head first: reading rank 1 first would sort a prefix
                # that a full-universe selection then sorts again
                ids = u._ids_desc
                if len(ids) < n_explicit:
                    ids = top_set(u, n_explicit)
                self._ids = ids
            vals, rate, vmax = u.explicit, self._rate, self._vmax
            total = cum[-1] if cum else 0.0
            for i in ids[len(cum):n_explicit]:
                total += math.exp(rate * (vals[i - 1] - vmax))
                cum.append(total)
        total = cum[n_explicit - 1] if n_explicit else 0.0
        end = self._ends[ell] = (n_explicit, total, total + (ell - n_explicit) * self._w_fill)
        return end

    def law(self, ell_weights: dict) -> dict:
        """Mixed over ell, the law that ``pick`` implements: id -> the sum
        over ell of ell_weights[ell] * P(pick(ell, x, randrange) = id) for x
        uniform and randrange exact. In the top-ell set, the head position i
        has chance (cum[i] - cum[i-1]) / grand and each fill id w_fill /
        grand. A position or fill id lies in the top-ell sets of every ell
        from some rank up, so its share is a suffix sum over the distinct
        ells, and the law costs O(L + ells), plus one entry per fill id read.
        Positive entries only, the head in top-set order, then the fill ids
        ascending."""
        ells = sorted(ell_weights, reverse=True)
        ends = [self._end(ell) for ell in ells]  # the largest first: the sums grow once
        tail, shares = 0.0, []
        for ell, (_, _, grand) in zip(ells, ends):
            tail += ell_weights[ell] / grand
            shares.append(tail)  # the sum over this ell and every larger one
        cum, ids, w_fill, law = self._cum, self._ids, self._w_fill, {}
        start = last = 0  # the head positions and the ell read so far
        for ell, (n_explicit, _, _), share in zip(reversed(ells), reversed(ends), reversed(shares)):
            for i in range(start, n_explicit):
                p = (cum[i] - (cum[i - 1] if i else 0.0)) * share
                if p > 0.0:
                    law[ids[i]] = p
            if w_fill > 0.0:
                for f in range(max(last, n_explicit) + 1, ell + 1):
                    law[f] = w_fill * share
            start, last = n_explicit, ell
        return law

    def pick(self, ell: int, x: float, randrange) -> int:
        """One id from the top-ell set, drawn with the caller's uniform ``x``
        in (0, 1): an explicit id, or the fill segment, whose id is then
        ``randrange(fill ids in the set)`` ids past the explicit ones, an
        exact integer."""
        try:
            n_explicit, total, grand = self._ends[ell]
        except KeyError:
            n_explicit, total, grand = self._end(ell)
        target = x * grand
        if target < total or n_explicit == ell:
            i = bisect_right(self._cum, target, 0, n_explicit)
            return self._ids[i if i < n_explicit else n_explicit - 1]
        return n_explicit + 1 + randrange(ell - n_explicit)


class _ExponentialPlan(_Plan):
    """Exponential mechanism over all of one universe at one alpha."""

    __slots__ = ("_k", "_budget", "_weights")

    def __init__(self, u: QualityUniverse, alpha: float):
        self._k = u.k
        self._budget = PrivacyBudget(alpha)
        self._weights = _ExponentialWeights(u, alpha)

    def releases(self, src: NoiseSource) -> Iterator[tuple]:
        k, budget, pick = self._k, self._budget, self._weights.pick
        random, randrange = src._rng.random, src._rng.randrange
        while True:
            x = random()
            while x <= 0.0:
                x = random()
            yield pick(k, x, randrange), budget, None, None, True


def exponential_mechanism(u: QualityUniverse, alpha: float, src: NoiseSource) -> MechanismOutcome:
    """Select item i with probability proportional to exp(n*alpha*f(i)/2)."""
    return _ExponentialPlan(u, alpha)(src)


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

    ``thresholds`` may be any sequence of at least cap-1 pairs; only the
    entries of the ranks visited are read, in rank order. No mechanism calls
    this function: the large-margin plan runs the same loop inline, over the
    universe head and a T(r) list it keeps, and this is the reference it is
    tested against.
    """
    require_alpha(alpha)
    limit = u.k if cap is None else cap
    if not 1 <= limit <= u.k:
        raise ValueError(f"cap {cap} outside [1, {u.k}]")
    if len(thresholds) < limit - 1:
        raise ValueError(
            f"threshold count mismatch: need {limit - 1} for ranks 1..{limit - 1}, got {len(thresholds)}"
        )
    n = u.n
    z_scale = 4.0 / alpha
    G = src.laplace(2.0 / alpha)
    for r in range(1, limit):
        z_r = src.laplace(z_scale)
        if m - order_stat(u, r + 1) > (z_r + G) / n + thresholds[r - 1].T:
            return r
    if limit == u.k:
        return u.k
    raise CapExhausted(limit)


def default_cap(u: QualityUniverse) -> int:
    """Rank cap for the margin search: min(k, L+1), which is k when every
    value is explicit.

    Ranks past L+1 all compare against the same fill value with ever larger
    thresholds, so scanning them buys nothing; capping keeps combinatorial k
    feasible.
    """
    return min(u.k, len(u.explicit) + 1)


class _LargeMarginPlan(_Plan):
    """The large-margin mechanism on one universe at one budget and cap.

    Bind does every check and computes the stage scales and f(1) once. A
    run's stages 1 and 2 are the sampled part, and ``searches`` holds their
    one copy: stage 2 is :func:`margin_search`'s loop, draw for draw,
    reading f(r+1) from the universe head (or the fill value past the
    explicit values) and T(r) from a list of floats that grows, in rank
    order, the first time a run reaches a rank and serves every later run.
    Each run reads the head and the list afresh, so it sees what earlier
    runs or other readers grew. Stage 3 reads the search only through ell:
    ``releases`` draws it, one uniform through the pick per run, and
    ``law`` gives its exact law, mixed over the ell of many runs. A run's
    draws (m, G, one Z_r per rank scanned, the pick's uniform, and its
    randrange when it picks a fill id) follow the module's draw contract.
    """

    __slots__ = ("_u", "_budget", "_limit", "_vmax", "_m_scale", "_g_scale", "_z_scale", "_T", "_weights")

    def __init__(self, u: QualityUniverse, budget: PrivacyBudget, cap: int | None = None):
        budget.require_approximate()
        limit = default_cap(u) if cap is None else cap
        if not 1 <= limit <= u.k:
            raise ValueError(f"cap {cap} outside [1, {u.k}]")
        third = budget.alpha / 3.0
        require_alpha(third)
        self._u = u
        self._budget = budget
        self._limit = limit
        self._vmax = order_stat(u, 1)
        self._m_scale = 1.0 / third
        self._g_scale = 2.0 / third
        self._z_scale = 4.0 / third
        self._T = []  # T(r) at index r-1, for the ranks some run has reached
        self._weights = _ExponentialWeights(u, third)

    def searches(self, src: NoiseSource) -> Iterator[tuple]:
        """Stages 1 and 2 of successive runs on one stream: an endless
        generator of (m, ell), ell None when the cap is exhausted. It is the
        one copy of both stages, so its draws are those of ``releases``,
        which draws stage 3's uniform after each of its yields."""
        u, budget, limit, vmax = self._u, self._budget, self._limit, self._vmax
        n, k, n_explicit, fill = u.n, u.k, len(u.explicit), u.fill
        m_scale, g_scale, z_scale = self._m_scale, self._g_scale, self._z_scale
        random = src._rng.random
        while True:
            # stage 1 is m = f(1) + Lap(3/alpha)/n. Every Laplace draw here
            # is NoiseSource.laplace on one raw uniform, bit for bit: reject
            # 0.0, then its two log1p branches
            x = random()
            while x <= 0.0:
                x = random()
            d = x - 0.5
            z = -m_scale * log1p(-2.0 * d) if d > 0.0 else m_scale * log1p(2.0 * d)
            m = vmax + z / n
            # stage 2 is margin_search(u, alpha/3, m, T, src, cap)
            head, T = u._sorted, self._T
            x = random()
            while x <= 0.0:
                x = random()
            d = x - 0.5
            G = -g_scale * log1p(-2.0 * d) if d > 0.0 else g_scale * log1p(2.0 * d)
            for r in range(1, limit):
                x = random()
                while x <= 0.0:
                    x = random()
                d = x - 0.5
                z_r = -z_scale * log1p(-2.0 * d) if d > 0.0 else z_scale * log1p(2.0 * d)
                try:
                    f = head[r]
                except IndexError:  # past the head
                    if r >= n_explicit:  # the fill run
                        f = fill
                    else:  # grow the head, and read the grown one from here on
                        f = order_stat(u, r + 1)
                        head = u._sorted
                try:
                    t = T[r - 1]
                except IndexError:  # the first run to reach rank r
                    t = compute_thresholds(n, budget.alpha, budget.delta, r).T
                    T.append(t)
                if m - f > (z_r + G) / n + t:
                    yield m, r
                    break
            else:  # none certified: k after a full scan, None when the cap is exhausted
                yield m, k if limit == k else None

    def releases(self, src: NoiseSource) -> Iterator[tuple]:
        budget, k, pick = self._budget, self._u.k, self._weights.pick
        random, randrange = src._rng.random, src._rng.randrange
        for m, ell in self.searches(src):
            # stage 3 picks from the top-ell set, or from all k items uncertified
            x = random()
            while x <= 0.0:
                x = random()
            yield pick(ell or k, x, randrange), budget, m, ell, ell is not None

    def law(self, ell_freqs: dict) -> dict:
        """The item law of runs whose searches end at ell with the chances
        ``ell_freqs`` (ell None on the cap path): sum over ell of
        ell_freqs[ell] * P(item | ell), where P(item | ell) is the law of
        stage 3's ``pick`` over the top-ell set, or over all k items when
        ell is None. Positive entries only, in top-set order."""
        k, ells = self._u.k, {}
        for ell, p in ell_freqs.items():
            ells[ell or k] = ells.get(ell or k, 0.0) + p
        return self._weights.law(ells)


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
    return _LargeMarginPlan(u, budget, cap)(src)


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


class _NoisyMaxPlan(_Plan):
    """Report-noisy-max on one universe at one alpha."""

    __slots__ = ("_u", "_budget", "_scale")

    def __init__(self, u: QualityUniverse, alpha: float):
        self._u = u
        self._budget = PrivacyBudget(alpha)
        self._scale = 2.0 / (u.n * alpha)

    def releases(self, src: NoiseSource) -> Iterator[tuple]:
        u, budget, scale = self._u, self._budget, self._scale
        explicit, fill = u.explicit, u.fill
        first_fill, n_fill = len(explicit) + 1, u.k - len(explicit)
        random, randrange, zero = src._rng.random, src._rng.randrange, src.zero_override
        while True:
            best_id = 0
            best = float("-inf")
            for i, v in enumerate(explicit, start=1):
                # NoiseSource.laplace on one raw uniform, bit for bit
                x = random()
                while x <= 0.0:
                    x = random()
                d = x - 0.5
                noisy = v + (-scale * log1p(-2.0 * d) if d > 0.0 else scale * log1p(2.0 * d))
                if noisy > best:
                    best, best_id = noisy, i
            if n_fill > 0:
                # the block max, once per run, goes through uniform(), and
                # its index is one exact randrange. The median of a block
                # maximum is not 0, so zero-override puts the block at the
                # fill value and its lowest id
                if zero:
                    block, block_id = fill, first_fill
                else:
                    block = fill + _laplace_block_max(scale, n_fill, src)
                    block_id = first_fill + randrange(n_fill)
                if block > best or best_id == 0:
                    best, best_id = block, block_id
            yield best_id, budget, None, None, True


def max_of_laplaces(u: QualityUniverse, alpha: float, src: NoiseSource) -> MechanismOutcome:
    """Report-noisy-max: add Lap(2/(n*alpha)) per item, return the argmax.

    Ties break to the lowest id (relevant only under zero-override; sampled
    noise is tie-free almost surely). The fill block's maximum is drawn in
    closed form and then a uniform index inside the block, so the cost is
    O(L), not O(k). Noise order: explicit ids ascending, then the block max,
    then the block index.
    """
    return _NoisyMaxPlan(u, alpha)(src)


class _GapPlan(_Plan):
    """The gap mechanism on one universe at one budget. A run releases the
    field tuple (top, budget, None, None, True), or (FAIL_KEY, budget, None,
    None, False) when it declines."""

    __slots__ = ("_gap", "_scale", "_threshold", "_release", "_fail")

    def __init__(self, u: QualityUniverse, budget: PrivacyBudget):
        budget.require_approximate()
        na = u.n * budget.alpha
        self._gap = order_stat(u, 1) - order_stat(u, 2)
        self._scale = 2.0 / na
        self._threshold = 2.0 * math.log(1.0 / budget.delta) / na
        # both releases are immutable and the same on every run
        self._release = (top_set(u, 1)[0], budget, None, None, True)
        self._fail = (FAIL_KEY, budget, None, None, False)

    def releases(self, src: NoiseSource) -> Iterator[tuple]:
        gap, scale, threshold, random = self._gap, self._scale, self._threshold, src._rng.random
        release, fail = self._release, self._fail
        while True:
            # NoiseSource.laplace on one raw uniform, bit for bit
            x = random()
            while x <= 0.0:
                x = random()
            d = x - 0.5
            noise = -scale * log1p(-2.0 * d) if d > 0.0 else scale * log1p(2.0 * d)
            yield release if gap + noise > threshold else fail


def gap_max_st13(u: QualityUniverse, budget: PrivacyBudget, src: NoiseSource) -> MechanismOutcome:
    """Release the maximizer only when the noisy top-two gap is large.

    g = (f(1) - f(2)) + Lap(2/(n*alpha)); the (lowest-id) maximizer is
    released iff g > 2 ln(1/delta) / (n*alpha). Otherwise the run declines:
    its outcome has item ``FAIL_KEY`` and ``certified`` False.
    """
    return _GapPlan(u, budget)(src)


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
    require_alpha(alpha)
    if not (n >= 1 and ell >= 1):
        raise ValueError("need n >= 1, ell >= 1")
    return 6.0 * math.log(2.0 * ell / eta) / (n * alpha)


# the plan behind each registered mechanism's function
_PLANS = {
    exponential_mechanism: _ExponentialPlan,
    max_of_laplaces: _NoisyMaxPlan,
    gap_max_st13: _GapPlan,
    large_margin_mechanism: _LargeMarginPlan,
}


class Mechanism:
    """A registered mechanism at a fixed budget (and, for lmm, a fixed cap).

    ``mech(u, src)`` runs it once, as its function does. ``mech.bind(u)``
    does the per-universe work once and returns the plan: ``plan(src)`` makes
    one run, and ``plan.runs(src)`` yields the outcomes of successive runs on
    one stream. ``plan.releases(src)`` is the loop behind ``runs``: it yields
    each run's plain field tuple (item, budget, m, ell, certified), with
    ``FAIL_KEY`` as the item of a declined st13 run, which ``runs`` wraps as
    a MechanismOutcome, and audit shards count the tuples directly. Each run
    gives the outcome the function gives on the same stream, draw for draw,
    and keeps the tables it grew (T(r) values, exponential weights) for the
    next. A plan draws under the module docstring's draw contract. A plan is
    single-owner, like a NoiseSource: one caller, never shared across
    threads mid-use.

    ``bind`` looks the function up by its module-level name, so a
    replacement installed there (a profiler's wrapper, say) is called once
    per run instead of the plan, and sees every run: ``bind`` then returns a
    ``run(src)`` callable with neither ``runs`` nor ``releases``.
    """

    __slots__ = ("_function", "_param", "_extra")

    def __init__(self, function: str, param, *extra):
        self._function = function
        self._param = param
        self._extra = extra

    def __call__(self, u: QualityUniverse, src: NoiseSource):
        return self.bind(u)(src)

    def bind(self, u: QualityUniverse):
        function = globals()[self._function]
        param, extra = self._param, self._extra
        plan = _PLANS.get(function)
        if plan is None:
            return lambda src: function(u, param, src, *extra)
        return plan(u, param, *extra)


def build_mechanism(name: str, budget: PrivacyBudget, *, cap: int | None = None) -> Mechanism:
    """The registered mechanism ``name`` at ``budget``, as a :class:`Mechanism`.

    Registered names: em, mol, st13, lmm -- the names the CLI's --mechanism
    takes. Used by the audit harness and the CLI; ``cap`` applies to lmm only.
    """
    if name == "em":
        return Mechanism("exponential_mechanism", budget.alpha)
    if name == "mol":
        return Mechanism("max_of_laplaces", budget.alpha)
    if name == "st13":
        return Mechanism("gap_max_st13", budget)
    if name == "lmm":
        return Mechanism("large_margin_mechanism", budget, cap)
    raise ValueError(f"unknown mechanism {name!r}; registered: em, mol, st13, lmm")
