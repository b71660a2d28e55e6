"""Independent oracles the tests check the library against.

Everything here but the stage references at the end is computed from first
principles (direct normalization, closed-form CDFs and quantiles, grid
quadrature, high-precision arithmetic) without touching the library's
sampling or weighting code paths.
"""

import math
from decimal import Decimal, getcontext

from privmax import MechanismOutcome, PrivacyBudget, order_stat
from privmax.core import require_alpha
from privmax.mechanisms import _ExponentialWeights


def exact_selection_weights(values, n, alpha, support=None):
    """Directly normalized exp(n*alpha*f/2) probabilities, 1-based ids.

    Plain exponentials, no max subtraction: only valid when n*alpha*f/2 stays
    inside float range, which the K <= 6 oracle instances guarantee.
    """
    ids = list(support) if support is not None else list(range(1, len(values) + 1))
    ws = {i: math.exp(0.5 * n * alpha * values[i - 1]) for i in ids}
    total = math.fsum(ws.values())
    return {i: w / total for i, w in ws.items()}


def tv_distance(p, q):
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def laplace_cdf(x, scale):
    if x < 0:
        return 0.5 * math.exp(x / scale)
    return 1.0 - 0.5 * math.exp(-x / scale)


def laplace_pdf(x, scale):
    return math.exp(-abs(x) / scale) / (2.0 * scale)


def laplace_quantile(u, scale):
    """The Laplace(scale) inverse CDF at u in (0, 1):
    -scale * sign(d) * ln(1 - 2|d|) with d = u - 1/2, so u = 1/2 gives +0.0.
    The log is taken as log1p(-2|d|), the accurate form of ln(1 - 2|d|)
    for small |d|."""
    d = u - 0.5
    return -scale * math.copysign(1.0, d) * math.log1p(-2.0 * abs(d))


def laplace_diff_tail(t, scale, grid=200001, span=60.0):
    """P(X2 - X1 > t) for iid Laplace(scale) by trapezoidal quadrature:
    integral of pdf(x) * (1 - CDF(x + t)) dx over a wide grid."""
    lo, hi = -span * scale, span * scale
    step = (hi - lo) / (grid - 1)
    acc = 0.0
    for j in range(grid):
        x = lo + j * step
        w = 0.5 if j in (0, grid - 1) else 1.0
        acc += w * laplace_pdf(x, scale) * (1.0 - laplace_cdf(x + t, scale))
    return acc * step


def thresholds_highprec(n, alpha, delta, r):
    """The rank-r threshold pair evaluated at 50 significant digits."""
    getcontext().prec = 50
    n_d, a_d, d_d, r_d = Decimal(n), Decimal(repr(alpha)), Decimal(repr(delta)), Decimal(r)
    t = (6 / n_d) * (1 + (3 * r_d / d_d).ln() / a_d)
    na = n_d * a_d
    T = (
        (3 / na) * (3 / (2 * d_d)).ln()
        + (6 / na) * (3 / d_d).ln()
        + (12 / na) * (3 * r_d * (r_d + 1) / d_d).ln()
        + t
    )
    return float(t), float(T)


def hoeffding(trials, confidence=0.999):
    """Two-sided Hoeffding deviation bound used for test-side slack."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


class FixedSource:
    """Duck-typed noise source replaying a fixed uniform sequence, both
    through ``uniform()`` and as its own generator ``_rng.random()``, which
    the mechanisms' plans read."""

    zero_override = False

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)
        self._pos = 0
        self._rng = self

    def uniform(self):
        u = self._uniforms[self._pos]
        self._pos += 1
        return u

    random = uniform

    def laplace(self, scale):
        return laplace_quantile(self.uniform(), scale)


class Replay:
    """Stands in for a noise source's generator ``_rng``: ``random()``
    returns the next of ``values`` and counts the draws, which is all a
    mechanism's plan reads. ``Replay(iter(rng.random, None))`` counts the
    draws of a real generator ``rng``."""

    def __init__(self, values):
        self._values = iter(values)
        self.draws = 0

    def random(self):
        self.draws += 1
        return next(self._values)


class RecordingSource:
    """Wraps a real source and records the scale of every Laplace draw and
    the count of raw uniform draws."""

    def __init__(self, inner):
        self._inner = inner
        self.zero_override = inner.zero_override
        self.laplace_scales = []
        self.uniform_draws = 0

    def uniform(self):
        self.uniform_draws += 1
        return self._inner.uniform()

    def laplace(self, scale):
        self.laplace_scales.append(scale)
        return laplace_quantile(self._inner.uniform(), scale)


def shell_sizes_bruteforce(errors, min_err, width, R):
    """Shell sizes |{e : e <= min_err + t*width}| for t = 0..R by a full pass
    over the errors per shell."""
    return tuple(sum(1 for e in errors if e <= min_err + t * width) for t in range(R + 1))


def shell_decomposition_sorted(errors, width, R):
    """The sort-and-bisect shell count: (shell sizes, min_err) for t = 0..R.

    One sort of all the errors, then ``bisect_right`` counts the errors
    e <= min_err + t*width for each shell, comparing each bound with the
    sorted errors as ``bound < e``."""
    from bisect import bisect_right

    ordered = sorted(errors)
    min_err = ordered[0]
    return tuple(bisect_right(ordered, min_err + t * width) for t in range(R + 1)), min_err


def itemset_quality_reference(d, r, vocab_size=None):
    """The eager itemset driver: counts the index combinations basket by
    basket, orders them by a ``(-count, combo)`` key, and materialises the
    token tuple and the lexicographic rank of every occurring itemset up
    front. Returns the fields the lazy driver must reproduce."""
    from collections import Counter
    from itertools import combinations

    from privmax.applications import _comb_rank

    v = len(d.vocabulary) if vocab_size is None else vocab_size
    index = {tok: i for i, tok in enumerate(d.vocabulary)}
    counts = Counter()
    for basket in d.baskets:
        counts.update(combinations(sorted(map(index.__getitem__, basket)), r))
    n = d.n
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "nonzeros": tuple(c / n for _, c in ordered),
        "k": math.comb(v, r),
        "n": n,
        "occurring": tuple(tuple(d.vocabulary[i] for i in combo) for combo, _ in ordered),
        "occurring_ranks": tuple(sorted(_comb_rank(combo, v) for combo, _ in ordered)),
    }


def satisfies_margin(u, ell, gamma):
    """True iff at most ell items lie within gamma of the top value.

    Formally: order_stat(ell+1) < order_stat(1) - gamma. At ell = k this is
    always true via the -inf sentinel.
    """
    if not 1 <= ell <= u.k:
        raise ValueError(f"ell {ell} outside [1, {u.k}]")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return order_stat(u, ell + 1) < order_stat(u, 1) - gamma


# Stage references. Unlike everything above, these run the library's own
# code: they are the readable forms of the LMM's stage 1 and stage 3, which
# ``_eager_lmm`` in test_mechanisms composes with ``margin_search`` and pins
# the LMM plan to, draw for draw. Neither is private on its own: stage 3
# draws from a data-dependent top-ell set, and only stage 2's certified
# margin makes that private.


def noisy_max_estimate(u, alpha, src):
    """Stage 1: the top value plus Lap(1/alpha)/n, one ``src.laplace`` draw."""
    require_alpha(alpha)
    return order_stat(u, 1) + src.laplace(1.0 / alpha) / u.n


def restricted_exponential(u, ell, alpha, src):
    """Stage 3: the exponential mechanism restricted to the ell
    highest-quality items, drawn with one ``src.uniform()`` through the
    plans' own sampler.

    Items outside the top set receive probability exactly 0; at ell = k the
    distribution coincides with the unrestricted mechanism.
    """
    if not 1 <= ell <= u.k:
        raise ValueError(f"ell {ell} outside [1, {u.k}]")
    budget = PrivacyBudget(alpha)
    item = _ExponentialWeights(u, alpha).pick(ell, src.uniform())
    return MechanismOutcome(item=item, budget=budget, ell=ell)
