"""Core types for private selection: scored item universes, order statistics,
margin predicates, and the rank-indexed threshold schedule used by the
margin-adaptive mechanism."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice
from typing import NamedTuple, Sequence

NEG_INF = float("-inf")

# a lazily sorted head grows to at least this many ranks, to at least this
# multiple of its current length, and to at least 1/_HEAD_FRACTION of the
# explicit values, so that one growth covers the ranks a search reaches on a
# large universe and its sort of about that many ids stays well below its
# linear scan; a prefix of k/4 ranks or more is sorted in full
_MIN_PREFIX = 256
_PREFIX_GROWTH = 8
_HEAD_FRACTION = 64
# values in the stride sample that picks a growth's candidate threshold
_SAMPLE_SIZE = 4096


class ThresholdPair(NamedTuple):
    """Margin width ``t`` and search threshold ``T`` for one rank ``r``.

    Both quantities shrink like 1/n and grow logarithmically in r; ``T >= t > 0``
    always holds for valid inputs.
    """

    t: float
    T: float
    r: int


def require_alpha(alpha: float) -> None:
    """Raise ValueError unless ``alpha`` is positive and finite. An infinite
    alpha would turn exp(n*alpha*(f - f_max)/2) into inf * 0 = NaN at the top
    item and collapse every threshold to its t term."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def checked_make(cls, iterable):
    """``_make`` for a validated ``NamedTuple`` record: namedtuple's own
    ``_make``, and the ``_replace`` built on it, skip ``__new__`` and so its
    checks. Bind it with ``_make = classmethod(checked_make)``."""
    values = tuple(iterable)
    if len(values) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
    return cls(*values)


class PrivacyBudget(NamedTuple("PrivacyBudget", [("alpha", float), ("delta", float)])):
    """Privacy-loss pair (alpha, delta) governing one mechanism invocation.

    delta = 0 is allowed only for pure-DP baselines; mechanisms that need an
    approximate budget call :meth:`require_approximate`.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, alpha: float, delta: float = 0.0) -> PrivacyBudget:
        require_alpha(alpha)
        if not (0.0 <= delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {delta}")
        return super().__new__(cls, alpha, delta)

    def require_approximate(self) -> None:
        if self.delta <= 0.0:
            raise ValueError("this mechanism requires delta in (0, 1)")


class QualityUniverse:
    """Per-item quality scores f(1..k) with declared sensitivity 1/n.

    One form serves every universe: ``explicit`` holds the values f(1..L) in
    id order, and the ids L+1..k form a block that all carry the constant
    ``fill`` value. ``k`` may be combinatorially large (the fill block is
    never materialized), which is what makes itemset-scale universes
    workable.

    One constructor builds it, ``QualityUniverse(explicit, k, n, fill)``, and
    every value must be finite. When L < k the explicit values must be sorted
    descending down to the fill value, so the fill ids follow them in the
    descending order. :meth:`dense` is the case L = k, values in caller order.

    Readers see the descending order (values descending, ties by ascending
    id) through one cached head, ``_head = (values, ids)``: a prefix of that
    order, and ranks past the explicit values read the fill value. The head
    of descending explicit values is complete from the start. Any other head
    is sorted only as far as :func:`order_stat` and :func:`top_set` read it,
    and grows geometrically on demand, each growth to at least 1/64 of the
    explicit values (see :meth:`_descending`), so a search on a large
    universe grows it once. The head is the only state that ever changes,
    and only :meth:`_descending` changes it, replacing the pair whole. A
    reader reads the pair once and indexes it, or the pair a growth
    returned, so every read is exact and a universe may still be shared
    freely across threads; a race between two growths at worst repeats a
    sort.
    """

    __slots__ = ("k", "n", "explicit", "fill", "_head")

    def __init__(self, explicit: Sequence[float], k: int, n: int, fill: float = 0.0):
        # bool is an int subclass, but True is no universe size
        if not (isinstance(k, int) and not isinstance(k, bool) and k >= 1):
            raise ValueError(f"universe size k must be a positive integer, got {k!r}")
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"dataset size n must be a positive integer, got {n!r}")
        vals = tuple(map(float, explicit))
        fill = float(fill)
        if len(vals) > k:
            raise ValueError(f"universe has {len(vals)} explicit values but k={k}")
        if not (all(map(math.isfinite, vals)) and math.isfinite(fill)):
            raise ValueError("explicit values and the fill value must all be finite")
        # stops at the first ascent, so shuffled values cost next to nothing
        descending = all(map(float.__ge__, vals, islice(vals, 1, None)))
        if len(vals) < k and not (descending and (not vals or vals[-1] >= fill)):
            raise ValueError("with L < k the explicit values must be sorted descending and >= the fill value")
        self.k = k
        self.n = n
        self.explicit = vals
        self.fill = fill
        # the identity order of descending values is the stable descending one
        self._head = (vals, range(1, len(vals) + 1)) if descending else ((), ())

    def _descending(self, m: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """Grow the head to at least ``min(m, L)`` ranks and return the
        grown (values, ids) pair.

        A growth reaches at least max(m, 256, 8 times the current head, L/64)
        ranks, and a prefix of L/4 ranks or more is a full sort. Short of
        that, one scan of the values collects the ascending ids of those at
        or above a candidate from a stride sample of about 4,096 values.
        About m/step sampled values lie among the m largest, and a few
        standard deviations more make the first candidate admit m values in
        all but adversarial layouts; each miss scans again, twice as far down
        the sample, and a candidate past its end falls back to the full sort.
        A stable sort of the collected ids by value keeps the ascending-id
        tie order, and the head is cut after the last tie of the m-th value:
        every explicit value >= it, a prefix of the stable descending order.
        So the head equals the first ranks of the full sort: the same ids and
        the same float objects, +-0.0 included.
        """
        vals = self.explicit
        size = len(vals)
        m = max(m, _MIN_PREFIX, _PREFIX_GROWTH * len(self._head[1]), size // _HEAD_FRACTION)
        above = ()
        if 4 * m < size:
            step = max(1, size // _SAMPLE_SIZE)
            sample = sorted(vals[::step], reverse=True)
            last = len(sample) - 1
            j = m // step
            j += 3 * math.isqrt(j) + 1
            while True:
                cand = sample[min(j, last)]
                above = [i for i, v in enumerate(vals) if v >= cand]  # ascending ids
                if len(above) >= m or j >= last:
                    break
                j *= 2
        if len(above) < m:
            # sorting the floats directly beats gathering them through the id
            # order: the gather reads the float objects in random order
            values = tuple(sorted(vals, reverse=True))
            # stable even with reverse=True: ties keep ascending-id order
            order = sorted(range(size), key=vals.__getitem__, reverse=True)
        else:
            order = sorted(above, key=vals.__getitem__, reverse=True)
            # cut after the last tie of the m-th value (0.0 ties -0.0); bisect
            # needs ascending keys, and the negated values ascend along the order
            order = order[:bisect_right(order, -vals[order[m - 1]], m, key=lambda i: -vals[i])]
            values = tuple(map(vals.__getitem__, order))
        head = self._head = values, tuple(map((1).__add__, order))
        return head

    @classmethod
    def dense(cls, values: Sequence[float], n: int) -> "QualityUniverse":
        return cls(values, len(values), n)

    @classmethod
    def sparse(cls, nonzeros: Sequence[float], k: int, n: int, fill: float = 0.0) -> "QualityUniverse":
        return cls(nonzeros, k, n, fill)

    @property
    def values(self) -> tuple[float, ...]:
        """Alias of ``explicit`` for callers of :meth:`dense`; the library reads ``explicit``."""
        return self.explicit

    @property
    def sensitivity(self) -> float:
        return 1.0 / self.n

    @property
    def explicit_count(self) -> int:
        """L: number of explicitly stored values (== k when there is no fill block)."""
        return len(self.explicit)

    def value(self, item: int) -> float:
        """Quality of item id in [1, k]."""
        if not 1 <= item <= self.k:
            raise ValueError(f"item id {item} outside [1, {self.k}]")
        if item <= len(self.explicit):
            return self.explicit[item - 1]
        return self.fill

    def __repr__(self) -> str:
        return f"QualityUniverse(k={self.k}, n={self.n}, L={self.explicit_count}, fill={self.fill!r})"


def order_stat(u: QualityUniverse, r: int) -> float:
    """The r-th largest quality value; -inf for the r = k+1 sentinel.

    Ranks past the explicit values return the fill value. -inf is never a
    stored value, only this sentinel. A universe built from unsorted values
    sorts them only when a read goes past its cached descending head, so
    reading the top ranks costs one linear scan of the values, not a sort,
    and grows the head to at least L/64 ranks; a read inside the head costs
    no more than an index.
    """
    if not 1 <= r <= u.k + 1:
        raise ValueError(f"rank {r} outside [1, {u.k + 1}]")
    try:
        return u._head[0][r - 1]
    except IndexError:  # past the cached head
        if r == u.k + 1:
            return NEG_INF
        if r > len(u.explicit):
            return u.fill
        return u._descending(r)[0][r - 1]


def top_set(u: QualityUniverse, ell: int) -> tuple[int, ...]:
    """Ids of the ell highest-quality items, ties broken by lowest id.

    The result is ordered by descending value (ties ascending by id), i.e. the
    first ell entries of the stable descending sort. Unsorted explicit values
    are sorted only as far as the largest ell read so far (see
    :func:`order_stat`).
    """
    if not 1 <= ell <= u.k:
        raise ValueError(f"ell {ell} outside [1, {u.k}]")
    ids = u._head[1]
    if len(ids) < min(ell, len(u.explicit)):
        ids = u._descending(ell)[1]
    # every explicit value is >= the fill value, so the fill ids follow the
    # head in ascending order
    return tuple(ids[:ell]) + tuple(range(len(ids) + 1, ell + 1))


def compute_thresholds(n: int, alpha: float, delta: float, r: int) -> ThresholdPair:
    """Margin width t and search threshold T for rank r.

        t = (6/n) * (1 + ln(3r/delta)/alpha)
        T = (3/(n a)) ln(3/(2 delta)) + (6/(n a)) ln(3/delta)
            + (12/(n a)) ln(3 r (r+1)/delta) + t

    Both are strictly increasing in r and scale as 1/n for fixed (alpha, delta).
    The adaptive mechanism asks for a rank only when its search reaches it, so
    a call pays for the ranks it scans, and a bound plan keeps the T values it
    has computed for its later runs (see ``mechanisms._LargeMarginPlan``).
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (isinstance(r, int) and r >= 1):
        raise ValueError(f"rank must be a positive integer, got {r}")
    require_alpha(alpha)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    na = n * alpha
    t = (6.0 / n) * (1.0 + math.log(3.0 * r / delta) / alpha)
    T = (
        (3.0 / na) * math.log(3.0 / (2.0 * delta))
        + (6.0 / na) * math.log(3.0 / delta)
        + (12.0 / na) * math.log(3.0 * r * (r + 1) / delta)
        + t
    )
    return ThresholdPair(t=t, T=T, r=r)


class MechanismOutcome(NamedTuple):
    """Selected item plus run diagnostics: the five fields a mechanism run
    draws, and the only form of a run.

    ``m`` is the noisy max estimate and ``ell`` the certified rank, when the
    mechanism produces them. ``certified`` is False on the cap-exhausted
    fallback path, where no margin certificate backs the selection. A
    declined st13 run is an outcome too: its item is
    ``mechanisms.FAIL_KEY`` and ``certified`` is False.
    """

    item: int | str
    budget: PrivacyBudget
    m: float | None = None
    ell: int | None = None
    certified: bool = True


def json_int(doc: dict, field: str) -> int:
    """``doc[field]``, which must be a JSON integer.

    A float, string or bool raises ValueError: ``int()`` would silently
    truncate 3.7, parse "3" and read true as 1.
    """
    if field not in doc:
        raise ValueError(f"missing field {field!r}")
    value = doc[field]
    if type(value) is not int:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


def json_numbers(doc: dict, field: str) -> list[float]:
    """``doc[field]``, which must be a JSON array of numbers, as floats.

    A string or bool element raises ValueError: ``float()`` would parse "0.5"
    and read true as 1.0. So does an integer beyond the float range, on which
    ``float()`` would raise OverflowError. The type check is one C-level
    pass. An array of floats is returned as it is; only an array that holds
    integers takes a second pass, which returns it as a float copy.
    """
    if field not in doc:
        raise ValueError(f"missing field {field!r}")
    value = doc[field]
    if type(value) is not list:
        raise ValueError(f"field {field!r} must be an array of numbers, got {type(value).__name__}")
    types = set(map(type, value))
    if not types <= {int, float}:
        bad = next(x for x in value if type(x) not in (int, float))
        raise ValueError(f"field {field!r} must hold only numbers, got {bad!r}")
    return _floats(field, value) if int in types else value


def _floats(field: str, numbers) -> list[float]:
    """``list(map(float, numbers))``, with ValueError where ``float()`` would
    overflow: a JSON integer may be written with more digits than any float
    holds."""
    try:
        return list(map(float, numbers))
    except OverflowError:
        raise ValueError(f"field {field!r} holds an integer too large for a float") from None


# the keys each universe document form may hold
_DOCUMENT_FIELDS = {"values": ("k", "n", "values"), "nonzeros": ("k", "n", "nonzeros", "fill")}


def universe_from_dict(doc: dict) -> QualityUniverse:
    """Build a universe from its JSON document form.

    All k values: {"k": int, "n": int, "values": [...]}.
    L <= k values, sorted descending when L < k: {"k": int, "n": int,
    "nonzeros": [...], "fill": float}, fill optional (0). Any other key, a
    field of the other form or a misspelt one, would be left unread, so it is
    rejected by name. Sizes must be JSON integers and values JSON numbers (no
    strings or bools).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"universe document must be a JSON object, got {type(doc).__name__}")
    form = "values" if "values" in doc else "nonzeros" if "nonzeros" in doc else None
    if form is None:
        raise ValueError("universe document needs a 'values' or 'nonzeros' field")
    for field in doc:
        if field not in _DOCUMENT_FIELDS[form]:
            raise ValueError(f"a {form!r} universe document must not hold {field!r}")
    k, n = json_int(doc, "k"), json_int(doc, "n")
    if form == "values":
        values = json_numbers(doc, "values")
        if len(values) != k:
            raise ValueError(f"field 'values' needs exactly {k} values, got {len(values)}")
        return QualityUniverse(values, k, n)
    fill = doc.get("fill", 0.0)
    if type(fill) not in (int, float):
        raise ValueError(f"field 'fill' must be a number, got {fill!r}")
    (fill,) = _floats("fill", [fill])
    return QualityUniverse(json_numbers(doc, "nonzeros"), k, n, fill)


def universe_to_dict(u: QualityUniverse) -> dict:
    if u.explicit_count == u.k:
        return {"k": u.k, "n": u.n, "values": list(u.explicit)}
    return {"k": u.k, "n": u.n, "nonzeros": list(u.explicit), "fill": u.fill}


def load_universe(path) -> QualityUniverse:
    import json  # imported on use, so `from privmax import QualityUniverse` does not load it

    with open(path, "r", encoding="utf-8") as fh:
        return universe_from_dict(json.load(fh))


def save_universe(u: QualityUniverse, path) -> None:
    import json  # imported on use, as in load_universe

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(universe_to_dict(u), fh)
