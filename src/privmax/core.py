"""Core types for private selection: scored item universes, order statistics,
margin predicates, and the rank-indexed threshold schedule used by the
margin-adaptive mechanism."""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

NEG_INF = float("-inf")

# a dense universe's sorted prefix grows to at least this many ranks, and to
# at least this multiple of its current length; a prefix of k/4 ranks or
# more is sorted in full
_MIN_PREFIX = 256
_PREFIX_GROWTH = 8


class ThresholdPair(NamedTuple):
    """Margin width ``t`` and search threshold ``T`` for one rank ``r``.

    Both quantities shrink like 1/n and grow logarithmically in r; ``T >= t > 0``
    always holds for valid inputs.
    """

    t: float
    T: float
    r: int


@dataclass(frozen=True)
class PrivacyBudget:
    """Privacy-loss pair (alpha, delta) governing one mechanism invocation.

    delta = 0 is allowed only for pure-DP baselines; mechanisms that need an
    approximate budget call :meth:`require_approximate`.
    """

    alpha: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")

    def require_approximate(self) -> None:
        if self.delta <= 0.0:
            raise ValueError("this mechanism requires delta in (0, 1)")


class QualityUniverse:
    """Per-item quality scores f(1..k) with declared sensitivity 1/n.

    One form serves every universe: ``explicit`` holds the values f(1..L) in
    id order, and the ids L+1..k form a block that all carry the constant
    ``fill`` value. ``k`` may be combinatorially large (the fill block is
    never materialized), which is what makes itemset-scale universes
    workable. Every explicit value is >= the fill value unless the block is
    empty.

    Two constructors fill it in. :meth:`dense` stores one finite value per
    item, ids 1..k in caller order, so L = k and the block is empty.
    :meth:`sparse` stores explicit values sorted descending at ids 1..L, so
    its descending order is known when it is built.

    Readers see the descending order (values descending, ties by ascending
    id) through a cached head: ``_sorted`` holds its values and ``_ids_desc``
    its ids, and ranks past the explicit values read the fill value. A
    sparse universe's head is complete from the start. A dense universe's
    head is sorted only as far as :func:`order_stat` and :func:`top_set`
    read it and grows geometrically on demand. The head is the only state
    that ever changes. Each of its two tuples is only ever replaced whole by
    another prefix of the same order, and a reader reads the attribute once
    and indexes that tuple, or the longer one its growth returned, so every
    read is exact and a universe may still be shared freely across threads;
    a race between two growths at worst repeats a sort.
    """

    __slots__ = ("k", "n", "explicit", "fill", "values", "nonzeros", "_sorted", "_ids_desc")

    def __init__(self, *, k, n, values=None, nonzeros=None, fill=0.0):
        # bool is an int subclass, but True is no universe size
        if not (isinstance(k, int) and not isinstance(k, bool) and k >= 1):
            raise ValueError(f"universe size k must be a positive integer, got {k!r}")
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
            raise ValueError(f"dataset size n must be a positive integer, got {n!r}")
        if (values is None) == (nonzeros is None):
            raise ValueError("exactly one of values/nonzeros must be given")
        self.k = k
        self.n = n
        if values is not None:
            vals = tuple(map(float, values))
            if len(vals) != k:
                raise ValueError(f"dense universe needs exactly {k} values, got {len(vals)}")
            if not all(map(math.isfinite, vals)):
                raise ValueError("dense values must all be finite")
            self.explicit = vals
            self.values = vals
            self.nonzeros = None
            self.fill = 0.0
            # cached prefix of the descending order, grown by _descending
            self._sorted = ()
            self._ids_desc = ()
        else:
            nz = tuple(map(float, nonzeros))
            fill = float(fill)
            if not math.isfinite(fill):
                raise ValueError("fill value must be finite")
            if len(nz) > k:
                raise ValueError(f"sparse universe has {len(nz)} explicit values but k={k}")
            if not all(map(math.isfinite, nz)):
                raise ValueError("explicit sparse values must all be finite")
            if not all(map(float.__ge__, nz, nz[1:])):
                raise ValueError("sparse values must be sorted descending")
            if nz and nz[-1] < fill:
                raise ValueError("sparse values must all be >= the fill value")
            self.explicit = nz
            self.values = None
            self.nonzeros = nz
            self.fill = fill
            # sorted descending at ids 1..L, so the head is complete
            self._sorted = nz
            self._ids_desc = range(1, len(nz) + 1)

    def _descending(self, m: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
        """Grow the cached descending head to at least ``min(m, L)`` ranks and
        return its (values, ids) pair.

        The explicit values >= the m-th largest one form a prefix of the
        stable descending order, and a stable sort of their ascending ids
        keeps its tie-breaking, so the head equals the first ranks of the
        full sort: the same ids and the same float objects, +-0.0 included.
        """
        vals = self.explicit
        size = len(vals)
        m = max(m, _MIN_PREFIX, _PREFIX_GROWTH * len(self._ids_desc))
        if 4 * m >= size:
            # sorting the floats directly beats gathering them through the id
            # order: the gather reads the float objects in random order
            values = tuple(sorted(vals, reverse=True))
            # stable even with reverse=True: ties keep ascending-id order
            order = sorted(range(size), key=vals.__getitem__, reverse=True)
        else:
            thr = heapq.nlargest(m, vals)[-1]
            above = [j for j in range(size) if vals[j] >= thr]  # ascending ids
            order = sorted(above, key=vals.__getitem__, reverse=True)
            values = tuple(map(vals.__getitem__, order))
        ids = tuple(map((1).__add__, order))
        # keep a longer prefix that a concurrent reader stored meanwhile
        if len(values) > len(self._sorted):
            self._sorted = values
        if len(ids) > len(self._ids_desc):
            self._ids_desc = ids
        return values, ids

    @classmethod
    def dense(cls, values: Sequence[float], n: int) -> "QualityUniverse":
        values = tuple(values)
        return cls(k=len(values), n=n, values=values)

    @classmethod
    def sparse(cls, nonzeros: Sequence[float], k: int, n: int, fill: float = 0.0) -> "QualityUniverse":
        return cls(k=k, n=n, nonzeros=nonzeros, fill=fill)

    @property
    def is_sparse(self) -> bool:
        return self.nonzeros is not None

    @property
    def sensitivity(self) -> float:
        return 1.0 / self.n

    @property
    def explicit_count(self) -> int:
        """L: number of explicitly stored values (== k for dense universes)."""
        return len(self.explicit)

    def value(self, item: int) -> float:
        """Quality of item id in [1, k]."""
        if not 1 <= item <= self.k:
            raise ValueError(f"item id {item} outside [1, {self.k}]")
        if item <= len(self.explicit):
            return self.explicit[item - 1]
        return self.fill

    def __repr__(self) -> str:
        form = "sparse" if self.is_sparse else "dense"
        return f"QualityUniverse({form}, k={self.k}, n={self.n}, L={self.explicit_count})"


def order_stat(u: QualityUniverse, r: int) -> float:
    """The r-th largest quality value; -inf for the r = k+1 sentinel.

    Ranks past the explicit values return the fill value. -inf is never a
    stored value, only this sentinel. A dense universe sorts its values only
    when a read goes past its cached descending head, so reading the top
    ranks costs one linear pass, not a sort; a read inside the head costs no
    more than an index.
    """
    if not 1 <= r <= u.k + 1:
        raise ValueError(f"rank {r} outside [1, {u.k + 1}]")
    try:
        return u._sorted[r - 1]
    except IndexError:  # past the cached head
        if r == u.k + 1:
            return NEG_INF
        if r > len(u.explicit):
            return u.fill
        return u._descending(r)[0][r - 1]


def satisfies_margin(u: QualityUniverse, ell: int, gamma: float) -> bool:
    """True iff at most ell items lie within gamma of the top value.

    Formally: order_stat(ell+1) < order_stat(1) - gamma. At ell = k this is
    always true via the -inf sentinel.
    """
    if not 1 <= ell <= u.k:
        raise ValueError(f"ell {ell} outside [1, {u.k}]")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return order_stat(u, ell + 1) < order_stat(u, 1) - gamma


def top_set(u: QualityUniverse, ell: int) -> tuple[int, ...]:
    """Ids of the ell highest-quality items, ties broken by lowest id.

    The result is ordered by descending value (ties ascending by id), i.e. the
    first ell entries of the stable descending sort. A dense universe sorts
    only as far as the largest ell read so far (see :func:`order_stat`).
    """
    if not 1 <= ell <= u.k:
        raise ValueError(f"ell {ell} outside [1, {u.k}]")
    ids = u._ids_desc
    if len(ids) < min(ell, len(u.explicit)):
        ids = u._descending(ell)[1]
    # every explicit value is >= the fill value, so the fill ids follow the
    # head in ascending order
    return tuple(ids[:ell]) + tuple(range(len(ids) + 1, ell + 1))


@lru_cache(maxsize=200_000)
def compute_thresholds(n: int, alpha: float, delta: float, r: int) -> ThresholdPair:
    """Margin width t and search threshold T for rank r.

        t = (6/n) * (1 + ln(3r/delta)/alpha)
        T = (3/(n a)) ln(3/(2 delta)) + (6/(n a)) ln(3/delta)
            + (12/(n a)) ln(3 r (r+1)/delta) + t

    Both are strictly increasing in r and scale as 1/n for fixed (alpha, delta).
    The adaptive mechanism asks for a rank only when its search reaches it, so
    a call pays for the ranks it scans. The result is cached because repeated
    runs on one (n, alpha, delta), such as audit trials, revisit the same few
    low ranks on every run.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    if not (isinstance(r, int) and r >= 1):
        raise ValueError(f"rank must be a positive integer, got {r}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
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
    """Selected item plus run diagnostics.

    ``m`` is the noisy max estimate and ``ell`` the certified rank, when the
    mechanism produces them. ``certified`` is False on the cap-exhausted
    fallback path, where no margin certificate backs the selection.
    """

    item: int
    budget: PrivacyBudget
    m: float | None = None
    ell: int | None = None
    certified: bool = True
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "item": self.item,
            "m": self.m,
            "ell": self.ell,
            "certified": self.certified,
            "alpha": self.budget.alpha,
            "delta": self.budget.delta,
            "seed": self.seed,
        }


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


def json_numbers(doc: dict, field: str) -> list:
    """``doc[field]``, which must be a JSON array of numbers.

    A string or bool element raises ValueError: ``float()`` would parse "0.5"
    and read true as 1.0. The element check is one C-level pass.
    """
    if field not in doc:
        raise ValueError(f"missing field {field!r}")
    value = doc[field]
    if type(value) is not list:
        raise ValueError(f"field {field!r} must be an array of numbers, got {type(value).__name__}")
    if not set(map(type, value)) <= {int, float}:
        bad = next(x for x in value if type(x) not in (int, float))
        raise ValueError(f"field {field!r} must hold only numbers, got {bad!r}")
    return value


def universe_from_dict(doc: dict) -> QualityUniverse:
    """Build a universe from its JSON document form.

    Dense: {"k": int, "n": int, "values": [...]}.
    Sparse: {"k": int, "n": int, "nonzeros": [...], "fill": float}.
    Sizes must be JSON integers and values JSON numbers (no strings or bools).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"universe document must be a JSON object, got {type(doc).__name__}")
    k, n = json_int(doc, "k"), json_int(doc, "n")
    if "values" in doc:
        return QualityUniverse(k=k, n=n, values=json_numbers(doc, "values"))
    if "nonzeros" in doc:
        fill = doc.get("fill", 0.0)
        if type(fill) not in (int, float):
            raise ValueError(f"field 'fill' must be a number, got {fill!r}")
        return QualityUniverse(k=k, n=n, nonzeros=json_numbers(doc, "nonzeros"), fill=fill)
    raise ValueError("universe document needs a 'values' or 'nonzeros' field")


def universe_to_dict(u: QualityUniverse) -> dict:
    if u.values is not None:
        return {"k": u.k, "n": u.n, "values": list(u.values)}
    return {"k": u.k, "n": u.n, "nonzeros": list(u.nonzeros), "fill": u.fill}


def load_universe(path) -> QualityUniverse:
    with open(path, "r", encoding="utf-8") as fh:
        return universe_from_dict(json.load(fh))


def save_universe(u: QualityUniverse, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(universe_to_dict(u), fh)
