"""Application drivers that build quality universes from raw data.

Frequent itemset selection: a basket dataset yields a sparse universe over all
size-r itemsets of a vocabulary, with support fractions as quality. The
universe id space is the full combinatorial family C(V, r) -- only occurring
itemsets are materialized, everything else sits in the fill block -- and a
codec decodes each id to its itemset from the support counts. A basket
file has one reader, :func:`load_baskets`, and ``privmax fim`` runs
``itemset_quality(load_baskets(path), r, vocab_size)`` in its own process.

PAC hypothesis selection: a finite hypothesis class with per-hypothesis errors
yields a dense universe with quality 1 - error, plus the error-radius shell
decomposition that governs how many near-minimizers the selection step must
tolerate. The shells analyse the selection and feed none of it, so
``privmax pac`` computes them only under ``--non-private``.
"""

from __future__ import annotations

import io
import math
import operator
from bisect import bisect_left, bisect_right
from collections import _count_elements
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations, repeat
from typing import NamedTuple

from .core import QualityUniverse, checked_make, require_alpha
from .audit import NeighborPair


class BasketDataset(
    NamedTuple(
        "BasketDataset",
        [("baskets", tuple[tuple[str, ...], ...]), ("vocabulary", tuple[str, ...]), ("max_basket_len", int)],
    )
):
    """Per-user token baskets: the raw input of the itemset driver.

    Each basket is a tuple of its distinct tokens in vocabulary order, so
    sorted once, when the dataset is built; max_basket_len is the declared
    bound B on basket size. The vocabulary is validated as sorted and
    distinct, so token order is index order: the itemset codec and
    :func:`itemset_quality`'s counting rely on it.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, baskets: tuple[tuple[str, ...], ...], vocabulary: tuple[str, ...], max_basket_len: int
    ) -> BasketDataset:
        if not baskets:
            raise ValueError("dataset must contain at least one basket")
        v = vocabulary
        if not all(map(operator.lt, v, v[1:])):
            raise ValueError("vocabulary must be sorted and free of duplicates")
        vocab = set(v)
        for b in baskets:
            # itemset_quality counts a basket's combinations as they stand:
            # a list could repeat a token, and a set has no vocabulary order
            if not isinstance(b, tuple):
                raise TypeError(f"basket must be a tuple of tokens, got {type(b).__name__}")
            if len(b) > max_basket_len:
                raise ValueError(f"basket of size {len(b)} exceeds declared bound {max_basket_len}")
            if not vocab.issuperset(b):
                raise ValueError(f"basket tokens {sorted(set(b) - vocab)} missing from vocabulary")
            if not all(map(operator.lt, b, b[1:])):
                raise ValueError("basket tokens must be sorted and free of duplicates")
        return super().__new__(cls, baskets, vocabulary, max_basket_len)

    @property
    def n(self) -> int:
        return len(self.baskets)

    @classmethod
    def from_lists(cls, baskets: Iterable[Iterable[str]]) -> "BasketDataset":
        """Dataset from any iterable of token iterables, read in one pass.

        Each basket may be a one-shot iterator. Tokens pass through one
        canonicaliser per call, so equal tokens are one ``str`` object across
        the whole dataset: later hashing, counting and sorting compare shared
        objects, not copies. Each basket is deduplicated and sorted here, once.

        The canonicaliser's keys are the vocabulary and the longest basket is
        the bound, so every check of ``__new__`` holds by construction and is
        skipped.
        """
        canon = _Canonical()
        sets = map(set, map(map, repeat(canon.__getitem__), baskets))
        tuples = tuple(map(tuple, map(sorted, sets)))
        if not tuples:
            raise ValueError("dataset must contain at least one basket")
        return super().__new__(cls, tuples, tuple(sorted(canon)), max(map(len, tuples)))


class _Canonical(dict):
    """Maps each token to the first equal object seen: ``d[t]`` stores and
    returns ``t`` on a miss, so a lookup is one C-level dict read."""

    __slots__ = ()

    def __missing__(self, token: str) -> str:
        self[token] = token
        return token


def load_baskets(path) -> BasketDataset:
    """Read a basket file: one basket per line, whitespace-separated tokens.

    The file is read and decoded as strict UTF-8 whole, so a decode error
    names the byte's offset in the file. Lines end as text-mode ``open`` ends
    them: a newline, a CR LF pair or a lone CR. Each line's tokens go straight
    into :meth:`BasketDataset.from_lists`. Tokens are deduplicated per basket;
    blank lines are skipped; a file with no tokens is an error. Vocabulary
    order (and therefore id assignment) is the sorted token order, stable
    across reloads.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    baskets = filter(None, map(str.split, io.StringIO(text, newline=None)))
    first = next(baskets, None)
    if first is None:
        raise ValueError(f"no baskets found in {path}")
    return BasketDataset.from_lists(chain((first,), baskets))


def _comb_rank(indices: tuple[int, ...], v: int) -> int:
    """0-based rank of an ascending index combination in lexicographic order.

    Counts, per position, the combinations whose element there is smaller
    given the shared prefix; the count telescopes to C(v-prev-1, q) - C(v-c, q),
    keeping this O(r) even for astronomically large vocabularies.
    """
    r = len(indices)
    rank = 0
    prev = -1
    for pos, c in enumerate(indices):
        q = r - pos
        rank += math.comb(v - prev - 1, q) - math.comb(v - c, q)
        prev = c
    return rank


def _comb_unrank(rank: int, v: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`_comb_rank`; binary-searched per position so it stays
    O(r log v) even for astronomically large vocabularies."""
    if not 0 <= rank < math.comb(v, r):
        raise ValueError(f"rank {rank} outside [0, C({v},{r}))")
    indices = []
    base = 0  # smallest index still available
    for pos in range(r):
        rem = r - pos
        vv = v - base  # candidates remaining
        total = math.comb(vv, rem)
        # combos with first element < a (relative): total - C(vv - a, rem)
        lo, hi = 0, vv - rem  # relative offset of this position's element
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if total - math.comb(vv - mid, rem) <= rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= total - math.comb(vv - lo, rem)
        indices.append(base + lo)
        base = base + lo + 1
    return tuple(indices)


class ItemsetCodec(
    NamedTuple(
        "ItemsetCodec",
        [
            ("vocabulary", tuple[str, ...]),
            ("vocab_size", int),
            ("r", int),
            ("counts", dict[tuple[str, ...], int]),
            ("supports", tuple[int, ...]),
        ],
    )
):
    """Decoder from universe ids to size-r itemsets, built by
    :func:`itemset_quality`.

    ``counts`` maps each occurring itemset, a tuple of tokens in vocabulary
    order, to its support count; ``supports`` holds the L counts sorted
    descending. Ids 1..L are the occurring itemsets in universe (canonical
    sparse) order: support descending, ties in lexicographic order. Ids
    above L enumerate the non-occurring itemsets in lexicographic order over
    the full C(vocab_size, r) family; tokens beyond the materialized
    vocabulary (from inflation) decode to synthetic "_unused<i>" names.

    Nothing is ordered when the codec is built. Decoding an id in 1..L sorts
    only that id's support tie group, once per support; the first decode of
    a fill id (above L) ranks the occurring itemsets, unordered. Both caches
    live in the instance dict, outside the tuple: the class sets no
    ``__slots__``, and the hash skips the unhashable count table, which
    ``supports`` summarises.
    """

    def __hash__(self) -> int:
        return hash((self.vocabulary, self.vocab_size, self.r, self.supports))

    @cached_property
    def occurring_ranks(self) -> tuple[int, ...]:
        """Sorted lexicographic ranks of the occurring itemsets over C(vocab_size, r)."""
        index = {tok: i for i, tok in enumerate(self.vocabulary)}
        v = self.vocab_size
        return tuple(sorted(_comb_rank(tuple(map(index.__getitem__, c)), v) for c in self.counts))

    @cached_property
    def _tie_groups(self) -> dict[int, list[tuple[str, ...]]]:
        """Support -> its occurring itemsets in lexicographic order, for the
        supports decoded so far."""
        return {}

    @property
    def universe_size(self) -> int:
        return math.comb(self.vocab_size, self.r)

    def decode(self, item_id: int) -> tuple[str, ...]:
        if not 1 <= item_id <= self.universe_size:
            raise ValueError(f"item id {item_id} outside [1, {self.universe_size}]")
        supports = self.supports
        if item_id <= len(supports):
            c = supports[item_id - 1]
            group = self._tie_groups.get(c)
            if group is None:
                group = self._tie_groups[c] = sorted([t for t, count in self.counts.items() if count == c])
            # the group starts at the first index holding c
            return group[item_id - 1 - bisect_left(supports, -c, key=operator.neg)]
        # j-th non-occurring itemset in lex order; skip past occupied ranks
        j = item_id - len(supports)
        rank = j - 1
        while True:
            shifted = j - 1 + bisect_right(self.occurring_ranks, rank)
            if shifted == rank:
                break
            rank = shifted
        tokens = self.vocabulary
        return tuple(tokens[i] if i < len(tokens) else f"_unused{i}"
                     for i in _comb_unrank(rank, self.vocab_size, self.r))


class ItemsetQuality(NamedTuple):
    universe: QualityUniverse
    codec: ItemsetCodec


def itemset_quality(d: BasketDataset, r: int, vocab_size: int | None = None) -> ItemsetQuality:
    """Sparse quality universe over all size-r itemsets: support fraction as quality.

    K = C(V, r) where V is the (optionally inflated) vocabulary size; only the
    L occurring itemsets are materialized, so L <= n * C(B, r) regardless of
    V. Canonical sparse order is support descending with ties by lexicographic
    itemset rank, which the returned codec decodes.

    Itemsets are counted as the r-combinations of each basket, tuples of
    tokens; baskets are already in vocabulary order, which is index order, so
    these tuples compare exactly as the index combinations do and their
    lexicographic order is the rank order the codec enumerates. The universe
    needs only the support counts in descending order, one sort of ints; the
    codec keeps those and the count table, and orders no itemset until a
    decode reads one.

    r > B is not an error: it returns the all-fill universe with L = 0.
    """
    if r < 1:
        raise ValueError(f"itemset size must be >= 1, got {r}")
    v = len(d.vocabulary) if vocab_size is None else vocab_size
    if v < len(d.vocabulary):
        raise ValueError(f"vocab_size {v} smaller than the {len(d.vocabulary)} observed tokens")
    k = math.comb(v, r)
    if k < 1:
        raise ValueError(f"no size-{r} itemsets over a {v}-token vocabulary")
    counts = _count_itemsets(d.baskets, r)
    supports = tuple(sorted(counts.values(), reverse=True))
    n = d.n  # a property: read once, not once per support
    universe = QualityUniverse.sparse([c / n for c in supports], k=k, n=n)
    codec = ItemsetCodec(vocabulary=d.vocabulary, vocab_size=v, r=r, counts=counts, supports=supports)
    return ItemsetQuality(universe=universe, codec=codec)


def _count_itemsets(baskets: Iterable[tuple[str, ...]], r: int) -> dict[tuple[str, ...], int]:
    """Support count of each size-r itemset of the baskets, counted in C
    into a plain dict in first-seen order."""
    counts = {}
    _count_elements(counts, chain.from_iterable(map(combinations, baskets, repeat(r))))
    return counts


def itemset_quality_dense(d: BasketDataset, r: int) -> QualityUniverse:
    """Dense variant with id = lexicographic rank + 1 over C(V, r).

    Ids align across datasets sharing a vocabulary, which is what neighbor
    pairs need; only usable at desk scale (the full family is materialized).
    """
    if r < 1:
        raise ValueError(f"itemset size must be >= 1, got {r}")
    v = len(d.vocabulary)
    k = math.comb(v, r)
    if k < 1:
        raise ValueError(f"no size-{r} itemsets over a {v}-token vocabulary")
    if k > 10**6:
        raise ValueError(f"dense itemset universe with K = {k} is too large; use itemset_quality")
    index = {tok: i for i, tok in enumerate(d.vocabulary)}
    values = [0.0] * k
    for itemset, c in _count_itemsets(d.baskets, r).items():
        values[_comb_rank(tuple(map(index.__getitem__, itemset)), v)] = c / d.n
    return QualityUniverse.dense(values, n=d.n)


def basket_neighbor(d: BasketDataset, index: int, replacement: Sequence[str]) -> BasketDataset:
    """Dataset with basket ``index`` replaced: the single-record change.

    The replacement is deduplicated, must respect the declared basket bound,
    and must stay inside the vocabulary so both datasets share one universe.
    """
    if not 0 <= index < d.n:
        raise ValueError(f"basket index {index} outside [0, {d.n - 1}]")
    new = tuple(sorted(set(replacement)))
    if len(new) > d.max_basket_len:
        raise ValueError(f"replacement of size {len(new)} exceeds the bound {d.max_basket_len}")
    if not set(d.vocabulary).issuperset(new):
        raise ValueError("replacement tokens must come from the dataset vocabulary")
    baskets = list(d.baskets)
    baskets[index] = new
    return BasketDataset(
        baskets=tuple(baskets),
        vocabulary=d.vocabulary,
        max_basket_len=d.max_basket_len,
    )


def basket_neighbor_pair(
    d: BasketDataset, index: int, replacement: Sequence[str], r: int
) -> NeighborPair:
    """Neighboring dense itemset universes from a single-basket change."""
    d2 = basket_neighbor(d, index, replacement)
    return NeighborPair(
        left=itemset_quality_dense(d, r),
        right=itemset_quality_dense(d2, r),
        provenance=f"basket {index} replaced by {list(d2.baskets[index])}",
    )


class HypothesisClass(
    NamedTuple("HypothesisClass", [("predictions", tuple[tuple, ...]), ("labels", tuple), ("d", int)])
):
    """Finite hypothesis class as prediction vectors over one labeled sample.

    ``d`` is a VC-dimension surrogate, supplied not computed.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, predictions: tuple[tuple, ...], labels: tuple, d: int) -> HypothesisClass:
        if not predictions:
            raise ValueError("hypothesis class must be nonempty")
        if not labels:
            raise ValueError("sample must be nonempty")
        for i, p in enumerate(predictions):
            if len(p) != len(labels):
                raise ValueError(
                    f"hypothesis {i} predicts {len(p)} points but the sample has {len(labels)}"
                )
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return super().__new__(cls, predictions, labels, d)

    def empirical_errors(self) -> list[float]:
        n = len(self.labels)
        return [
            sum(1 for p, y in zip(preds, self.labels) if p != y) / n
            for preds in self.predictions
        ]


def empirical_quality(h: HypothesisClass) -> QualityUniverse:
    """Dense universe over hypotheses with quality 1 - empirical error."""
    errors = h.empirical_errors()
    return QualityUniverse.dense([1.0 - e for e in errors], n=len(h.labels))


class ShellDecomposition(
    NamedTuple(
        "ShellDecomposition",
        [("shell_sizes", tuple[int, ...]), ("width", float), ("min_err", float), ("C0", float), ("R", int)],
    )
):
    """Counts of hypotheses within t error-radius widths of the best one.

    shell_sizes[t] counts errors within t * width of the minimum, for
    t = 0..R; wider radius means a larger shell, so sizes are nondecreasing.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, shell_sizes: tuple[int, ...], width: float, min_err: float, C0: float, R: int
    ) -> ShellDecomposition:
        if len(shell_sizes) != R + 1:
            raise ValueError(f"need R+1 = {R + 1} shell sizes, got {len(shell_sizes)}")
        if any(a > b for a, b in zip(shell_sizes, shell_sizes[1:])):
            raise ValueError("shell sizes must be nondecreasing in t")
        return super().__new__(cls, shell_sizes, width, min_err, C0, R)


def shell_parameters(d: int, n: int, delta0: float, C0: float = 1.0) -> tuple[float, int]:
    """The shells' (width, R), after checking the scalar arguments.

    width = C0 * sqrt(d * ln(n/delta0) / n) is the uniform-convergence radius;
    R = ceil(sqrt(n / (d * ln n))) shells (constant 1) cover the range the
    selection analysis needs. Reads no error value, so a caller can check
    these arguments without the pass over the class.
    """
    if d < 1 or n <= 1:
        raise ValueError(f"need d >= 1 and n > 1, got d={d}, n={n}")
    if not 0.0 < delta0 < 1.0:
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
    if not C0 > 0.0:
        raise ValueError(f"C0 must be positive, got {C0}")
    return C0 * math.sqrt(d * math.log(n / delta0) / n), math.ceil(math.sqrt(n / (d * math.log(n))))


def shell_decomposition(
    errors: Sequence[float], d: int, n: int, delta0: float, C0: float = 1.0
) -> ShellDecomposition:
    """Error-radius shells around the best hypothesis, of the width and
    count :func:`shell_parameters` gives."""
    if not errors:
        raise ValueError("need at least one error value")
    if not all(map(math.isfinite, errors)):
        raise ValueError("error values must all be finite")
    width, R = shell_parameters(d, n, delta0, C0)
    min_err = min(errors)
    # shell t counts the errors e <= min_err + t*width; the bounds rise with
    # t, so each pass keeps only the errors above the last bound, and the
    # shells past the largest error hold all k
    k = len(errors)
    rest = errors
    sizes = []
    for t in range(R + 1):
        if rest:
            bound = min_err + t * width
            rest = [e for e in rest if e > bound]
        sizes.append(k - len(rest))
    return ShellDecomposition(shell_sizes=tuple(sizes), width=width, min_err=min_err, C0=C0, R=R)


class TStarResult(NamedTuple):
    t: int
    exhausted: bool  # True when no t <= R-1 satisfied the inequality


def t_star(
    s: ShellDecomposition,
    alpha: float,
    delta: float,
    d: int,
    n: int,
    C: float,
) -> TStarResult:
    """Smallest t whose next shell is cheap enough to select from:

        (ln|H(t+1)| + ln(1/delta)) / t <= C0 * alpha * sqrt(d n ln n) / C.

    Scans t = 1..R-1 and returns R flagged when nothing qualifies. C is the
    caller's universal constant; see :func:`pac_selection_constant` for the
    concrete instantiation the driver uses.
    """
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    require_alpha(alpha)
    rhs = s.C0 * alpha * math.sqrt(d * n * math.log(n)) / C
    for t in range(1, s.R):
        size_next = s.shell_sizes[t + 1]
        if (math.log(size_next) + math.log(1.0 / delta)) / t <= rhs:
            return TStarResult(t=t, exhausted=False)
    return TStarResult(t=s.R, exhausted=True)


def pac_selection_constant(n: int, alpha: float, delta: float, ell: int) -> float:
    """Concrete constant C making C * ln(ell/delta) / (n*alpha) equal the
    adaptive mechanism's required margin gamma*(ell) at eta = delta.

    The selection analysis leaves C symbolic; this ties it to the mechanism's
    actual guarantee so shell selection uses a computable quantity.
    """
    from .mechanisms import lmm_required_margin

    gamma = lmm_required_margin(n, alpha, delta, delta, max(ell, 1))
    denom = math.log(max(ell, 1) / delta)
    return gamma * n * alpha / denom
