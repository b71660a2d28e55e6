"""Application drivers that build quality universes from raw data.

Frequent itemset selection: a basket dataset yields a sparse universe over all
size-r itemsets of a vocabulary, with support fractions as quality. The
universe id space is the full combinatorial family C(V, r) -- only occurring
itemsets are materialized, everything else sits in the fill block -- and a
codec records the bijective id <-> itemset mapping for decoding. A basket
file is read in one place and parsed by one function, whole
(:func:`load_baskets`) or in parts counted on every usable core
(:func:`load_itemset_quality`, what ``privmax fim`` runs); the result and
every error equal the serial count's.

PAC hypothesis selection: a finite hypothesis class with per-hypothesis errors
yields a dense universe with quality 1 - error, plus the error-radius shell
decomposition that governs how many near-minimizers the selection step must
tolerate.
"""

from __future__ import annotations

import io
import math
import operator
from bisect import bisect_left, bisect_right
from collections import _count_elements
from collections.abc import Iterable, Sequence
from functools import cached_property, partial
from itertools import chain, combinations, repeat
from typing import NamedTuple

from .core import QualityUniverse, checked_make, require_alpha
from .audit import NeighborPair, _fan_out, _fan_out_width


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

    The file is read and decoded as strict UTF-8 whole (:func:`_read_text`),
    so a decode error names the byte's offset in the file, and its lines go
    through :func:`_read_baskets` into :meth:`BasketDataset.from_lists`.
    Tokens are deduplicated per basket; blank lines are skipped; a file with
    no tokens is an error. Vocabulary order (and therefore id assignment) is
    the sorted token order, stable across reloads. :func:`load_itemset_quality`
    reads the file and each of its parts through the same two steps.
    """
    d = _read_baskets(_read_text(path))
    if d is None:
        raise ValueError(f"no baskets found in {path}")
    return d


def _read_text(path) -> str:
    """The whole text of a basket file, decoded as strict UTF-8: the one
    place this module opens a basket file."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _read_baskets(text: str) -> BasketDataset | None:
    """The dataset of a basket file's text, or None when no line holds a token.

    Lines end as text-mode ``open`` ends them: a newline, a CR LF pair or a
    lone CR. Each line's tokens go straight into :meth:`BasketDataset.from_lists`.
    """
    baskets = filter(None, map(str.split, io.StringIO(text, newline=None)))
    first = next(baskets, None)
    return None if first is None else BasketDataset.from_lists(chain((first,), baskets))


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


class _SupportOrder(Sequence):
    """The occurring itemsets in canonical sparse order, resolved lazily.

    Canonical order is support descending with ties in lexicographic order.
    ``supports`` holds the support counts sorted descending, so item
    ``j`` has support ``supports[j]`` and sits in that support's tie group,
    which starts at the first index holding it. Reading one item sorts only
    its tie group, found by one scan of ``counts``; after _GROUP_SCANS such
    scans, and on any read of the whole order (iteration, a slice, equality,
    hashing), the full tuple is built once and answers every later read.
    Equality and hashing are those of that tuple.
    """

    # one scan costs about 1/30 of the full sort (L ~ 27k: about 1 ms and 32 ms)
    _GROUP_SCANS = 16

    def __init__(self, counts: dict[tuple[str, ...], int], supports: list[int]):
        self._counts = counts
        self._supports = supports
        self._groups: dict[int, list[tuple[str, ...]]] = {}

    @cached_property
    def _full(self) -> tuple[tuple[str, ...], ...]:
        counts = self._counts
        # lexicographic first; the stable sort by support keeps that order on ties
        return tuple(sorted(sorted(counts), key=counts.__getitem__, reverse=True))

    def __len__(self) -> int:
        return len(self._supports)

    def __getitem__(self, index):
        if "_full" in self.__dict__ or isinstance(index, slice):
            return self._full[index]
        supports = self._supports
        j = operator.index(index)
        if j < 0:
            j += len(supports)
        if not 0 <= j < len(supports):
            raise IndexError("itemset index out of range")
        c = supports[j]
        group = self._groups.get(c)
        if group is None:
            if len(self._groups) >= self._GROUP_SCANS:
                return self._full[j]
            group = self._groups[c] = sorted([t for t, count in self._counts.items() if count == c])
        return group[j - bisect_left(supports, -c, key=operator.neg)]

    def __iter__(self):
        return iter(self._full)

    def __eq__(self, other):
        if isinstance(other, _SupportOrder):
            other = other._full
        return self._full == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._full)

    def __repr__(self) -> str:
        return repr(self._full)


class ItemsetCodec(
    NamedTuple(
        "ItemsetCodec",
        [
            ("vocabulary", tuple[str, ...]),
            ("vocab_size", int),
            ("r", int),
            ("occurring", Sequence[tuple[str, ...]]),
        ],
    )
):
    """Bijective, stable mapping between universe ids and size-r itemsets.

    Ids 1..L are the occurring itemsets in universe (canonical sparse) order.
    Ids above L enumerate the non-occurring itemsets in lexicographic order
    over the full C(vocab_size, r) family; tokens beyond the materialized
    vocabulary (from inflation) decode to synthetic "_unused<i>" names.

    ``occurring`` is a tuple, or the lazily ordered sequence that
    :func:`itemset_quality` builds: it compares and hashes as the tuple of
    the same itemsets, and decoding an id in 1..L sorts only that id's
    support tie group. The lexicographic ranks of the occurring itemsets are
    computed on the first decode of a fill id (above L) or the first encode,
    and their id map on the first encode of an occurring itemset, not when
    the codec is built; both read the whole order.

    The class sets no ``__slots__``: the two cached properties live in the
    instance dict, outside the tuple, so equality and hashing ignore them.
    """

    @cached_property
    def occurring_ranks(self) -> tuple[int, ...]:
        """Sorted lexicographic ranks of ``occurring`` over C(vocab_size, r)."""
        index = {tok: i for i, tok in enumerate(self.vocabulary)}
        v = self.vocab_size
        return tuple(sorted(_comb_rank(tuple(map(index.__getitem__, c)), v) for c in self.occurring))

    @cached_property
    def occurring_ids(self) -> dict[tuple[str, ...], int]:
        """Universe id of each itemset in ``occurring``."""
        return {c: i for i, c in enumerate(self.occurring, start=1)}

    @property
    def universe_size(self) -> int:
        return math.comb(self.vocab_size, self.r)

    def _token(self, idx: int) -> str:
        return self.vocabulary[idx] if idx < len(self.vocabulary) else f"_unused{idx}"

    def decode(self, item_id: int) -> tuple[str, ...]:
        if not 1 <= item_id <= self.universe_size:
            raise ValueError(f"item id {item_id} outside [1, {self.universe_size}]")
        if item_id <= len(self.occurring):
            return self.occurring[item_id - 1]
        # j-th non-occurring itemset in lex order; skip past occupied ranks
        j = item_id - len(self.occurring)
        rank = j - 1
        while True:
            shifted = j - 1 + bisect_right(self.occurring_ranks, rank)
            if shifted == rank:
                break
            rank = shifted
        return tuple(self._token(i) for i in _comb_unrank(rank, self.vocab_size, self.r))

    def _token_index(self, token: str) -> int:
        vocab = self.vocabulary
        i = bisect_left(vocab, token)  # the vocabulary is sorted
        if i < len(vocab) and vocab[i] == token:
            return i
        if token.startswith("_unused"):
            # only decode's own spelling names an index: int() also reads
            # "05", "+5", "0_5", " 5" and non-ASCII digits
            tail = token[len("_unused"):]
            idx = int(tail) if tail.isascii() and tail.isdigit() else -1
            if len(vocab) <= idx < self.vocab_size and tail == str(idx):
                return idx
        raise ValueError(f"unknown token {token!r}")

    def encode(self, itemset: Sequence[str]) -> int:
        tokens = tuple(sorted(set(itemset)))
        if len(tokens) != self.r:
            raise ValueError(f"itemset must have exactly {self.r} distinct tokens")
        indices = tuple(sorted(self._token_index(t) for t in tokens))
        rank = _comb_rank(indices, self.vocab_size)
        pos = bisect_right(self.occurring_ranks, rank)
        if pos and self.occurring_ranks[pos - 1] == rank:
            return self.occurring_ids[tokens]
        return len(self.occurring) + (rank - pos) + 1


class ItemsetQuality(NamedTuple):
    universe: QualityUniverse
    codec: ItemsetCodec


def itemset_quality(d: BasketDataset, r: int, vocab_size: int | None = None) -> ItemsetQuality:
    """Sparse quality universe over all size-r itemsets: support fraction as quality.

    K = C(V, r) where V is the (optionally inflated) vocabulary size; only the
    L occurring itemsets are materialized, so L <= n * C(B, r) regardless of
    V. Canonical sparse order is support descending with ties by lexicographic
    itemset rank, recorded in the returned codec.

    Itemsets are counted as the r-combinations of each basket, tuples of
    tokens; baskets are already in vocabulary order, which is index order, so
    these tuples compare exactly as the index combinations do and their
    lexicographic order is the rank order the codec enumerates. The universe
    needs only the support counts in descending order, one sort of ints; the
    codec orders the itemsets themselves lazily, as far as a decode reads.

    r > B is not an error: it returns the all-fill universe with L = 0.
    :func:`load_itemset_quality` counts a basket file on every usable core
    and ends in the same step, :func:`_itemset_universe`.
    """
    return _itemset_universe(_count_itemsets(d.baskets, r), d.vocabulary, d.n, r, vocab_size)


# the basket file is counted in one part per usable core, but only while each
# part holds at least this many characters (its bytes, in an ASCII file): a
# fork and the merge of its counts cost a few milliseconds, counting 64 KiB of
# baskets about ten
_MIN_PART_BYTES = 1 << 16


def load_itemset_quality(path, r: int, vocab_size: int | None = None) -> ItemsetQuality:
    """``itemset_quality(load_baskets(path), r, vocab_size)``, counted on
    every usable core.

    The file is read and decoded once (:func:`_read_text`) and cut right
    after a newline into ``_fan_out_width(characters, _MIN_PART_BYTES)``
    parts. Each part goes through :func:`_read_baskets` and the itemset
    count in its own process (see :func:`audit._fan_out`); if a fork or a
    worker fails, this process counts the same parts the same way. The
    counts are added in part order, the vocabularies united and the basket
    counts summed, and :func:`itemset_quality`'s last step builds the
    universe and codec; it orders them by sorting, so the result equals the
    serial one for any number of parts. Both paths run the same decode, the
    same empty-file check and the same universe checks, so they raise the
    same errors, message and all.
    """
    parts = _basket_parts(_read_text(path))
    count = partial(_count_part, r)
    try:
        results = _fan_out(count, parts)
    except Exception:
        results = list(map(count, parts))
    (counts, vocabulary, n), *rest = results
    if rest:
        for part_counts, _, part_n in rest:
            # one C-level pass: each key of the part, its count added to this one's
            counts.update(zip(part_counts, map(operator.add, map(counts.get, part_counts, repeat(0)),
                                               part_counts.values())))
            n += part_n
        vocabulary = tuple(sorted(set(chain.from_iterable(v for _, v, _ in results))))
    if not n:
        raise ValueError(f"no baskets found in {path}")
    return _itemset_universe(counts, vocabulary, n, r, vocab_size)


def _basket_parts(text: str) -> list[str]:
    """A basket file's text, cut right after a newline into one part per
    fan-out worker; a cut that would leave a part empty is dropped."""
    size = len(text)
    workers = _fan_out_width(size, _MIN_PART_BYTES)
    cuts = [0]
    for w in range(1, workers):
        cut = text.find("\n", max(cuts[-1], size * w // workers)) + 1  # 0: no newline left
        if cuts[-1] < cut < size:
            cuts.append(cut)
    cuts.append(size)
    return [text[a:b] for a, b in zip(cuts, cuts[1:])]


def _count_part(r: int, text: str) -> tuple[dict, tuple[str, ...], int]:
    """The itemset counts, vocabulary and basket count of one part of a
    basket file; a part without baskets counts nothing."""
    d = _read_baskets(text)
    if d is None:
        return {}, (), 0
    return _count_itemsets(d.baskets, r), d.vocabulary, d.n


def _count_itemsets(baskets: Iterable[tuple[str, ...]], r: int) -> dict[tuple[str, ...], int]:
    """Support count of each size-r itemset of the baskets, counted in C
    into a plain dict in first-seen order: unlike a Counter, ``marshal``
    sends it from a forked child. r < 1 counts nothing, and the universe
    step rejects it."""
    counts = {}
    if r >= 1:
        _count_elements(counts, chain.from_iterable(map(combinations, baskets, repeat(r))))
    return counts


def _itemset_universe(counts: dict[tuple[str, ...], int], vocabulary: tuple[str, ...], n: int, r: int,
                      vocab_size: int | None) -> ItemsetQuality:
    """The universe and codec of the support counts of n baskets over a
    vocabulary: the checks of r and ``vocab_size``, the support sort and the
    lazy order. Both :func:`itemset_quality` and :func:`load_itemset_quality`
    end here."""
    if r < 1:
        raise ValueError(f"itemset size must be >= 1, got {r}")
    v = len(vocabulary) if vocab_size is None else vocab_size
    if v < len(vocabulary):
        raise ValueError(f"vocab_size {v} smaller than the {len(vocabulary)} observed tokens")
    k = math.comb(v, r)
    if k < 1:
        raise ValueError(f"no size-{r} itemsets over a {v}-token vocabulary")
    supports = sorted(counts.values(), reverse=True)
    universe = QualityUniverse.sparse([c / n for c in supports], k=k, n=n)
    occurring = _SupportOrder(counts, supports)
    codec = ItemsetCodec(vocabulary=vocabulary, vocab_size=v, r=r, occurring=occurring)
    return ItemsetQuality(universe=universe, codec=codec)


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


def shell_decomposition(
    errors: Sequence[float], d: int, n: int, delta0: float, C0: float = 1.0
) -> ShellDecomposition:
    """Error-radius shells around the best hypothesis.

    width = C0 * sqrt(d * ln(n/delta0) / n) is the uniform-convergence radius;
    R = ceil(sqrt(n / (d * ln n))) shells (constant 1) cover the range the
    selection analysis needs.
    """
    if not errors:
        raise ValueError("need at least one error value")
    if not all(map(math.isfinite, errors)):
        raise ValueError("error values must all be finite")
    if d < 1 or n <= 1:
        raise ValueError(f"need d >= 1 and n > 1, got d={d}, n={n}")
    if not 0.0 < delta0 < 1.0:
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
    if not C0 > 0.0:
        raise ValueError(f"C0 must be positive, got {C0}")
    width = C0 * math.sqrt(d * math.log(n / delta0) / n)
    R = math.ceil(math.sqrt(n / (d * math.log(n))))
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
