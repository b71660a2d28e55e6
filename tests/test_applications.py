"""Itemset and hypothesis-selection drivers."""

import errno
import math
import os
import random
import re
import warnings
from collections import Counter
from itertools import chain, combinations

import pytest

from privmax import (
    BasketDataset,
    HypothesisClass,
    NeighborPair,
    NoiseSource,
    PrivacyBudget,
    QualityUniverse,
    basket_neighbor,
    basket_neighbor_pair,
    build_mechanism,
    empirical_quality,
    itemset_quality,
    itemset_quality_dense,
    lmm_required_margin,
    load_baskets,
    load_itemset_quality,
    order_stat,
    pac_selection_constant,
    shell_decomposition,
    t_star,
)
from privmax import applications, audit, cli
from privmax.applications import (
    ItemsetCodec,
    ShellDecomposition,
    _comb_rank,
    _comb_unrank,
    _SupportOrder,
)
from oracles import itemset_quality_reference, shell_decomposition_sorted, shell_sizes_bruteforce


class TestLoadBaskets:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("a b\nb c\n")
        d = load_baskets(path)
        assert d.n == 2
        assert d.vocabulary == ("a", "b", "c")
        assert d.max_basket_len == 2

    def test_duplicate_tokens_stored_once(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("a a b\n")
        d = load_baskets(path)
        assert d.baskets[0] == ("a", "b")
        assert d.max_basket_len == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("a b\n\n\nc\n")
        assert load_baskets(path).n == 2

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_baskets(path)

    def test_stable_vocabulary_order(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("zebra apple\nmango apple\n")
        d = load_baskets(path)
        assert d.vocabulary == ("apple", "mango", "zebra")

    def test_tokens_are_the_vocabulary_objects(self, tmp_path):
        # multi-character tokens: split() makes a fresh object for each
        path = tmp_path / "baskets.txt"
        path.write_text("zebra apple\nmango apple zebra\napple\n")
        d = load_baskets(path)
        entry = {tok: tok for tok in d.vocabulary}
        assert all(tok is entry[tok] for b in d.baskets for tok in b)

    def test_from_lists_shares_run_time_tokens(self):
        # tokens built at run time, so interned literals cannot share them
        baskets = [["".join(("tok", str(i % 5))) for i in range(j, j + 3)] for j in range(6)]
        d = BasketDataset.from_lists(baskets)
        entry = {tok: tok for tok in d.vocabulary}
        assert all(tok is entry[tok] for b in d.baskets for tok in b)

    def test_from_lists_reads_one_shot_iterators(self):
        baskets = [["a", "b", "c", "d"], ["b", "e"], ["c", "d", "e", "f", "g"]]
        from_iterators = BasketDataset.from_lists(iter(b) for b in baskets)
        assert from_iterators == BasketDataset.from_lists(baskets)
        assert from_iterators.baskets[0] == ("a", "b", "c", "d")

    @pytest.mark.parametrize("content", ["", "\n \t\n\r\n   "], ids=["empty", "blank"])
    def test_no_tokens_error_names_path(self, tmp_path, content):
        path = tmp_path / "baskets.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"no baskets found in {re.escape(str(path))}"):
            load_baskets(path)

    def test_crlf_and_unterminated_last_line(self, tmp_path):
        plain, crlf = tmp_path / "plain.txt", tmp_path / "crlf.txt"
        plain.write_bytes(b"apple pear\nfig apple\nplum\n")
        crlf.write_bytes(b"apple pear\r\nfig apple\r\nplum")
        assert load_baskets(crlf) == load_baskets(plain)
        assert load_baskets(crlf).vocabulary == ("apple", "fig", "pear", "plum")


def _split_on(monkeypatch, cores, part_bytes=1):
    """Count basket files on ``cores`` workers, cutting parts from ``part_bytes``
    characters up; returns the list that records the part count of each
    fan-out."""
    monkeypatch.setattr(audit, "_usable_cores", lambda: cores)
    monkeypatch.setattr(applications, "_MIN_PART_BYTES", part_bytes)
    return _record_fan_outs(monkeypatch, applications)


def _record_fan_outs(monkeypatch, module):
    """Record the part count of each fan-out that ``module`` runs through its
    ``_fan_out`` name; returns the list of counts."""
    fan_outs = []
    real = module._fan_out

    def recorded(work, parts):
        fan_outs.append(len(parts))
        return real(work, parts)

    monkeypatch.setattr(module, "_fan_out", recorded)
    return fan_outs


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_quality(got, want):
    """Equal universes and codecs, read through the codec before its order is built."""
    k, L = want.universe.k, len(want.codec.occurring)
    for item_id in sorted(i for i in {1, L, L + 1, k} if 1 <= i <= k):
        assert got.codec.decode(item_id) == want.codec.decode(item_id)
    itemsets = list(want.codec.occurring)[:3] + [want.codec.decode(k)]
    assert [got.codec.encode(c) for c in itemsets] == [want.codec.encode(c) for c in itemsets]
    gu, wu = got.universe, want.universe
    assert (gu.explicit, gu.k, gu.n, gu.fill) == (wu.explicit, wu.k, wu.n, wu.fill)
    assert got.codec == want.codec


def _basket_lines(seed, lines=60, tokens=12):
    rng = random.Random(seed)
    return [" ".join(rng.choices([f"t{i}" for i in range(tokens)], k=rng.randint(1, 5)))
            for _ in range(lines)]


_FILE_SHAPES = {
    "lf": "\n".join(_basket_lines(1)).encode() + b"\n",
    "crlf": "\r\n".join(_basket_lines(2)).encode() + b"\r\n",
    "lone-cr": "\r".join(_basket_lines(3)).encode() + b"\r",
    "mixed-endings": b"a b\r\nb c\rc d\n\r\n" * 20 + b"a d\r",
    # part 1 and part 2 of three hold only blank lines, or part 0
    "blank-tail": "\n".join(_basket_lines(4, lines=5)).encode() + b"\n" + b" \t\n\n\r\n" * 80,
    "blank-head": b" \t\n\n\r\n" * 80 + "\n".join(_basket_lines(4, lines=5)).encode(),
    "blank-lines": b"\n\n" + b"\n  \n".join(x.encode() for x in _basket_lines(5)) + b"\n\n",
    "no-trailing-newline": "\n".join(_basket_lines(6)).encode(),
    "single-line": b"a b c d",
    # no newline after a third of the file: fewer cuts than workers
    "long-last-line": b"a b\n" * 30 + b"e f " * 50,
    "multibyte": "\n".join(f"\u00e9{i % 7} \u20ac{i % 5} \U0001d11e{i % 3}" for i in range(40)).encode(),
    # form feed, file separator and line separator split tokens, not lines
    "inline-separators": b"a\x0cb c\n" * 10 + "b\u2028c\x1cd\n".encode() * 10,
    "repeated-tokens": b"a a b b\nb b c c c\na\n" * 15,
}


class TestLoadItemsetQuality:
    """load_itemset_quality counts the basket file in parts, one per worker, and
    must equal itemset_quality(load_baskets(path), ...) for any number of them."""

    @pytest.mark.parametrize("shape", sorted(_FILE_SHAPES))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_serial_path(self, tmp_path, monkeypatch, shape, workers):
        path = tmp_path / "baskets.txt"
        path.write_bytes(_FILE_SHAPES[shape])
        want = itemset_quality(load_baskets(path), 2)
        fan_outs = _split_on(monkeypatch, workers)
        _assert_same_quality(load_itemset_quality(path, 2), want)
        assert fan_outs and fan_outs[0] <= workers
        _assert_no_child_left()

    @pytest.mark.parametrize("r, vocab_size", [(1, None), (2, None), (3, None), (2, 1000), (3, 10**6),
                                               (6, None), (6, 50)])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_serial_path_for_r_and_vocab_size(self, tmp_path, monkeypatch, r, vocab_size, workers):
        # the longest basket holds 5 tokens, so r = 6 gives the all-fill universe
        path = tmp_path / "baskets.txt"
        path.write_text("\n".join(_basket_lines(7, lines=200, tokens=30)) + "\n")
        want = itemset_quality(load_baskets(path), r, vocab_size)
        fan_outs = _split_on(monkeypatch, workers)
        _assert_same_quality(load_itemset_quality(path, r, vocab_size), want)
        assert fan_outs == [workers]
        _assert_no_child_left()

    def test_parts_hold_different_tokens(self, tmp_path, monkeypatch):
        # each third of the file has tokens of its own, so the vocabularies must be united
        lines = [f"x{i} y{i} shared" for i in range(30)] + [f"a{i} b{i} shared" for i in range(30)]
        lines += [f"x{i} b{i}" for i in range(30)]
        path = tmp_path / "baskets.txt"
        path.write_text("\n".join(lines) + "\n")
        want = itemset_quality(load_baskets(path), 2, 500)
        fan_outs = _split_on(monkeypatch, 3)
        got = load_itemset_quality(path, 2, 500)
        assert fan_outs == [3]
        _assert_same_quality(got, want)

    @pytest.mark.parametrize("content, r, vocab_size", [
        (b"", 2, None),
        (b"\n \t\n\r\n   \n\n", 2, None),
        (b"a b\nc d\n\xff\xfe e\nf g\n", 2, None),
        (b"a b\nc d\nb \xe2\x82\n", 2, None),
        (b"a b\nc d\ne f\n", 2, 5),
        (b"a b\nc d\ne f\n", 0, None),
        (b"a b\nc d\ne f\n", -1, None),
        (b"a\nb\n", 3, 2),
    ], ids=["empty", "blank", "invalid-utf8", "truncated-utf8", "small-vocab-size", "r-zero",
            "r-negative", "no-itemsets"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_errors_are_the_serial_paths(self, tmp_path, monkeypatch, content, r, vocab_size, workers):
        path = tmp_path / "baskets.txt"
        path.write_bytes(content)
        with pytest.raises(Exception) as serial:
            itemset_quality(load_baskets(path), r, vocab_size)
        _split_on(monkeypatch, workers)
        with pytest.raises(type(serial.value)) as split:
            load_itemset_quality(path, r, vocab_size)
        assert str(split.value) == str(serial.value)
        _assert_no_child_left()

    def test_missing_file_is_the_serial_error(self, tmp_path, monkeypatch):
        path = tmp_path / "absent.txt"
        _split_on(monkeypatch, 2)
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            load_itemset_quality(path, 2)

    def test_invalid_byte_is_named_by_its_file_offset(self, tmp_path, monkeypatch, capsys):
        # the byte sits past the first 8 KiB, where a streamed decode would
        # name its position within the decode chunk instead
        path = tmp_path / "baskets.txt"
        path.write_bytes(b"a b\n" * 5000 + b"c \xff d\n" + b"e f\n" * 10)
        with pytest.raises(UnicodeDecodeError, match="position 20002:"):
            load_baskets(path)
        for workers in (1, 3):
            _split_on(monkeypatch, workers)
            with pytest.raises(UnicodeDecodeError, match="position 20002:"):
                load_itemset_quality(path, 2)
        capsys.readouterr()
        assert cli.main(["fim", "--baskets", str(path), "--r", "2", "--seed", "1"]) == cli.EXIT_ERROR
        assert "position 20002:" in capsys.readouterr().err
        _assert_no_child_left()

    @pytest.mark.parametrize("failure", ["worker-raises", "fork-raises"])
    def test_failed_fan_out_counts_the_parts_here(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "baskets.txt"
        path.write_text("\n".join(_basket_lines(8, lines=100)) + "\n")
        want = itemset_quality(load_baskets(path), 2)
        fan_outs = _split_on(monkeypatch, 3)
        if failure == "worker-raises":
            parent, real_count = os.getpid(), applications._count_part

            def count_part(r, text):
                if os.getpid() != parent:
                    raise ArithmeticError("only in a worker")
                return real_count(r, text)

            monkeypatch.setattr(applications, "_count_part", count_part)
        else:
            # the first fork succeeds, so the failed fan-out has a child to kill and reap
            forks, real_fork = [], os.fork

            def fork():
                forks.append(1)
                if len(forks) > 1:
                    raise OSError(errno.EAGAIN, "no process left")
                return real_fork()

            monkeypatch.setattr(os, "fork", fork)
        reads, real_read = [], applications._read_text
        monkeypatch.setattr(applications, "_read_text", lambda p: reads.append(p) or real_read(p))
        _assert_same_quality(load_itemset_quality(path, 2), want)
        assert fan_outs == [3] and reads == [path]
        _assert_no_child_left()

    def test_forked_path_raises_no_warning(self, tmp_path, monkeypatch):
        path = tmp_path / "baskets.txt"
        path.write_text("\n".join(_basket_lines(9, lines=100)) + "\n")
        fan_outs = _split_on(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_itemset_quality(path, 2)
        assert fan_outs == [2]
        _assert_no_child_left()

    def test_small_file_never_forks(self, tmp_path, monkeypatch):
        # the default part size: a file under two parts' worth is counted here
        path = tmp_path / "baskets.txt"
        path.write_text("\n".join(_basket_lines(10, lines=400)) + "\n")
        assert path.stat().st_size < 2 * applications._MIN_PART_BYTES
        monkeypatch.setattr(audit, "_usable_cores", lambda: 2)
        forks = []

        def no_fork():
            forks.append(1)
            raise AssertionError("forked for a small file")

        monkeypatch.setattr(os, "fork", no_fork)
        want = itemset_quality(load_baskets(path), 2)
        _assert_same_quality(load_itemset_quality(path, 2), want)
        assert not forks

    def test_no_fork_counts_in_process(self, tmp_path, monkeypatch):
        path = tmp_path / "baskets.txt"
        path.write_text("\n".join(_basket_lines(11, lines=100)) + "\n")
        want = itemset_quality(load_baskets(path), 2)
        fan_outs = _split_on(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        _assert_same_quality(load_itemset_quality(path, 2), want)
        assert fan_outs == [1]


class TestCombinatorics:
    def test_rank_unrank_roundtrip_small(self):
        for v, r in [(5, 1), (6, 2), (7, 3), (8, 4)]:
            for i, combo in enumerate(combinations(range(v), r)):
                assert _comb_rank(combo, v) == i
                assert _comb_unrank(i, v, r) == combo

    def test_huge_vocabulary(self):
        v = 10**13
        combo = (3, 10**12, v - 1)
        assert _comb_unrank(_comb_rank(combo, v), v, 3) == combo

    def test_unrank_range_check(self):
        with pytest.raises(ValueError):
            _comb_unrank(math.comb(5, 2), 5, 2)


class TestItemsetQuality:
    def test_single_repeated_pair(self):
        d = BasketDataset.from_lists([["a", "b"], ["a", "b"]])
        universe, codec = itemset_quality(d, 2)
        assert universe.k == 1 and universe.explicit_count == 1
        assert universe.value(1) == 1.0
        assert codec.decode(1) == ("a", "b")

    def test_singleton_supports(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"]])
        universe, codec = itemset_quality(d, 1)
        assert universe.k == 3
        # canonical order: support descending, lexicographic rank on ties
        assert universe.explicit == (1.0, 0.5, 0.5)
        assert codec.occurring == (("b",), ("a",), ("c",))

    def test_support_counts_each_basket_once(self):
        d = BasketDataset.from_lists([["a", "b", "c"], ["x", "y"]])
        universe, codec = itemset_quality(d, 2)
        assert all(v == 0.5 for v in universe.explicit)
        assert universe.explicit_count == 4  # ab ac bc xy

    def test_explicit_count_bound(self):
        rng = random.Random(9)
        tokens = [f"t{i}" for i in range(12)]
        baskets = [rng.sample(tokens, rng.randint(1, 4)) for _ in range(30)]
        d = BasketDataset.from_lists(baskets)
        for r in (1, 2, 3):
            universe, _ = itemset_quality(d, r)
            assert universe.explicit_count <= d.n * math.comb(4, r)

    def test_oversized_r_returns_all_fill(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"]])
        universe, codec = itemset_quality(d, 3)
        assert universe.explicit_count == 0
        assert universe.k == math.comb(3, 3)
        assert order_stat(universe, 1) == 0.0

    def test_inflated_vocabulary(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"]])
        universe, codec = itemset_quality(d, 2, vocab_size=100)
        assert universe.k == math.comb(100, 2)
        assert universe.explicit_count == 2
        assert codec.decode(1) in {("a", "b"), ("b", "c")}
        decoded = codec.decode(universe.k)
        assert codec.encode(decoded) == universe.k

    def test_codec_bijection(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"], ["a", "b"]])
        universe, codec = itemset_quality(d, 2, vocab_size=6)
        seen = set()
        for i in range(1, universe.k + 1):
            itemset = codec.decode(i)
            assert codec.encode(itemset) == i
            seen.add(itemset)
        assert len(seen) == universe.k

    def test_encode_rejects_unknown_tokens(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"]])
        _, codec = itemset_quality(d, 2, vocab_size=6)
        # inflated tokens are valid exactly at indices len(vocabulary)..vocab_size-1
        for token in ("_unused3", "_unused5"):
            assert codec.decode(codec.encode(("a", token))) == ("a", token)
        # only decode's own spelling names an index, not every tail int() reads
        for token in ("0", "bb", "d", "_unused2", "_unused6",
                      "_unused03", "_unused+3", "_unused0_3", "_unusedx"):
            with pytest.raises(ValueError, match="unknown token"):
                codec.encode(("a", token))

    def test_vocab_size_cannot_shrink(self):
        d = BasketDataset.from_lists([["a", "b", "c"]])
        with pytest.raises(ValueError):
            itemset_quality(d, 2, vocab_size=2)

    def test_dense_matches_sparse_multiset(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"], ["a", "c"], ["a", "b"]])
        sparse, _ = itemset_quality(d, 2)
        dense = itemset_quality_dense(d, 2)
        assert dense.k == sparse.k
        assert sorted(dense.explicit, reverse=True) == sorted(
            [order_stat(sparse, r) for r in range(1, sparse.k + 1)], reverse=True
        )


class TestItemsetQualityMatchesEagerReference:
    @staticmethod
    def _random_dataset(rng, ties):
        # "t10" sorts before "t2": string order is not the numeric order
        tokens = [f"t{i}" for i in range(rng.randint(1, 14))]
        bound = rng.randint(1, min(5, len(tokens)))

        def draw():
            return rng.sample(tokens, rng.randint(1, bound))

        if ties:
            # a few distinct baskets, repeated: heavy support ties
            pool = [draw() for _ in range(rng.randint(1, 4))]
            baskets = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        else:
            baskets = [draw() for _ in range(rng.randint(1, 40))]
        return BasketDataset.from_lists(baskets)

    def test_random_datasets(self):
        rng = random.Random(31)
        all_fill = round_trips = 0
        for trial in range(80):
            d = self._random_dataset(rng, ties=trial % 2 == 0)
            for r in (1, 2, 3):
                v = rng.choice([None, len(d.vocabulary) + rng.randint(0, 30), 10**6])
                if math.comb(len(d.vocabulary) if v is None else v, r) < 1:
                    with pytest.raises(ValueError):
                        itemset_quality(d, r, vocab_size=v)
                    continue
                universe, codec = itemset_quality(d, r, vocab_size=v)
                ref = itemset_quality_reference(d, r, vocab_size=v)
                assert universe.explicit == ref["nonzeros"]
                assert (universe.k, universe.n) == (ref["k"], ref["n"])
                assert codec.occurring == ref["occurring"]
                assert codec.occurring_ranks == ref["occurring_ranks"]
                all_fill += universe.explicit_count == 0  # r above the basket bound
                if universe.k <= 2000:
                    round_trips += 1
                    decoded = [codec.decode(i) for i in range(1, universe.k + 1)]
                    assert len(set(decoded)) == universe.k
                    assert [codec.encode(s) for s in decoded] == list(range(1, universe.k + 1))
        assert all_fill > 0 and round_trips > 0

    def test_lazy_order_matches_eager_order(self):
        rng = random.Random(47)
        lazy_reads = 0
        for trial in range(60):
            d = self._random_dataset(rng, ties=trial % 3 != 0)
            for r in (1, 2, 3):
                v = len(d.vocabulary) + rng.randint(0, 5)
                if math.comb(v, r) < 1:
                    continue
                counts = Counter(chain.from_iterable(combinations(b, r) for b in d.baskets))
                eager = tuple(sorted(sorted(counts), key=counts.__getitem__, reverse=True))
                eager_codec = ItemsetCodec(d.vocabulary, v, r, eager)
                size = len(eager)
                _, codec = itemset_quality(d, r, vocab_size=v)
                occ = codec.occurring
                assert len(occ) == size
                assert [codec.decode(i) for i in range(1, size + 1)] == list(eager)
                assert [occ[i] for i in range(-size, size)] == list(eager + eager)
                for i in (size, -size - 1):
                    with pytest.raises(IndexError):
                        occ[i]
                # the order is built in full only past _GROUP_SCANS tie groups
                many_groups = len(set(counts.values())) > _SupportOrder._GROUP_SCANS
                assert ("_full" in vars(occ)) == many_groups
                lazy_reads += not many_groups and size > 1
                for part in (slice(None), slice(1, -1), slice(None, None, -2), slice(size, None)):
                    assert occ[part] == eager[part]
                assert [codec.decode(i) for i in range(1, size + 1)] == list(eager)
                _, fresh = itemset_quality(d, r, vocab_size=v)
                assert fresh == eager_codec and eager_codec == fresh
                assert hash(fresh) == hash(eager_codec)
                assert fresh.occurring == eager and eager == fresh.occurring
                assert fresh.occurring != list(eager) and codec == fresh
        assert lazy_reads > 0

    def test_many_tie_groups_build_the_full_order(self):
        # token t<i> sits in baskets 1..i, so each token is its own tie group
        d = BasketDataset.from_lists([[f"t{i:02d}" for i in range(j, 31)] for j in range(1, 31)])
        _, codec = itemset_quality(d, 1)
        scans = _SupportOrder._GROUP_SCANS
        assert [codec.decode(i) for i in range(1, scans + 1)] == [(f"t{30 - i:02d}",) for i in range(scans)]
        assert "_full" not in vars(codec.occurring)
        assert codec.decode(scans + 1) == (f"t{30 - scans:02d}",)
        assert codec.occurring._full == tuple((f"t{i:02d}",) for i in range(30, 0, -1))

    def test_first_decode_sorts_one_tie_group(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"], ["a", "b"], ["c", "d"]])
        _, codec = itemset_quality(d, 2)
        assert codec.decode(2) == ("b", "c")
        assert "_full" not in vars(codec.occurring)
        assert codec.occurring._groups == {1: [("b", "c"), ("c", "d")]}

    def test_ranks_computed_on_first_fill_decode(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"], ["a", "b"]])
        universe, codec = itemset_quality(d, 2, vocab_size=50)
        assert codec.decode(1) == ("a", "b")
        assert "occurring_ranks" not in vars(codec)
        codec.decode(universe.k)
        assert "occurring_ranks" in vars(codec)
        _, fresh = itemset_quality(d, 2, vocab_size=50)
        assert fresh.encode(("b", "c")) == 2
        assert "occurring_ranks" in vars(fresh)


class TestBasketDatasetValidation:
    def test_unsorted_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            BasketDataset(baskets=(("a", "b"),), vocabulary=("c", "b", "a"), max_basket_len=2)

    def test_duplicated_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            BasketDataset(baskets=(("a", "b"),), vocabulary=("a", "b", "b"), max_basket_len=2)

    def test_over_bound_error_names_first_offending_basket(self):
        baskets = (("a",), ("a", "b", "c"), ("a", "b", "c", "d"))
        with pytest.raises(ValueError, match=r"^basket of size 3 exceeds declared bound 2$"):
            BasketDataset(baskets=baskets, vocabulary=("a", "b", "c", "d"), max_basket_len=2)

    def test_missing_token_error_names_first_offending_basket(self):
        baskets = (("a",), ("a", "x"), ("y", "z"))
        with pytest.raises(ValueError, match=r"^basket tokens \['x'\] missing from vocabulary$"):
            BasketDataset(baskets=baskets, vocabulary=("a", "b"), max_basket_len=2)

    def test_first_offending_basket_decides_which_check_fails(self):
        missing, oversized, unsorted = ("a", "x"), ("a", "b", "c"), ("b", "a")
        vocab = ("a", "b", "c")
        with pytest.raises(ValueError, match="missing"):
            BasketDataset(baskets=(missing, oversized), vocabulary=vocab, max_basket_len=2)
        with pytest.raises(ValueError, match="exceeds"):
            BasketDataset(baskets=(oversized, missing), vocabulary=vocab, max_basket_len=2)
        with pytest.raises(ValueError, match="sorted"):
            BasketDataset(baskets=(unsorted, oversized), vocabulary=vocab, max_basket_len=2)
        with pytest.raises(ValueError, match="exceeds"):
            BasketDataset(baskets=(oversized, unsorted), vocabulary=vocab, max_basket_len=2)

    def test_non_set_basket_rejected(self):
        # a repeated token in a list basket would count one user twice; a
        # basket is a tuple, so a list or a set is rejected by its type
        with pytest.raises(TypeError):
            BasketDataset(baskets=(["a", "a"],), vocabulary=("a",), max_basket_len=2)
        with pytest.raises(TypeError):
            BasketDataset(baskets=(("a",), frozenset("ab")), vocabulary=("a", "b"), max_basket_len=2)

    @pytest.mark.parametrize("basket", [("a", "a"), ("b", "a")], ids=["repeated", "unsorted"])
    def test_basket_not_strictly_ascending_rejected(self, basket):
        with pytest.raises(ValueError, match=r"^basket tokens must be sorted and free of duplicates$"):
            BasketDataset(baskets=(("a",), basket), vocabulary=("a", "b"), max_basket_len=2)

    def test_from_lists_holds_every_check(self):
        # from_lists skips __new__'s checks; rebuilding through them must agree
        rng = random.Random(5)
        tokens = [f"t{i}" for i in range(12)]
        for _ in range(40):
            baskets = [rng.choices(tokens, k=rng.randint(0, 6)) for _ in range(rng.randint(1, 20))]
            d = BasketDataset.from_lists(baskets)
            assert d == BasketDataset(*d)
            assert all(b == tuple(sorted(set(raw))) for b, raw in zip(d.baskets, baskets))


# each validated record type with one valid field tuple and a field change
# its checks reject
VALIDATED_RECORDS = [
    (BasketDataset, ((("a", "b"), ("b",)), ("a", "b"), 2), {"max_basket_len": 1}),
    (HypothesisClass, (((0, 1), (1, 1)), (0, 1), 1), {"d": 0}),
    (ShellDecomposition, ((1, 2, 2), 0.1, 0.0, 1.0, 2), {"shell_sizes": (2, 1, 2)}),
]
RECORDS = [(cls, fields) for cls, fields, _ in VALIDATED_RECORDS] + [
    (ItemsetCodec, (("a", "b", "c"), 3, 2, (("a", "b"),))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
class TestRecordTypes:
    def test_positional_and_keyword_forms(self, cls, fields):
        record = cls(*fields)
        assert record == cls(**dict(zip(cls._fields, fields)))
        assert tuple(record) == fields
        assert record == cls._make(fields)

    def test_frozen(self, cls, fields):
        record = cls(*fields)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[-1], fields[-1])

    def test_equal_fields_equal_hash(self, cls, fields):
        assert hash(cls(*fields)) == hash(cls(**dict(zip(cls._fields, fields))))


@pytest.mark.parametrize(
    "cls, fields, invalid", VALIDATED_RECORDS, ids=[cls.__name__ for cls, *_ in VALIDATED_RECORDS]
)
def test_record_make_and_replace_validate(cls, fields, invalid):
    record = cls(*fields)
    with pytest.raises(ValueError):
        record._replace(**invalid)
    changed = [invalid.get(name, value) for name, value in zip(cls._fields, fields)]
    with pytest.raises(ValueError):
        cls._make(changed)
    assert record._replace() == record


def test_codec_caches_ranks_outside_equality_and_hash():
    fields = (("a", "b", "c"), 3, 2, (("b", "c"), ("a", "b")))
    used, fresh = ItemsetCodec(*fields), ItemsetCodec(*fields)
    assert used.occurring_ranks is used.occurring_ranks
    assert used.occurring_ranks == (0, 2)
    assert used.encode(("a", "c")) == 3
    assert used.occurring_ids is used.occurring_ids
    assert "occurring_ranks" in vars(used) and not vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)


class TestBasketNeighbor:
    def test_identity_replacement(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"]])
        d2 = basket_neighbor(d, 0, ["a", "b"])
        assert d2.baskets == d.baskets

    def test_single_basket_gain(self):
        d = BasketDataset.from_lists([["a", "c"], ["c", "b"]])
        d2 = basket_neighbor(d, 0, ["a", "b"])
        u1 = itemset_quality_dense(d, 2)
        u2 = itemset_quality_dense(d2, 2)
        moved = [abs(u1.value(i) - u2.value(i)) for i in range(1, u1.k + 1)]
        assert max(moved) == pytest.approx(0.5)

    def test_pair_satisfies_lipschitz_witness(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"], ["a", "c"], ["b", "c"]])
        pair = basket_neighbor_pair(d, 2, ["a", "b"], 2)
        assert isinstance(pair, NeighborPair)
        assert "basket 2" in pair.provenance

    def test_oversized_replacement_rejected(self):
        d = BasketDataset.from_lists([["a", "b"], ["b", "c"]])
        with pytest.raises(ValueError):
            basket_neighbor(d, 0, ["a", "b", "c"])

    def test_unknown_token_rejected(self):
        d = BasketDataset.from_lists([["a", "b"]])
        with pytest.raises(ValueError):
            basket_neighbor(d, 0, ["a", "z"])

    def test_bad_index(self):
        d = BasketDataset.from_lists([["a", "b"]])
        with pytest.raises(ValueError):
            basket_neighbor(d, 1, ["a"])


def _release_share(baskets, budget, event, runs, vocab_size=None):
    """Share of ``runs`` bound LMM releases on the r=2 fim universe of
    ``baskets`` for which ``event(outcome, codec)`` holds."""
    universe, codec = itemset_quality(BasketDataset.from_lists(baskets), 2, vocab_size=vocab_size)
    run = build_mechanism("lmm", budget).bind(universe)
    src = NoiseSource(1)
    return sum(event(run(src), codec) for _ in range(runs)) / runs


class TestLiveLeaks:
    """Neighbor pairs on which the fim release breaks (alpha, delta)-DP: an
    event with probability P on D and P' on D' must satisfy
    P <= e^alpha P' + delta. Each fix turns its test into a plain one."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the fim universe names tokens read from the data")
    def test_data_vocabulary_names_a_single_users_token(self):
        # about 0.08 against 0 over 4,000 runs
        budget = PrivacyBudget(0.5, 0.05)
        rest = 29 * [["a", "b", "c"]]
        named = lambda out, codec: "zzz" in codec.decode(out.item)  # noqa: E731
        p = _release_share([["zzz", "a"]] + rest, budget, named, 4000)
        p_neighbor = _release_share([["a", "b"]] + rest, budget, named, 4000)
        assert p <= math.exp(budget.alpha) * p_neighbor + budget.delta

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the search's rank cap min(k, L+1) moves with the data")
    def test_rank_cap_at_the_data_reveals_its_size(self):
        # about 1.0 against 0 over 2,000 runs: L is 3 on D and 6 = k on D'
        budget = PrivacyBudget(1.0, 0.05)
        uncertified = lambda out, codec: not out.certified  # noqa: E731
        p = _release_share(10 * [["a", "b", "c"]], budget, uncertified, 2000, vocab_size=4)
        p_neighbor = _release_share(9 * [["a", "b", "c"]] + [["a", "b", "c", "d"]], budget,
                                    uncertified, 2000, vocab_size=4)
        assert p <= math.exp(budget.alpha) * p_neighbor + budget.delta


class TestEmpiricalQuality:
    def test_perfect_hypothesis(self):
        h = HypothesisClass(predictions=((1, 0, 1),), labels=(1, 0, 1), d=1)
        assert empirical_quality(h).value(1) == 1.0

    def test_constant_wrong(self):
        h = HypothesisClass(predictions=((0, 0, 0),), labels=(1, 1, 1), d=1)
        assert empirical_quality(h).value(1) == 0.0

    def test_three_of_ten_errors(self):
        preds = tuple([1] * 7 + [0] * 3)
        h = HypothesisClass(predictions=(preds,), labels=tuple([1] * 10), d=1)
        u = empirical_quality(h)
        assert u.value(1) == pytest.approx(0.7)
        assert u.n == 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            HypothesisClass(predictions=((1, 0),), labels=(1, 0, 1), d=1)


class TestShellDecomposition:
    def test_single_hypothesis(self):
        s = shell_decomposition([0.2], d=1, n=100, delta0=0.05)
        assert all(size == 1 for size in s.shell_sizes)

    def test_all_equal_errors(self):
        s = shell_decomposition([0.3] * 7, d=1, n=100, delta0=0.05)
        assert all(size == 7 for size in s.shell_sizes)

    def test_hand_placed_radii(self):
        s0 = shell_decomposition([0.0], d=1, n=100, delta0=0.05)
        w = s0.width
        errors = [0.1, 0.1 + 1.5 * w, 0.1 + 2.5 * w]
        s = shell_decomposition(errors, d=1, n=100, delta0=0.05)
        assert s.R >= 3
        assert s.shell_sizes[:4] == (1, 1, 2, 3)

    def test_nondecreasing_and_bounded(self):
        rng = random.Random(10)
        errors = [rng.uniform(0, 1) for _ in range(40)]
        s = shell_decomposition(errors, d=3, n=500, delta0=0.1, C0=0.5)
        assert all(a <= b for a, b in zip(s.shell_sizes, s.shell_sizes[1:]))
        assert s.shell_sizes[-1] <= 40

    def test_width_formula(self):
        s = shell_decomposition([0.1], d=4, n=200, delta0=0.02, C0=1.5)
        assert s.width == pytest.approx(1.5 * math.sqrt(4 * math.log(200 / 0.02) / 200))
        assert s.R == math.ceil(math.sqrt(200 / (4 * math.log(200))))

    def test_validation(self):
        with pytest.raises(ValueError):
            shell_decomposition([], d=1, n=100, delta0=0.05)
        with pytest.raises(ValueError):
            shell_decomposition([0.1, float("nan")], d=1, n=100, delta0=0.05)
        with pytest.raises(ValueError):
            shell_decomposition([0.1], d=0, n=100, delta0=0.05)
        with pytest.raises(ValueError):
            shell_decomposition([0.1], d=1, n=1, delta0=0.05)
        with pytest.raises(ValueError):
            shell_decomposition([0.1], d=1, n=100, delta0=0.0)
        with pytest.raises(ValueError):
            shell_decomposition([0.1], d=1, n=100, delta0=0.05, C0=0.0)

    @staticmethod
    def _check_against_bruteforce(errors, **params):
        s = shell_decomposition(errors, **params)
        assert s.min_err == min(errors)
        assert s.shell_sizes == shell_sizes_bruteforce(errors, s.min_err, s.width, s.R)
        return s

    def test_matches_bruteforce_with_ties(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(2, 2000)
            # errors on the 1/n lattice, as empirical errors are, so ties are common
            errors = [rng.randint(0, n) / n for _ in range(rng.randint(1, 60))]
            d = rng.randint(1, 5)
            self._check_against_bruteforce(errors, d=d, n=n, delta0=0.05, C0=rng.uniform(0.01, 2.0))

    def test_matches_bruteforce_on_shell_boundaries(self):
        params = dict(d=1, n=400, delta0=0.05, C0=0.1)
        probe = shell_decomposition([0.0], **params)
        rng = random.Random(13)
        for _ in range(50):
            min_err = rng.choice([0.0, -0.0, 0.1, 1 / 3, rng.uniform(0, 1)])
            # the same float expression the shells compare against
            errors = [min_err + t * probe.width for t in range(probe.R + 1)] * rng.randint(1, 3)
            errors += [min_err + rng.uniform(0, probe.R * probe.width) for _ in range(10)]
            rng.shuffle(errors)
            s = self._check_against_bruteforce(errors, **params)
            assert s.R == probe.R and s.width == probe.width

    def test_single_error_matches_bruteforce(self):
        for e in (0.0, -0.0, 0.25, 1.0):
            s = self._check_against_bruteforce([e], d=2, n=300, delta0=0.1)
            assert set(s.shell_sizes) == {1}

    def test_counts_equal_the_sort_and_bisect_reference(self):
        params = dict(d=1, n=400, delta0=0.05, C0=0.1)
        probe = shell_decomposition([0.0], **params)
        w, R = probe.width, probe.R
        rng = random.Random(14)
        spread = [0.05] + [0.05 + (t + 0.5) * w for t in range(R + 1)]
        cases = [
            [0.3],  # a single error
            [-0.0],
            [0.2] * 50,  # all equal
            [0.0, -0.0, 0.0, -0.0, w, -0.0 + w],  # -0.0/0.0, both minima
            [-0.0, 0.0, w, 2 * w],
            # ties on the 1/n lattice
            [rng.randint(0, 40) / 400 for _ in range(300)],
            # every bound lands exactly on an error value, twice
            [0.1 + t * w for t in range(R + 1)] * 2,
            # one error in each of the R+1 shells and one past the last bound
            spread,
        ]
        cases += [[0.1 + rng.uniform(0.0, (R + 1) * w) for _ in range(rng.randint(1, 200))] for _ in range(30)]
        for errors in cases:
            rng.shuffle(errors)
            s = shell_decomposition(errors, **params)
            sizes, min_err = shell_decomposition_sorted(errors, s.width, s.R)
            assert s.shell_sizes == sizes
            assert repr(s.min_err) == repr(min_err)
        assert shell_decomposition(spread, **params).shell_sizes == tuple(range(1, R + 2))

    def test_sizes_length_invariant(self):
        with pytest.raises(ValueError):
            ShellDecomposition(shell_sizes=(1, 2), width=0.1, min_err=0.0, C0=1.0, R=3)
        with pytest.raises(ValueError):
            ShellDecomposition(shell_sizes=(2, 1), width=0.1, min_err=0.0, C0=1.0, R=1)


class TestTStar:
    def _shells(self, sizes):
        return ShellDecomposition(
            shell_sizes=tuple(sizes), width=0.1, min_err=0.0, C0=1.0, R=len(sizes) - 1
        )

    def test_huge_rhs_selects_one(self):
        s = self._shells([1, 1, 1, 1, 1])
        assert t_star(s, alpha=100.0, delta=0.1, d=1, n=100, C=1.0) == (1, False)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(11)
        for _ in range(50):
            r_max = rng.randint(2, 8)
            sizes = sorted(rng.randint(1, 50) for _ in range(r_max + 1))
            s = self._shells(sizes)
            alpha, delta, d, n, c = 0.05, 0.1, 2, 400, rng.uniform(50.0, 5000.0)
            rhs = s.C0 * alpha * math.sqrt(d * n * math.log(n)) / c
            expected = None
            for t in range(1, s.R):
                if (math.log(sizes[t + 1]) + math.log(1 / delta)) / t <= rhs:
                    expected = (t, False)
                    break
            if expected is None:
                expected = (s.R, True)
            assert tuple(t_star(s, alpha, delta, d, n, C=c)) == expected

    def test_exhaustion_flagged(self):
        s = self._shells([5, 5, 5, 5])
        result = t_star(s, alpha=0.001, delta=0.01, d=1, n=100, C=10**9)
        assert result.t == s.R and result.exhausted

    def test_validation(self):
        s = self._shells([1, 1, 1])
        with pytest.raises(ValueError):
            t_star(s, 1.0, 0.1, 1, 100, C=0.0)
        with pytest.raises(ValueError):
            t_star(s, 1.0, 0.0, 1, 100, C=1.0)


def test_pac_selection_constant_matches_required_margin():
    n, alpha, delta, ell = 400, 0.5, 0.05, 6
    c = pac_selection_constant(n, alpha, delta, ell)
    gamma = lmm_required_margin(n, alpha, delta, delta, ell)
    assert c * math.log(ell / delta) / (n * alpha) == pytest.approx(gamma, rel=1e-12)


def test_itemset_values_unit_range_and_sensitivity():
    d = BasketDataset.from_lists([["a", "b"], ["b", "c"], ["a", "b"]])
    universe, _ = itemset_quality(d, 2)
    assert all(0.0 <= v <= 1.0 for v in universe.explicit)
    assert universe.sensitivity == 1.0 / d.n


def test_pac_selection_recovers_perfect_hypothesis():
    # one perfect hypothesis with a margin above gamma*(1): the adaptive
    # mechanism returns it with probability >= 1 - eta
    from privmax import NoiseSource, PrivacyBudget, large_margin_mechanism
    from oracles import hoeffding

    n, alpha, delta, eta = 400, 1.0, 0.05, 0.05
    labels = tuple([1] * n)
    perfect = tuple([1] * n)
    weak = tuple([1] * 160 + [0] * 240)  # error 0.6
    worse = tuple([0] * n)  # error 1.0
    h = HypothesisClass(predictions=(perfect, weak, worse), labels=labels, d=1)
    u = empirical_quality(h)
    gamma = lmm_required_margin(n, alpha, delta, eta, 1)
    from privmax import satisfies_margin

    assert satisfies_margin(u, 1, gamma)
    trials = 1000
    base = NoiseSource(77)
    wins = sum(
        large_margin_mechanism(u, PrivacyBudget(alpha, delta), base.spawn(t)).item == 1
        for t in range(trials)
    )
    assert wins / trials >= 1.0 - eta - hoeffding(trials)
