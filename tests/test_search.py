import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdhash import search
from hdhash.codes import HashCode, hamming_words, pack_bits
from hdhash.errors import (
    ConfigError,
    DataError,
    DomainError,
    FormatError,
    ShapeError,
    TruncationError,
)
from hdhash.features import FeatureMatrix
from hdhash.search import (
    HammingIndex,
    PrPoint,
    auc,
    ground_truth,
    pr_table,
    precision_recall,
    radius_search,
    read_codes_file,
    topk,
    write_codes_file,
    write_pr_csv,
)

from conftest import write_raw_codes
from oracles import pr_direct, radius_direct, topk_direct


def code_of(bits):
    return HashCode.from_bits(np.asarray(bits, dtype=np.uint8))


def random_index(gen, n, k, labels=None):
    bits = (gen.random((n, k)) < 0.5).astype(np.uint8)
    index = HammingIndex(pack_bits(bits), k, np.arange(n), labels)
    return index, bits


# Row scales where the Gram form overflows (1e160), loses bits among the
# subnormals (around 1e-160) or is plain (1, 1e150). Squared norms stay
# below a quarter of the float64 maximum at 1e153 and mostly pass it at
# 1e154, where a query starts taking every row as a candidate.
EXTREME_SCALES = [3e-161, 1e-160, 1e-159, 1.0, 1e150, 1e153, 1e154, 1e160]


def distance(a: HashCode, b: HashCode) -> int:
    return int(hamming_words(a.words, b.words))


class TestHammingDistance:
    def test_identical(self):
        c = code_of([1, 0, 1, 1])
        assert distance(c, c) == 0

    def test_hand_count(self):
        assert distance(code_of([1, 0, 1, 0]), code_of([0, 0, 1, 1])) == 2

    def test_complement_full_width(self):
        bits = (np.random.default_rng(0).random(64) < 0.5).astype(np.uint8)
        assert distance(code_of(bits), code_of(1 - bits)) == 64

    def test_length_mismatch(self):
        # Codes of different lengths are never compared.
        index = HammingIndex(pack_bits(np.zeros((2, 2), dtype=np.uint8)), 2, np.arange(2))
        query = code_of([1, 0, 1])
        with pytest.raises(ShapeError):
            radius_search(index, query, 1)
        with pytest.raises(ShapeError):
            precision_recall(index, [query], [{0}])

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, k, seed):
        gen = np.random.default_rng(seed)
        a, b, c = (code_of((gen.random(k) < 0.5).astype(np.uint8)) for _ in range(3))
        dab = distance(a, b)
        assert dab == distance(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= distance(a, c) + distance(c, b)
        assert 0 <= dab <= k


class TestTopk:
    def test_exact_match_first(self):
        gen = np.random.default_rng(1)
        index, bits = random_index(gen, 20, 16)
        query = code_of(bits[7])
        results = topk(index, query, 3)
        assert results[0][1] == 0
        assert 7 in [i for i, d in results if d == 0]

    def test_k_larger_than_index(self):
        gen = np.random.default_rng(2)
        index, _ = random_index(gen, 5, 8)
        assert len(topk(index, code_of(np.zeros(8, dtype=np.uint8)), 50)) == 5

    def test_matches_naive_oracle(self):
        gen = np.random.default_rng(3)
        index, bits = random_index(gen, 100, 32)
        qbits = (gen.random(32) < 0.5).astype(np.uint8)
        expected = topk_direct([b.tolist() for b in bits], index.ids,
                               qbits.tolist(), 10)
        assert topk(index, code_of(qbits), 10) == expected

    def test_prefix_consistency(self):
        gen = np.random.default_rng(4)
        index, _ = random_index(gen, 60, 16)
        qbits = (gen.random(16) < 0.5).astype(np.uint8)
        small = topk(index, code_of(qbits), 5)
        large = topk(index, code_of(qbits), 25)
        assert large[:5] == small

    def test_empty_index(self):
        empty = HammingIndex(np.zeros((0, 1), dtype=np.uint64), 8,
                             np.zeros(0, dtype=np.int64))
        assert topk(empty, code_of(np.zeros(8, dtype=np.uint8)), 3) == []

    def test_unsorted_unique_ids_accepted(self):
        words = np.zeros((4, 1), dtype=np.uint64)
        index = HammingIndex(words, 8, [7, 2, 9, 0])
        assert [i for i, _ in topk(index, code_of(np.zeros(8, dtype=np.uint8)), 4)] == [
            0, 2, 7, 9]

    def test_duplicate_ids_rejected(self):
        words = np.zeros((4, 1), dtype=np.uint64)
        for ids in ([0, 1, 1, 2], [5, 3, 9, 3]):
            with pytest.raises(DataError):
                HammingIndex(words, 8, ids)

    def test_set_pad_bits_rejected(self):
        # 0b100000 sets the pad bit just past a 5-bit code; scanning it
        # would report distance 1 from the all-zero query instead of 0.
        words = np.array([[0], [0b100000]], dtype=np.uint64)
        with pytest.raises(DomainError):
            HammingIndex(words, 5, np.arange(2))
        full = np.array([[0, 0], [1 << 63, 1 << 63]], dtype=np.uint64)
        HammingIndex(full, 128, np.arange(2))
        with pytest.raises(DomainError):
            HammingIndex(full, 127, np.arange(2))

    def test_bit_length_must_be_positive(self):
        # words_per_code gives 0 words for these lengths, so the N x 0 word
        # matrix fits them; no code without a bit may be indexed.
        for n_bits in (0, -5):
            with pytest.raises(ShapeError):
                HammingIndex(np.zeros((3, 0), dtype=np.uint64), n_bits, np.arange(3))

    def test_k_must_be_positive(self):
        gen = np.random.default_rng(5)
        index, _ = random_index(gen, 5, 8)
        with pytest.raises(ConfigError):
            topk(index, code_of(np.zeros(8, dtype=np.uint8)), 0)

    def test_query_length_mismatch(self):
        gen = np.random.default_rng(6)
        index, _ = random_index(gen, 5, 8)
        with pytest.raises(ShapeError):
            topk(index, code_of(np.zeros(16, dtype=np.uint8)), 1)


class TestRadiusSearch:
    def test_full_radius_returns_everything(self):
        gen = np.random.default_rng(7)
        index, _ = random_index(gen, 30, 12)
        assert len(radius_search(index, code_of(np.zeros(12, dtype=np.uint8)), 12)) == 30

    def test_radius_zero_exact_only(self):
        gen = np.random.default_rng(8)
        index, bits = random_index(gen, 30, 12)
        hits = radius_search(index, code_of(bits[4]), 0)
        assert all(d == 0 for _, d in hits)
        assert 4 in [i for i, _ in hits]

    def test_matches_naive_oracle(self):
        gen = np.random.default_rng(9)
        index, bits = random_index(gen, 50, 16)
        qbits = (gen.random(16) < 0.5).astype(np.uint8)
        for radius in (0, 3, 8, 16):
            expected = radius_direct([b.tolist() for b in bits], index.ids,
                                     qbits.tolist(), radius)
            assert radius_search(index, code_of(qbits), radius) == expected

    def test_radius_bounds(self):
        gen = np.random.default_rng(10)
        index, _ = random_index(gen, 5, 8)
        with pytest.raises(ConfigError):
            radius_search(index, code_of(np.zeros(8, dtype=np.uint8)), 9)


class TestCountArguments:
    """A count that is not a non-bool integer is a ConfigError naming it."""

    @pytest.mark.parametrize("name, call", [
        pytest.param("k_results", lambda index, query, data: topk(index, query, 2.0),
                     id="topk-2.0"),
        pytest.param("k_results", lambda index, query, data: topk(index, query, True),
                     id="topk-True"),
        pytest.param("radius", lambda index, query, data: radius_search(index, query, 2.5),
                     id="radius_search-2.5"),
        pytest.param("n_gt", lambda index, query, data: ground_truth(
            data, [0, 1], "euclidean", 2.5), id="ground_truth-2.5"),
        pytest.param("n_bits", lambda index, query, data: HammingIndex(
            index.words, 8.0, index.ids), id="HammingIndex-8.0"),
    ])
    def test_non_integer_named(self, name, call):
        index, _ = random_index(np.random.default_rng(12), 5, 8)
        data = FeatureMatrix(np.random.default_rng(13).uniform(-1, 1, (5, 3)))
        with pytest.raises(ConfigError, match=f"^{name}: "):
            call(index, code_of(np.zeros(8, dtype=np.uint8)), data)

    def test_numpy_integers_accepted(self):
        index, bits = random_index(np.random.default_rng(14), 20, 8)
        query = code_of(bits[3])
        assert topk(index, query, np.int64(4)) == topk(index, query, 4)
        assert radius_search(index, query, np.uint8(3)) == radius_search(index, query, 3)

    @pytest.mark.parametrize("n_bits", [8, 100, 128])
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint32])
    def test_numpy_integer_bit_lengths(self, tmp_path, kind, n_bits):
        index, bits = random_index(np.random.default_rng(n_bits), 6, n_bits)
        same = HammingIndex(index.words, kind(n_bits), index.ids)
        assert same.n_bits == n_bits and type(same.n_bits) is int
        query = code_of(bits[2])
        assert topk(same, query, 3) == topk(index, query, 3)
        relevant = np.eye(6, dtype=bool)
        assert pr_table(same, index.words, relevant) == pr_table(index, index.words, relevant)
        write_codes_file(tmp_path / "c.hdhc", index.words, kind(n_bits))
        words, k = read_codes_file(tmp_path / "c.hdhc")
        assert k == n_bits and np.array_equal(words, index.words)

    @pytest.mark.parametrize("n_bits", [8.0, True])
    def test_codes_file_bit_length_named(self, tmp_path, n_bits):
        with pytest.raises(ConfigError, match="^n_bits: "):
            write_codes_file(tmp_path / "c.hdhc", np.zeros((2, 1), dtype=np.uint64), n_bits)
        assert not (tmp_path / "c.hdhc").exists()


class TestPackedCodeRule:
    """Every edge that takes packed codes refuses one set pad bit, and takes
    the same words with that bit cleared."""

    @given(n_bits=st.integers(min_value=1, max_value=200).filter(lambda n: n % 64),
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_one_set_pad_bit_refused_at_every_edge(self, tmp_path_factory, n_bits, data):
        rows = data.draw(st.integers(min_value=1, max_value=4))
        row = data.draw(st.integers(min_value=0, max_value=rows - 1))
        pad_bit = data.draw(st.integers(min_value=n_bits % 64, max_value=63))
        good = pack_bits(np.random.default_rng(n_bits).random((rows, n_bits)) < 0.5)
        bad = good.copy()
        bad[row, -1] |= np.uint64(1 << pad_bit)
        relevant = np.ones((rows, rows), dtype=bool)
        index = HammingIndex(good, n_bits, np.arange(rows))
        path = tmp_path_factory.mktemp("codes") / "c.hdhc"
        for edge in (lambda w: HashCode(n_bits, w[row]),
                     lambda w: HammingIndex(w, n_bits, np.arange(rows)),
                     lambda w: pr_table(index, w, relevant),
                     lambda w: write_codes_file(path, w, n_bits)):
            edge(good)
            with pytest.raises(DomainError):
                edge(bad)
        write_raw_codes(path, bad, n_bits)
        with pytest.raises(FormatError):
            read_codes_file(path)
        write_raw_codes(path, good, n_bits)
        assert np.array_equal(read_codes_file(path)[0], good)


class TestTieHeavySearch:
    """topk and radius_search against the naive oracles where most codes
    repeat a few distinct ones, so long runs of equal distances straddle
    every cut; widths past 255 bits would overflow a uint8 accumulator."""

    @staticmethod
    def tie_heavy(gen, n, n_bits, distinct):
        """n copies of a few distinct codes under permuted ids, and a query:
        a copy of a code, its complement (distance n_bits to every copy) or
        a random code. Returns (bits, ids, index, query bits)."""
        base = (gen.random((distinct, n_bits)) < 0.5).astype(np.uint8)
        bits = base[gen.integers(0, distinct, size=n)]
        ids = gen.permutation(n * 5)[:n]
        index = HammingIndex(pack_bits(bits), n_bits, ids)
        qbits = [base[0], 1 - base[0],
                 (gen.random(n_bits) < 0.5).astype(np.uint8)][int(gen.integers(0, 3))]
        return bits, ids, index, qbits

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_oracles(self, n, n_bits, distinct, seed):
        gen = np.random.default_rng(seed)
        bits, ids, index, qbits = self.tie_heavy(gen, n, n_bits, distinct)
        query = code_of(qbits)
        codes_bits, qlist = [b.tolist() for b in bits], qbits.tolist()
        for k in {1, int(gen.integers(1, n + 4)), n, n + 3}:
            assert topk(index, query, k) == topk_direct(codes_bits, ids, qlist, k)
        for radius in {0, int(gen.integers(0, n_bits + 1)), n_bits}:
            assert radius_search(index, query, radius) == radius_direct(
                codes_bits, ids, qlist, radius)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=80, deadline=None)
    def test_topk_is_radius_search_cut_at_kth_distance(self, n, n_bits, distinct, seed):
        gen = np.random.default_rng(seed)
        bits, _, index, qbits = self.tie_heavy(gen, n, n_bits, distinct)
        query = code_of(qbits)
        ordered = np.sort((bits != qbits).sum(axis=1))
        for k in {1, int(gen.integers(1, n + 1)), n}:
            hits = topk(index, query, k)
            assert hits == radius_search(index, query, int(ordered[k - 1]))[:k]
            assert all(type(hit) is tuple and len(hit) == 2
                       and type(hit[0]) is int and type(hit[1]) is int for hit in hits)


def positions(*rows, n):
    """A bool relevance matrix with the given positions set in each row."""
    relevant = np.zeros((len(rows), n), dtype=bool)
    for qi, row in enumerate(rows):
        relevant[qi, list(row)] = True
    return relevant


def random_relevance(gen, n_queries, n, size):
    return np.array([np.isin(np.arange(n), gen.choice(n, size=size, replace=False))
                     for _ in range(n_queries)])


class TestGroundTruth:
    def test_label_pairs(self):
        data = FeatureMatrix(np.ones((2, 2)), np.array([3, 3]))
        truth = ground_truth(data, [0, 1], "label")
        assert np.array_equal(truth, positions({1}, {0}, n=2))

    def test_collinear_euclidean(self):
        data = FeatureMatrix(np.array([[0.0], [1.0], [10.0]]))
        truth = ground_truth(data, [0], "euclidean", n_gt=1)
        assert np.array_equal(truth, positions({1}, n=3))

    def test_euclidean_matches_naive_sort(self):
        gen = np.random.default_rng(11)
        data = FeatureMatrix(gen.normal(size=(25, 4)))
        truth = ground_truth(data, np.arange(25), "euclidean", n_gt=5)
        assert truth.shape == (25, 25) and truth.dtype == bool
        for q in range(25):
            d = np.linalg.norm(data.values - data.values[q], axis=1)
            order = sorted((float(d[i]), i) for i in range(25) if i != q)
            assert set(np.flatnonzero(truth[q]).tolist()) == {i for _, i in order[:5]}

    def test_self_never_relevant(self):
        data = FeatureMatrix(np.arange(4.0).reshape(4, 1))
        truth = ground_truth(data, [2, 0], "euclidean", n_gt=4)
        assert np.array_equal(truth, positions({0, 1, 3}, {1, 2, 3}, n=4))

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=33), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_euclidean_matches_full_lexsort(self, rows, dim, n_gt, seed):
        # Small integer grid points: rows repeat exactly and distances tie,
        # so the gt_n boundary often cuts through a run of equal distances.
        gen = np.random.default_rng(seed)
        data = FeatureMatrix(gen.integers(0, 3, size=(rows, dim)).astype(np.float64))
        query_rows = gen.integers(0, rows, size=int(gen.integers(1, 6)))
        expected = np.zeros((query_rows.size, rows), dtype=bool)
        for qi, q in enumerate(query_rows):
            d = np.linalg.norm(data.values - data.values[q], axis=1)
            d[q] = np.inf
            expected[qi, np.lexsort((np.arange(rows), d))[:n_gt]] = True
            expected[qi, q] = False
        truth = ground_truth(data, query_rows, "euclidean", n_gt)
        assert np.array_equal(truth, expected)

    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=6),
           st.sampled_from(["scaled", "mixed", "offset"]),
           st.sampled_from(EXTREME_SCALES), st.booleans(),
           st.integers(min_value=1, max_value=26), st.sampled_from([1, 40, 1 << 16]),
           st.integers(min_value=0, max_value=2**32))
    @example(rows=1, dim=1, kind="scaled", scale=1.0, duplicates=False, n_gt=1,
             tile=1 << 16, seed=0)
    @example(rows=200, dim=8, kind="scaled", scale=1e160, duplicates=False, n_gt=5,
             tile=1 << 16, seed=1)
    @example(rows=30, dim=3, kind="offset", scale=1.0, duplicates=True, n_gt=29,
             tile=40, seed=2)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_euclidean_extreme_magnitudes_match_full_lexsort(self, rows, dim, kind, scale,
                                                             duplicates, n_gt, tile, seed):
        # Squared norms overflow at 1e160 and land among the subnormals near
        # 1e-160, and a large offset makes the Gram form cancel; the result
        # must still be the full row of exact distances cut by one lexsort.
        # The tile sizes put one query or a few in each block.
        gen = np.random.default_rng(seed)
        noise = gen.normal(size=(rows, dim))
        if kind == "scaled":
            values = scale * noise
        elif kind == "mixed":
            values = gen.choice(EXTREME_SCALES, size=(rows, 1)) * noise
        else:
            values = 1e6 + 1e-3 * noise
        if duplicates:
            values[gen.integers(0, rows, rows // 3)] = values[gen.integers(0, rows, rows // 3)]
        query_rows = np.concatenate([np.arange(rows), gen.integers(0, rows, 3)])
        expected = np.zeros((query_rows.size, rows), dtype=bool)
        for qi, q in enumerate(query_rows):
            d = np.linalg.norm(values - values[q], axis=1)
            d[q] = np.inf
            expected[qi, np.lexsort((np.arange(rows), d))[:n_gt]] = True
            expected[qi, q] = False
        with mock.patch.object(search, "_GRAM_TILE", tile):
            truth = ground_truth(FeatureMatrix(values), query_rows, "euclidean", n_gt)
        assert np.array_equal(truth, expected)

    def test_euclidean_tile_memory_bounded(self):
        # numpy reports its buffers to tracemalloc. The Gram tile holds 2**16
        # float64 distances; beside the relevance matrix, a block needs
        # about two tiles (the tile and its partitioned copy), so a larger
        # tile shows here before it moves the benchmark's peak RSS.
        gen = np.random.default_rng(23)
        data = FeatureMatrix(gen.normal(size=(4000, 32)))
        tracemalloc.start()
        try:
            truth = ground_truth(data, np.arange(0, 4000, 5), "euclidean", n_gt=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < truth.nbytes + 3 * 8 * 2**16

    @pytest.mark.parametrize("rows, dim", [(600, 2048), (300, 8192)])
    def test_euclidean_tile_memory_bounded_in_dim(self, rows, dim):
        # Wide rows: the block's gather of query rows and the exact re-check
        # of its candidates must also stay within a tile or so, not grow
        # with the dimension.
        gen = np.random.default_rng(24)
        data = FeatureMatrix(gen.normal(size=(rows, dim)))
        tracemalloc.start()
        try:
            truth = ground_truth(data, np.arange(rows), "euclidean", n_gt=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < truth.nbytes + 3 * 8 * 2**16

    @pytest.mark.parametrize("rows, dim, every", [(2000, 512, 50), (600, 2048, 1)])
    def test_euclidean_overflow_memory_bounded_in_dim(self, rows, dim, every):
        # Squared norms overflow at 1e160, so every query takes all rows as
        # candidates; they go through the same tiles and slices, not a
        # rows x dim difference per query.
        gen = np.random.default_rng(25)
        data = FeatureMatrix(1e160 * gen.normal(size=(rows, dim)))
        tracemalloc.start()
        try:
            truth = ground_truth(data, np.arange(0, rows, every), "euclidean", n_gt=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < truth.nbytes + 8 * 8 * 2**16

    def test_label_mode_needs_labels(self):
        data = FeatureMatrix(np.ones((3, 2)))
        with pytest.raises(DataError):
            ground_truth(data, [0], "label")


class TestPrecisionRecall:
    def test_hand_counts(self):
        # at radius 0 the query retrieves three codes: two relevant, one not;
        # four relevant items exist in total
        k = 4
        bits = np.array([
            [0, 0, 0, 0],   # relevant, distance 0
            [0, 0, 0, 0],   # relevant, distance 0
            [0, 0, 0, 0],   # irrelevant, distance 0
            [1, 1, 1, 0],   # relevant, distance 3
            [1, 1, 1, 1],   # relevant, distance 4
        ], dtype=np.uint8)
        index = HammingIndex(pack_bits(bits), k, np.arange(5))
        query = pack_bits(np.zeros((1, 4), dtype=np.uint8))
        rows = pr_table(index, query, positions({0, 1, 3, 4}, n=5))
        at0 = rows[0]
        assert at0.precision == pytest.approx(2 / 3)
        assert at0.recall == pytest.approx(1 / 2)
        assert rows[-1].recall == 1.0

    def test_recall_non_decreasing_and_complete(self):
        gen = np.random.default_rng(12)
        index, bits = random_index(gen, 30, 8)
        queries = pack_bits((gen.random((5, 8)) < 0.5).astype(np.uint8))
        rows = pr_table(index, queries, random_relevance(gen, 5, 30, 4))
        recalls = [r.recall for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == pytest.approx(1.0)

    def test_matches_naive_recomputation(self):
        gen = np.random.default_rng(13)
        index, bits = random_index(gen, 30, 8)
        qbits = (gen.random((4, 8)) < 0.5).astype(np.uint8)
        relevant = random_relevance(gen, 4, 30, 5)
        rows = pr_table(index, pack_bits(qbits), relevant)
        truth = [set(np.flatnonzero(r).tolist()) for r in relevant]
        expected = pr_direct([b.tolist() for b in bits], index.ids,
                             [b.tolist() for b in qbits], truth, 8)
        for got, (radius, recall, precision, retrieved) in zip(rows, expected):
            assert got.radius == radius
            assert got.recall == pytest.approx(recall)
            assert got.precision == pytest.approx(precision)
            assert got.mean_retrieved == pytest.approx(retrieved)

    def test_self_exclusion_matches_naive(self):
        gen = np.random.default_rng(14)
        index, bits = random_index(gen, 20, 8)
        relevant = ~np.eye(20, dtype=bool)
        rows = pr_table(index, index.words, relevant, exclude=np.arange(20))
        truth = [set(range(20)) - {i} for i in range(20)]
        expected = pr_direct([b.tolist() for b in bits], index.ids,
                             [b.tolist() for b in bits], truth, 8,
                             exclude=list(range(20)))
        for got, (_, recall, precision, retrieved) in zip(rows, expected):
            assert got.recall == pytest.approx(recall)
            assert got.precision == pytest.approx(precision)
            assert got.mean_retrieved == pytest.approx(retrieved)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=40),
           st.sampled_from([1, 7, 64, 70, 96]), st.booleans(),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_naive(self, n_queries, n, k, excluding, seed):
        gen = np.random.default_rng(seed)
        index, bits = random_index(gen, n, k)
        qbits = (gen.random((n_queries, k)) < gen.random()).astype(np.uint8)
        relevant = gen.random((n_queries, n)) < gen.random()
        relevant[np.arange(n_queries), gen.integers(0, n, n_queries)] = True
        exclude = gen.integers(0, n, n_queries) if excluding else None
        rows = pr_table(index, pack_bits(qbits), relevant, exclude=exclude)
        truth = [set(np.flatnonzero(r).tolist()) for r in relevant]
        expected = pr_direct([b.tolist() for b in bits], index.ids,
                             [b.tolist() for b in qbits], truth, k,
                             exclude=None if exclude is None else exclude.tolist())
        assert len(rows) == len(expected) == k + 1
        for got, (radius, recall, precision, retrieved) in zip(rows, expected):
            assert got.radius == radius
            assert got.recall == pytest.approx(recall, rel=1e-12)
            assert got.precision == pytest.approx(precision, rel=1e-12)
            assert got.mean_retrieved == pytest.approx(retrieved, rel=1e-12)

    @given(st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=12),
           st.sampled_from([1, 7, 64, 70]), st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=2**32))
    @example(n_queries=13, n=5, k=1, excluding=True, exclude_relevant=True, seed=0)
    @example(n_queries=7, n=12, k=7, excluding=True, exclude_relevant=True, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_property_independent_of_block(self, n_queries, n, k, excluding,
                                           exclude_relevant, seed):
        # Tile 1 counts one query per block; tile 40 puts up to six in a
        # block (k = 1, n <= 6), so 13 queries fill several blocks and a
        # partial last one; 2**16 counts them all at once. An excluded
        # position that is also relevant counts as neither retrieved nor
        # relevant-retrieved, at every radius.
        gen = np.random.default_rng(seed)
        index, bits = random_index(gen, n, k)
        qbits = (gen.random((n_queries, k)) < gen.random()).astype(np.uint8)
        relevant = gen.random((n_queries, n)) < gen.random()
        relevant[np.arange(n_queries), gen.integers(0, n, n_queries)] = True
        exclude = gen.integers(0, n, n_queries) if excluding else None
        if excluding and exclude_relevant:
            relevant[np.arange(n_queries), exclude] = True
        tables = []
        for tile in (1, 40, 1 << 16):
            with mock.patch.object(search, "_GRAM_TILE", tile):
                tables.append(pr_table(index, pack_bits(qbits), relevant, exclude=exclude))
        assert tables[0] == tables[1] == tables[2]
        truth = [set(np.flatnonzero(r).tolist()) for r in relevant]
        expected = pr_direct([b.tolist() for b in bits], index.ids,
                             [b.tolist() for b in qbits], truth, k,
                             exclude=None if exclude is None else exclude.tolist())
        assert len(tables[0]) == len(expected) == k + 1
        for got, (radius, recall, precision, retrieved) in zip(tables[0], expected):
            assert got.radius == radius
            assert got.recall == pytest.approx(recall, rel=1e-12)
            assert got.precision == pytest.approx(precision, rel=1e-12)
            assert got.mean_retrieved == pytest.approx(retrieved, rel=1e-12)

    @pytest.mark.parametrize("n, k", [(4000, 32), (2400, 96), (300, 1000)])
    def test_memory_bounded(self, n, k):
        # Every row a query, as eval-pr runs it. Beside the two Q x (k + 1)
        # count arrays, a block's distances and bin counts each fit one tile
        # of 2**16 int64, and hamming_words needs about two more.
        gen = np.random.default_rng(25)
        index, _ = random_index(gen, n, k)
        relevant = gen.random((n, n)) < 0.05
        relevant[np.arange(n), (np.arange(n) + 1) % n] = True
        tracemalloc.start()
        try:
            pr_table(index, index.words, relevant, exclude=np.arange(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (k + 1) * 8 + 4 * 8 * 2**16

    def test_empty_relevance_rejected(self):
        gen = np.random.default_rng(15)
        index, _ = random_index(gen, 5, 8)
        with pytest.raises(DataError) as err:
            pr_table(index, np.zeros((1, 1), dtype=np.uint64),
                     np.zeros((1, 5), dtype=bool))
        assert "query 0" in str(err.value)

    def test_shape_checks(self):
        gen = np.random.default_rng(15)
        index, _ = random_index(gen, 5, 70)
        words = np.zeros((2, 2), dtype=np.uint64)
        relevant = np.ones((2, 5), dtype=bool)
        for bad in (dict(query_words=words[:, :1]),
                    dict(relevant=relevant[:1]),
                    dict(exclude=[0]),
                    dict(exclude=[0, 5]),
                    dict(query_words=words[:0], relevant=relevant[:0])):
            args = dict(query_words=words, relevant=relevant, exclude=None) | bad
            with pytest.raises(ShapeError):
                pr_table(index, **args)
        with pytest.raises(DomainError):
            pr_table(index, np.array([[0, 1 << 6]] * 2, dtype=np.uint64), relevant)

    def test_unknown_relevant_id_rejected(self):
        gen = np.random.default_rng(16)
        index, _ = random_index(gen, 5, 8)
        query = code_of(np.zeros(8, dtype=np.uint8))
        with pytest.raises(DataError) as err:
            precision_recall(index, [query, query], [{0, 1}, {2, 99}])
        assert "query 1" in str(err.value)

    def test_curve_strictly_increasing(self):
        gen = np.random.default_rng(16)
        index, _ = random_index(gen, 30, 8)
        queries = [code_of((gen.random(8) < 0.5).astype(np.uint8)) for _ in range(3)]
        truth = [set(gen.choice(30, size=4, replace=False).tolist()) for _ in range(3)]
        table = precision_recall(index, queries, truth)
        assert [row.radius for row in table] == list(range(9))
        recalls = [row.recall for row in table]
        assert all(0.0 <= r <= 1.0 for r in recalls)
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))


def pr_rows(*points):
    """A pr_table of (recall, precision) rows at radii 0, 1, ..."""
    return [PrPoint(radius, r, p, 0.0) for radius, (r, p) in enumerate(points)]


class TestAuc:
    def test_perfect_single_point(self):
        assert auc(pr_rows((1.0, 1.0))) == pytest.approx(1.0)

    def test_rectangle(self):
        assert auc(pr_rows((0.0, 1.0), (1.0, 0.5))) == pytest.approx(0.75)

    def test_repeated_recall_keeps_first_precision(self):
        # The rows at recall 0.5 after the first add nothing, and the next
        # trapezoid starts from the first one's precision, 0.75.
        table = pr_rows((0.0, 1.0), (0.5, 0.75), (0.5, 0.25), (0.5, 0.0), (1.0, 0.25))
        assert auc(table) == 0.5 * (1.0 + 0.75) / 2 + 0.5 * (0.75 + 0.25) / 2

    def test_positive_first_recall_anchored_at_zero(self):
        # (0.5, 0.5) first: the curve starts at (0, 0.5).
        assert auc(pr_rows((0.5, 0.5), (1.0, 0.25))) == 0.5 * 0.5 + 0.5 * 0.75 / 2

    def test_zero_first_recall_adds_no_area(self):
        assert auc(pr_rows((0.0, 0.25))) == 0.0
        assert auc(pr_rows((0.0, 1.0), (0.0, 0.0), (1.0, 0.5))) == 0.75


class TestCodesIo:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(17)
        bits = (gen.random((9, 70)) < 0.5).astype(np.uint8)
        words = pack_bits(bits)
        path = tmp_path / "c.hdhc"
        write_codes_file(path, words, 70)
        loaded, k = read_codes_file(path)
        assert k == 70
        assert np.array_equal(loaded, words)
        # A read-only view of the file's words, aligned for fast scans.
        assert loaded.dtype == np.uint64 and loaded.flags.aligned
        assert not loaded.flags.writeable

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.hdhc"
        p.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(FormatError):
            read_codes_file(p)

    def test_truncated(self, tmp_path):
        gen = np.random.default_rng(18)
        words = pack_bits((gen.random((4, 16)) < 0.5).astype(np.uint8))
        p = tmp_path / "c.hdhc"
        write_codes_file(p, words, 16)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(TruncationError):
            read_codes_file(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        words = pack_bits(np.ones((3, 16), dtype=np.uint8))
        p = tmp_path / "c.hdhc"
        write_codes_file(p, words, 16)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_codes_file(p)

    def test_set_pad_bits_rejected(self, tmp_path):
        p = tmp_path / "c.hdhc"
        write_raw_codes(p, np.array([[0], [0b100000]], dtype=np.uint64), 5)
        with pytest.raises(FormatError):
            read_codes_file(p)

    def test_writer_refuses_what_reader_rejects(self, tmp_path):
        p = tmp_path / "c.hdhc"
        with pytest.raises(DomainError):
            write_codes_file(p, np.array([[0], [0b100000]], dtype=np.uint64), 5)
        with pytest.raises(ShapeError):
            write_codes_file(p, np.zeros((2, 0), dtype=np.uint64), 0)
        assert not p.exists()

    def test_pr_csv(self, tmp_path):
        p = tmp_path / "pr.csv"
        write_pr_csv(p, [PrPoint(0, 0.0, 1.0, 0.0), PrPoint(1, 0.5, 0.75, 2.0)])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "radius,recall,precision,mean_retrieved"
        assert lines[1].startswith("0,0,1,")
        assert len(lines) == 3
