"""Exact Hamming-space retrieval and precision-recall evaluation.

Search is a linear scan over packed codes (XOR + popcount on 64-bit words),
so results are exact, never approximate. All rankings break distance ties by
ascending id, which makes every result deterministic and testable against a
naive re-sort oracle. topk, radius_search and pr_table scan through one
helper, and one helper ranks the codes within a reach by (distance, id):
radius_search ranks those within its radius, and topk is radius_search cut
at the k-th smallest distance (a partition finds it) to its first k hits,
so a run of ties at the cut still goes to the lowest ids.

Euclidean ground truth filters before it selects. For a block of queries one
matmul tile gives squared distances in Gram form, ||x||^2 + ||y||^2 - 2x.y,
and a partition of each tile row finds its cut. Every row within a proven
rounding bound of the cut is a candidate, and only the candidates get the
exact distance, np.linalg.norm of the row difference. The re-check runs
once per tile, not once per query: every candidate of the block is found in
one pass over the tile, and one lexsort by (query, distance, id) ranks them
all, each query keeping its first n_gt. So the result is the one a full row
of exact distances gives. A query whose squared norm, plus the largest row's,
passes a quarter of the float64 maximum, where the Gram form could overflow,
takes every row as a candidate and goes through the same re-check.

A precision-recall curve is a pr_table: one row of mean recall, precision
and retrieved count per Hamming radius 0..k, over a Q x N bool relevance
matrix on index positions (precision_recall builds it from id sets). At
each radius a query's precision is relevant-retrieved / retrieved, or 1.0
when nothing was retrieved (vacuous precision, so curves start sensibly
near recall 0). auc is the trapezoid over the first row of each distinct
mean recall, anchored at recall 0 with the first row's precision. The
counts behind each row are taken for a block of queries at once: one
Hamming scan gives the block's distances, and one bincount over per-query
bins counts the retrieved and relevant-retrieved positions at every
distance.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .codes import HashCode, hamming_words, pad_bits_set, words_per_code
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    FormatError,
    ShapeError,
    TruncationError,
)
from .features import FeatureMatrix, atomic_write, check_count

CODES_MAGIC = b"HDHC"

GROUND_TRUTH_MODES = ("label", "euclidean")

# Entries per tile of evaluation: the Gram tile of Euclidean ground truth (a
# block of queries against every row, or its gather of query rows if wider)
# and the Hamming distance tile of pr_table (a block of queries against
# every code, or its bin counts if wider). It bounds both tiles'
# temporaries, and so the peak memory of evaluation.
_GRAM_TILE = 1 << 16


@dataclass(frozen=True)
class HammingIndex:
    """Immutable collection of equal-length codes with ids and optional labels."""

    words: np.ndarray
    n_bits: int
    ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if check_count("n_bits", self.n_bits) < 1:
            raise ShapeError(f"codes need at least 1 bit, got {self.n_bits}")
        words = np.asarray(self.words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != words_per_code(self.n_bits):
            raise ShapeError(
                f"words must be N x {words_per_code(self.n_bits)} for "
                f"{self.n_bits}-bit codes, got {words.shape}"
            )
        if pad_bits_set(words, self.n_bits):
            raise DomainError("trailing pad bits of every code must be zero")
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.shape != (words.shape[0],):
            raise ShapeError("ids must align with codes")
        # Strictly increasing ids (the common np.arange case) are unique
        # without a sort.
        if not np.all(ids[1:] > ids[:-1]):
            ordered = np.sort(ids)
            if np.any(ordered[1:] == ordered[:-1]):
                raise DataError("ids must be unique")
        words.flags.writeable = False
        ids.flags.writeable = False
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "ids", ids)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (words.shape[0],):
                raise ShapeError("labels must align with codes")
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.words.shape[0]


def _query_words(index: HammingIndex, query: HashCode) -> np.ndarray:
    if query.n_bits != index.n_bits:
        raise ShapeError(f"query has {query.n_bits} bits, index stores {index.n_bits}")
    return query.words


def _distances(index: HammingIndex, query_words: np.ndarray) -> np.ndarray:
    """Distances of every code to one packed query (N) or to each of b (b x N)."""
    return hamming_words(index.words, query_words[..., None, :])


def _ranked(index: HammingIndex, dists, reach, limit=None) -> list[tuple[int, int]]:
    """The codes within reach as (id, distance), by (distance, id); the first limit."""
    hit = np.flatnonzero(dists <= reach)
    order = hit[np.lexsort((index.ids[hit], dists[hit]))[:limit]]
    return list(zip(index.ids[order].tolist(), dists[order].tolist()))


def topk(index: HammingIndex, query: HashCode, k_results: int) -> list[tuple[int, int]]:
    """The exact k nearest codes as (id, distance), ties broken by id."""
    if check_count("k_results", k_results) < 1:
        raise ConfigError(f"k_results must be >= 1, got {k_results}")
    if index.size == 0:
        return []
    dists = _distances(index, _query_words(index, query))
    k = min(k_results, index.size)
    return _ranked(index, dists, np.partition(dists, k - 1)[k - 1], k)


def radius_search(index: HammingIndex, query: HashCode, radius: int) -> list[tuple[int, int]]:
    """All codes within the given Hamming radius, sorted by (distance, id)."""
    if not 0 <= check_count("radius", radius) <= index.n_bits:
        raise ConfigError(f"radius must be in 0..{index.n_bits}, got {radius}")
    return _ranked(index, _distances(index, _query_words(index, query)), radius)


def ground_truth(data: FeatureMatrix, query_rows, mode: str, n_gt: int = 0) -> np.ndarray:
    """Q x rows bool relevance matrix for query rows of the dataset.

    "label" marks every same-class row relevant; "euclidean" marks the n_gt
    nearest rows in the original feature space (ties by row id). Euclidean
    neighbours are found by a blocked Gram-form filter and an exact re-check
    of its candidates (see the module docstring); they equal a selection
    over each query's full row of np.linalg.norm distances. A query's own
    row is never relevant to it.
    """
    if mode not in GROUND_TRUTH_MODES:
        raise ConfigError(f"unknown ground-truth mode {mode!r}")
    query_rows = np.asarray(query_rows, dtype=np.int64)
    if query_rows.ndim != 1:
        raise ShapeError("query_rows must be a 1-D index vector")
    if np.any(query_rows < 0) or np.any(query_rows >= data.rows):
        raise ShapeError("query_rows out of range")
    if mode == "label":
        if data.labels is None:
            raise ConfigError("label ground truth requires a labeled dataset")
        relevant = data.labels[query_rows, None] == data.labels[None, :]
    else:
        if check_count("n_gt", n_gt) < 1:
            raise ConfigError(f"euclidean ground truth needs n_gt >= 1, got {n_gt}")
        relevant = _euclidean_relevance(data.values, query_rows, n_gt)
    relevant[np.arange(query_rows.size), query_rows] = False
    return relevant


def _euclidean_relevance(values: np.ndarray, query_rows: np.ndarray, n_gt: int) -> np.ndarray:
    """The n_gt nearest other rows of each query row, ties by row id.

    A Gram tile of squared distances per block of queries finds a cut and a
    few candidates; only those get the exact distance, which picks the
    winners exactly as a full row of exact distances would. A query too
    large for the Gram form to stay finite takes every row as a candidate.
    """
    n, dim = values.shape
    relevant = np.zeros((query_rows.size, n), dtype=bool)
    k = min(n_gt, n)
    # Why the filter never drops a winner. Let u be the unit roundoff,
    # rel = 4(dim + 4)u and D = ||x - y||^2 in exact arithmetic.
    # - Gram: ||x||^2, ||y||^2 and x.y are sums of dim products, so in any
    #   summation order (any classical BLAS kernel, blocking or thread
    #   count, with or without FMA) each is off by at most dim*u/(1 - dim*u)
    #   times the absolute sum of its terms, a sum that is at most
    #   (||x||^2 + ||y||^2)/2 for x.y. The two additions that join them
    #   round once each. So a tile entry G is within e = rel*(sq_x + max sq)
    #   of D, with room to spare.
    # - Exact: the norm row rounds each difference, each square and the
    #   sqrt once and sums dim squares, so its distance E has E^2 = D(1 + t)
    #   with |t| <= rel.
    # - Underflow: a product below the normal range adds at most half the
    #   smallest subnormal to either form; additions there are exact. The
    #   floor, 16(dim + 1) subnormals, is several times both forms' sum.
    # Let c be a query's k-th smallest G. The k rows with G <= c have
    # D <= c + e; a row with G > c + m has D > c + m - e. Once
    # m(1 - rel) >= 2e + 2rel|c| + 2floor, such a row's E is strictly above
    # those k rows' E, so it can neither win nor tie its way in by id. The
    # m below is about twice that, which also absorbs the rounding of m and
    # of c + m. The proof needs every value finite: overflow makes a norm
    # inf and a difference of infs NaN. While sq_x + max sq <= max/4, every
    # G, the reach and every candidate's E is at most about 2(sq_x + max sq),
    # so all are finite. A query above that bound takes every row as a
    # candidate, so its cut is the full row of exact distances.
    rel = 2 * (dim + 4) * np.finfo(np.float64).eps
    floor = 16 * (dim + 1) * np.finfo(np.float64).smallest_subnormal
    sq = np.einsum("ij,ij->i", values, values)
    sq_max = sq.max()
    full = sq + sq_max > np.finfo(np.float64).max / 4
    # The gather values[queries] is block x dim, the tile block x n.
    block = max(1, _GRAM_TILE // max(n, dim))
    # Exact distances in slices of at most one tile of coordinates.
    step = max(1, _GRAM_TILE // dim)
    for start in range(0, query_rows.size, block):
        queries = query_rows[start:start + block]
        # A full-row query's tile row may overflow; its near row is all True.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = values[queries] @ values.T
            gram *= -2.0
            gram += sq
            gram += sq[queries, None]
            gram[np.arange(queries.size), queries] = np.inf  # self is never its own neighbor
            cut = np.partition(gram, k - 1, axis=1)[:, k - 1].copy()  # no view: frees it
            reach = cut + 4 * (rel * (sq[queries] + sq_max + np.abs(cut)) + floor)
            near = gram <= reach[:, None]
        del gram  # freed before the re-check's slices
        near[full[queries]] = True
        qi, cand = np.divmod(np.flatnonzero(near), n)
        del near
        d = np.empty(qi.size)
        # A full-row query's distances may overflow to inf.
        with np.errstate(over="ignore"):
            for lo in range(0, qi.size, step):
                diff = values[cand[lo:lo + step]]
                diff -= values[queries[qi[lo:lo + step]]]
                d[lo:lo + step] = np.linalg.norm(diff, axis=1)
        d[cand == queries[qi]] = np.inf  # self, when a candidate, is never its own neighbor
        # Each query's candidates in (distance, id) order, as cand ascends
        # within each query and lexsort is stable; its first n_gt win.
        order = np.lexsort((d, qi))
        qi, cand = qi[order], cand[order]
        win = np.arange(qi.size) - np.searchsorted(qi, qi) < n_gt
        relevant[start + qi[win], cand[win]] = True
    return relevant


@dataclass(frozen=True)
class PrPoint:
    radius: int
    recall: float
    precision: float
    mean_retrieved: float


def pr_table(index: HammingIndex, query_words, relevant, exclude=None) -> list[PrPoint]:
    """Mean precision/recall/retrieved per radius 0..k over all queries.

    query_words packs Q codes of the index's length; relevant[q] marks the
    index positions relevant to query q, at least one each. exclude
    optionally names one index position per query that no radius retrieves
    (use it when queries are rows of the index itself).
    """
    query_words = np.asarray(query_words, dtype=np.uint64)
    relevant = np.asarray(relevant, dtype=bool)
    n_queries = len(query_words)
    if (query_words.shape != (n_queries, index.words.shape[1])
            or relevant.shape != (n_queries, index.size)):
        raise ShapeError(f"need {index.words.shape[1]} words and {index.size} relevance "
                         f"flags per query, got {query_words.shape} and {relevant.shape}")
    if pad_bits_set(query_words, index.n_bits):
        raise DomainError("trailing pad bits of every query code must be zero")
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64)
        if exclude.shape != (n_queries,) or np.any((exclude < 0) | (exclude >= index.size)):
            raise ShapeError("need one excluded index position per query")
    if not n_queries:
        raise ShapeError("need at least one query")
    rel_sizes = relevant.sum(axis=1)
    if not rel_sizes.all():
        raise DataError(f"query {int(np.argmin(rel_sizes))} has no relevant position")
    k = index.n_bits

    # A block's distances sit in 2(k + 2) bins per query: bin d counts
    # distance d, bin k + 2 + d a relevant position at d, and bin k + 1 (or
    # 2k + 3, if relevant) the excluded position, which no radius retrieves.
    # The block keeps both its b x N distances and its b x 2(k + 2) counts
    # within one tile.
    bins = 2 * (k + 2)
    block = max(1, _GRAM_TILE // max(index.size, bins))
    n_ret = np.zeros((n_queries, k + 1), dtype=np.int64)
    n_rel = np.zeros((n_queries, k + 1), dtype=np.int64)
    for start in range(0, n_queries, block):
        stop = min(start + block, n_queries)
        dists = _distances(index, query_words[start:stop])
        if exclude is not None:
            dists[np.arange(stop - start), exclude[start:stop]] = k + 1
        dists += relevant[start:stop] * (k + 2)
        dists += np.arange(0, (stop - start) * bins, bins)[:, None]
        counts = np.bincount(dists.ravel(), minlength=(stop - start) * bins)
        del dists  # not alive beside the next block's
        counts = counts.reshape(stop - start, bins)
        hits = counts[:, k + 2:2 * k + 3]
        np.cumsum(hits, axis=1, out=n_rel[start:stop])
        hits += counts[:, :k + 1]
        np.cumsum(hits, axis=1, out=n_ret[start:stop])

    rows = []
    for radius in range(k + 1):
        ret = n_ret[:, radius].astype(np.float64)
        rel = n_rel[:, radius].astype(np.float64)
        precision = np.where(ret > 0, rel / np.where(ret > 0, ret, 1.0), 1.0)
        recall = rel / rel_sizes
        rows.append(PrPoint(radius, float(recall.mean()), float(precision.mean()),
                            float(ret.mean())))
    return rows


def precision_recall(index: HammingIndex, queries, truth) -> list[PrPoint]:
    """pr_table of HashCode queries, each with a set of relevant ids held by
    the index."""
    queries = list(queries)
    if len(truth) != len(queries):
        raise ShapeError("need exactly one relevance set per query")
    relevant = np.zeros((len(queries), index.size), dtype=bool)
    for qi, ids in enumerate(truth):
        if not np.isin(list(ids), index.ids).all():
            raise DataError(f"query {qi} names a relevant id the index does not hold")
        relevant[qi] = np.isin(index.ids, list(ids))
    words = np.array([_query_words(index, q) for q in queries], dtype=np.uint64)
    return pr_table(index, words, relevant)


def auc(table: list[PrPoint]) -> float:
    """Trapezoidal area under a pr_table's curve: the first row of each
    distinct mean recall, anchored at recall 0 with the first precision."""
    r0, p0 = 0.0, table[0].precision
    area = 0.0
    for row in table:
        if row.recall > r0:
            area += (row.recall - r0) * (p0 + row.precision) / 2.0
            r0, p0 = row.recall, row.precision
    return area


def write_codes_file(path, words: np.ndarray, n_bits: int) -> None:
    """Write packed codes: magic, u32 count, u32 bit length, u64 words.

    Refuses what read_codes_file would reject: a bad shape or set pad bits.
    """
    words = np.asarray(words, dtype="<u8")
    if n_bits < 1 or words.ndim != 2 or words.shape[1] != words_per_code(n_bits):
        raise ShapeError(f"words shape {words.shape} does not fit {n_bits}-bit codes")
    if pad_bits_set(words, n_bits):
        raise DomainError(f"a code has set pad bits beyond bit {n_bits}")
    atomic_write(path, CODES_MAGIC + struct.pack("<II", words.shape[0], n_bits)
                 + words.tobytes())


def read_codes_file(path) -> tuple[np.ndarray, int]:
    # Unbuffered, so the body comes from one read into a buffer of its own,
    # which starts 8-byte aligned; no leftover read-ahead must be joined.
    with open(path, "rb", buffering=0) as fh:
        header = fh.read(12)
        body = fh.read()
    if len(header) < 12:
        raise TruncationError(f"{path}: shorter than the codes header")
    if header[:4] != CODES_MAGIC:
        raise FormatError(f"{path}: bad magic {header[:4]!r}, expected {CODES_MAGIC!r}")
    count, n_bits = struct.unpack_from("<II", header, 4)
    if n_bits < 1:
        raise FormatError(f"{path}: bit length must be >= 1")
    n_words = words_per_code(n_bits)
    need = 8 * count * n_words
    if len(body) < need:
        raise TruncationError(f"{path}: expected {12 + need} bytes, got {12 + len(body)}")
    if len(body) > need:
        raise FormatError(f"{path}: {len(body) - need} trailing bytes after "
                          f"the last of {count} codes")
    # A read-only view of the words, not a copy. A view at offset 12 of the
    # whole file would be unaligned, and every scan of unaligned words is
    # slower; np.require copies only on a big-endian or unaligned buffer.
    words = np.frombuffer(body, dtype="<u8", count=count * n_words)
    words = np.require(words.reshape(count, n_words), np.uint64, "A")
    words.flags.writeable = False
    if pad_bits_set(words, n_bits):
        raise FormatError(f"{path}: a code has set pad bits beyond bit {n_bits}")
    return words, n_bits


def write_pr_csv(path, table: list[PrPoint]) -> None:
    lines = ["radius,recall,precision,mean_retrieved\n"]
    for row in table:
        lines.append(f"{row.radius},{row.recall:.17g},{row.precision:.17g},"
                     f"{row.mean_retrieved:.17g}\n")
    atomic_write(path, "".join(lines).encode("utf-8"))
