"""Exact Hamming-space retrieval and precision-recall evaluation.

Search is a linear scan over packed codes (XOR + popcount on 64-bit words),
so results are exact, never approximate. All rankings break distance ties by
ascending id, which makes every result deterministic and testable against a
naive re-sort oracle. Top-k and Euclidean ground truth select rather than
sort: a partition finds the k-th smallest distance, and only the candidates
at or below it are ordered, by (distance, id), so a run of ties at the cut
still goes to the lowest ids.

Euclidean ground truth filters before it selects. For a block of queries one
matmul tile gives squared distances in Gram form, ||x||^2 + ||y||^2 - 2x.y,
and a partition of each tile row finds its cut. Every row within a proven
rounding bound of the cut is a candidate, and only the candidates get the
exact distance, np.linalg.norm of the row difference, from which the
selection above picks. So the result is the one a full row of exact
distances gives; a query with an overflowed Gram entry takes that full row.

Precision-recall curves sweep the Hamming radius 0..k over a Q x N bool
relevance matrix on index positions (precision_recall builds it from id
sets). At each radius a query's precision is relevant-retrieved / retrieved,
or 1.0 when nothing was retrieved (vacuous precision, so curves start
sensibly near recall 0); the reported curve keeps the first point for each
distinct mean recall. Reported AUC is the trapezoid over those points,
anchored at recall 0 with the first point's precision.
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
from .features import FeatureMatrix, atomic_write

CODES_MAGIC = b"HDHC"

GROUND_TRUTH_MODES = ("label", "euclidean")

# Squared distances per Gram tile of Euclidean ground truth: a block of
# queries against every row. It bounds the tile's temporaries, and so the
# peak memory of evaluation.
_GRAM_TILE = 1 << 16


@dataclass(frozen=True)
class HammingIndex:
    """Immutable collection of equal-length codes with ids and optional labels."""

    words: np.ndarray
    n_bits: int
    ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.n_bits < 1:
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


def _query_distances(index: HammingIndex, query_words: np.ndarray) -> np.ndarray:
    return hamming_words(index.words, query_words[None, :])


def _smallest(keys: np.ndarray, k: int, tiebreak: np.ndarray) -> np.ndarray:
    """Positions of the k smallest keys, ordered by (key, tiebreak).

    A partition finds the k-th smallest key; only the candidates at or below
    it are sorted, so the whole run of ties at the cut competes on tiebreak.
    """
    k = min(k, len(keys))
    cut = np.partition(keys, k - 1)[k - 1]
    candidates = np.flatnonzero(keys <= cut)
    order = np.lexsort((tiebreak[candidates], keys[candidates]))
    return candidates[order[:k]]


def topk(index: HammingIndex, query: HashCode, k_results: int) -> list[tuple[int, int]]:
    """The exact k nearest codes as (id, distance), ties broken by id."""
    if k_results < 1:
        raise ConfigError(f"k_results must be >= 1, got {k_results}")
    if index.size == 0:
        return []
    dists = _query_distances(index, _query_words(index, query))
    order = _smallest(dists, k_results, index.ids)
    return [(int(index.ids[i]), int(dists[i])) for i in order]


def radius_search(index: HammingIndex, query: HashCode, radius: int) -> list[tuple[int, int]]:
    """All codes within the given Hamming radius, sorted by (distance, id)."""
    if not 0 <= radius <= index.n_bits:
        raise ConfigError(f"radius must be in 0..{index.n_bits}, got {radius}")
    dists = _query_distances(index, _query_words(index, query))
    hit = np.flatnonzero(dists <= radius)
    order = hit[np.lexsort((index.ids[hit], dists[hit]))]
    return [(int(index.ids[i]), int(dists[i])) for i in order]


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
        if n_gt < 1:
            raise ConfigError(f"euclidean ground truth needs n_gt >= 1, got {n_gt}")
        relevant = _euclidean_relevance(data.values, query_rows, n_gt)
    relevant[np.arange(query_rows.size), query_rows] = False
    return relevant


def _euclidean_relevance(values: np.ndarray, query_rows: np.ndarray, n_gt: int) -> np.ndarray:
    """The n_gt nearest other rows of each query row, ties by row id.

    A Gram tile of squared distances per block of queries finds a cut and a
    few candidates; only those get the exact distance, which picks the
    winners exactly as a full row of exact distances would.
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
    # inf and a difference of infs NaN. A query whose tile row, reach or
    # candidate distances are not all finite takes the full row of exact
    # distances instead.
    rel = 2 * (dim + 4) * np.finfo(np.float64).eps
    floor = 16 * (dim + 1) * np.finfo(np.float64).smallest_subnormal
    sq = np.einsum("ij,ij->i", values, values)
    sq_max = sq.max()
    block = max(1, _GRAM_TILE // n)
    for start in range(0, query_rows.size, block):
        queries = query_rows[start:start + block]
        # Overflow here is expected; it sends the query to the full row.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = values[queries] @ values.T
            gram *= -2.0
            gram += sq
            gram += sq[queries, None]
            finite = np.isfinite(gram).all(axis=1)
            gram[np.arange(queries.size), queries] = np.inf  # self is never its own neighbor
            cut = np.partition(gram, k - 1, axis=1)[:, k - 1].copy()  # no view: frees it
            reach = cut + 4 * (rel * (sq[queries] + sq_max + np.abs(cut)) + floor)
        for qi, q in enumerate(queries):
            if finite[qi] and np.isfinite(reach[qi]):
                cand = np.flatnonzero(gram[qi] <= reach[qi])
                d = np.linalg.norm(values[cand] - values[q], axis=1)
                if np.isfinite(d).all():
                    relevant[start + qi, cand[_smallest(d, n_gt, cand)]] = True
                    continue
            d = np.linalg.norm(values - values[q], axis=1)
            d[q] = np.inf
            relevant[start + qi, _smallest(d, n_gt, np.arange(n))] = True
    return relevant


@dataclass(frozen=True)
class PrPoint:
    radius: int
    recall: float
    precision: float
    mean_retrieved: float


@dataclass(frozen=True)
class PRCurve:
    """Mean precision at each distinct mean recall, recall strictly increasing."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(r), float(p)) for r, p in self.points)
        last = -1.0
        for r, p in pts:
            if not (0.0 <= r <= 1.0 and 0.0 <= p <= 1.0):
                raise DataError(f"recall/precision must lie in [0, 1], got ({r}, {p})")
            if r <= last:
                raise DataError("recall must be strictly increasing along the curve")
            last = r
        object.__setattr__(self, "points", pts)


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

    n_ret = np.zeros((n_queries, k + 1), dtype=np.int64)
    n_rel = np.zeros((n_queries, k + 1), dtype=np.int64)
    for qi in range(n_queries):
        dists = _query_distances(index, query_words[qi])
        if exclude is not None:
            dists[exclude[qi]] = k + 1  # beyond every radius
        n_ret[qi] = np.bincount(dists, minlength=k + 2)[:k + 1].cumsum()
        n_rel[qi] = np.bincount(dists[relevant[qi]], minlength=k + 2)[:k + 1].cumsum()

    rows = []
    for radius in range(k + 1):
        ret = n_ret[:, radius].astype(np.float64)
        rel = n_rel[:, radius].astype(np.float64)
        precision = np.where(ret > 0, rel / np.where(ret > 0, ret, 1.0), 1.0)
        recall = rel / rel_sizes
        rows.append(PrPoint(radius, float(recall.mean()), float(precision.mean()),
                            float(ret.mean())))
    return rows


def curve_from_table(table: list[PrPoint]) -> PRCurve:
    """PR curve of a pr_table, one point per distinct mean recall."""
    points = []
    for row in table:
        if not points or row.recall > points[-1][0]:
            points.append((row.recall, row.precision))
    return PRCurve(tuple(points))


def precision_recall(index: HammingIndex, queries, truth) -> PRCurve:
    """PR curve of HashCode queries, each with a set of relevant ids held by
    the index: one point per distinct mean recall."""
    queries = list(queries)
    if len(truth) != len(queries):
        raise ShapeError("need exactly one relevance set per query")
    relevant = np.zeros((len(queries), index.size), dtype=bool)
    for qi, ids in enumerate(truth):
        if not np.isin(list(ids), index.ids).all():
            raise DataError(f"query {qi} names a relevant id the index does not hold")
        relevant[qi] = np.isin(index.ids, list(ids))
    words = np.array([_query_words(index, q) for q in queries], dtype=np.uint64)
    return curve_from_table(pr_table(index, words, relevant))


def auc(curve: PRCurve) -> float:
    """Trapezoidal area under the curve, anchored at recall 0."""
    pts = list(curve.points)
    if pts[0][0] > 0.0:
        pts.insert(0, (0.0, pts[0][1]))
    area = 0.0
    for (r0, p0), (r1, p1) in zip(pts, pts[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
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
