"""Checks of hdhash outputs, computed apart from the program.

Nothing here calls hdhash. Each checker returns a list of problems (empty
when the output is right), so a planted error can be shown to be caught.

* Codes are recomputed from the model file's parameters with a plain numpy
  pass; a disagreement is excused only where a pre-activation lies within
  TIE_EPS of 0.
* Hamming distances come from a 16-bit popcount table built with
  np.unpackbits; results are ordered by the key distance * N + id.
* PR tables come from full query x index distance matrices, with labels or
  with Euclidean neighbour sets from a Gram-matrix pass whose near-ties at
  the G-th neighbour are re-checked with the direct difference norm.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

TIE_EPS = 1e-9
PR_TOL = 1e-12
AUC_TOL = 1e-9

POPCOUNT16 = np.unpackbits(
    np.arange(1 << 16, dtype="<u2").view(np.uint8).reshape(-1, 2), axis=1
).sum(axis=1).astype(np.uint8)


# ---------------------------------------------------------------- file formats

def read_codes(blob: bytes) -> tuple[np.ndarray, int]:
    count, n_bits = struct.unpack_from("<II", blob, 4)
    n_words = (n_bits + 63) // 64
    if blob[:4] != b"HDHC" or len(blob) != 12 + 8 * count * n_words:
        raise ValueError("malformed codes file")
    words = np.frombuffer(blob, dtype="<u8", offset=12).reshape(count, n_words)
    return words.astype(np.uint64), n_bits


def read_model(blob: bytes) -> dict:
    """The model's parameters as arrays, after checking magic, version, CRC."""
    magic, version, crc = blob[:4], *struct.unpack_from("<II", blob, 4)
    payload = blob[12:]
    if magic != b"HDHM" or version != 1 or zlib.crc32(payload) != crc:
        raise ValueError("malformed model file")
    fields = dict(line.split("=", 1) for line in payload.decode().splitlines() if line)

    def vec(key):
        return np.array([float(v) for v in fields[key].split()])

    layers = []
    for i in range(int(fields["sae.layer_count"])):
        q, p = int(fields[f"sae.{i}.out_dim"]), int(fields[f"sae.{i}.in_dim"])
        layers.append((vec(f"sae.{i}.enc_w").reshape(q, p), vec(f"sae.{i}.enc_b")))
    h, v = int(fields["rbm.h_dim"]), int(fields["rbm.v_dim"])
    return {
        "norm_mode": fields["norm.mode"],
        "shift": vec("norm.shift"),
        "scale": vec("norm.scale"),
        "layers": layers,
        "rbm_w": vec("rbm.w").reshape(h, v),
        "hid_bias": vec("rbm.hid_bias"),
    }


def read_pr_csv(text: str) -> np.ndarray:
    """radius, recall, precision, mean_retrieved rows as a float matrix."""
    lines = text.strip().splitlines()
    if lines[0] != "radius,recall,precision,mean_retrieved":
        raise ValueError("unexpected PR CSV header")
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


# ----------------------------------------------------------------------- codes

def pack(bits: np.ndarray) -> np.ndarray:
    """Bit i of a row goes to word i // 64 at position i % 64."""
    n, k = bits.shape
    words = np.zeros((n, (k + 63) // 64), dtype=np.uint64)
    for i in range(k):
        words[:, i // 64] |= bits[:, i].astype(np.uint64) << np.uint64(i % 64)
    return words


def recompute_codes(model: dict, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed codes and, per row, whether a pre-activation is a near-tie."""
    x = (raw - model["shift"]) * model["scale"]
    if model["norm_mode"] == "zscore_clamped":
        x = np.clip(x, -1.0, 1.0)
    for enc_w, enc_b in model["layers"]:
        pre = x @ enc_w.T + enc_b
        x = np.tanh(pre)
    tie = (np.abs(pre) < TIE_EPS).any(axis=1)
    pre = (pre >= 0).astype(np.float64) @ model["rbm_w"].T + model["hid_bias"]
    tie |= (np.abs(pre) < TIE_EPS).any(axis=1)
    return pack((pre >= 0).astype(np.uint8)), tie


def check_codes(words, expected, tie) -> list[str]:
    if words.shape != expected.shape:
        return [f"codes shape {words.shape}, expected {expected.shape}"]
    wrong = np.flatnonzero((words != expected).any(axis=1) & ~tie)
    return [f"{wrong.size} rows hash differently, first row {wrong[0]}"] if wrong.size else []


# ---------------------------------------------------------------------- search

def distances(index_words: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Hamming distance of every index row to one query."""
    xor = np.ascontiguousarray(index_words ^ query_words, dtype="<u8")
    return POPCOUNT16[xor.view("<u2")].sum(axis=1, dtype=np.int64)


def ranked(dists: np.ndarray, ids: np.ndarray, keep: np.ndarray) -> list[tuple[int, int]]:
    """(id, distance) of the kept rows, ordered by (distance, id)."""
    rows = np.flatnonzero(keep)
    key = dists[rows] * (int(ids.max()) + 1) + ids[rows]
    rows = rows[np.argsort(key, kind="stable")]
    return list(zip(ids[rows].tolist(), dists[rows].tolist()))


def expected_topk(dists, ids, k):
    cut = np.partition(dists, min(k, dists.size) - 1)[min(k, dists.size) - 1]
    return ranked(dists, ids, dists <= cut)[:k]


def expected_radius(dists, ids, radius):
    return ranked(dists, ids, dists <= radius)


def check_hits(got, expected, what: str) -> list[str]:
    if list(got) == expected:
        return []
    for pos, (g, e) in enumerate(zip(got, expected)):
        if tuple(g) != tuple(e):
            return [f"{what}: hit {pos} is {tuple(g)}, expected {tuple(e)}"]
    return [f"{what}: {len(got)} hits, expected {len(expected)}"]


# ------------------------------------------------------------------ evaluation

def _distance_block(words, rows):
    xor = np.ascontiguousarray(words[rows, None, :] ^ words[None, :, :], dtype="<u8")
    return POPCOUNT16[xor.view("<u2")].sum(axis=2, dtype=np.int64)


def euclid_neighbours(values: np.ndarray, rows: np.ndarray, g: int) -> np.ndarray:
    """Boolean relevance matrix: the g nearest other rows, ties by row id."""
    sq = np.einsum("ij,ij->i", values, values)
    gram = sq[rows, None] + sq[None, :] - 2.0 * values[rows] @ values.T
    gram[np.arange(rows.size), rows] = np.inf
    # A bound on the Gram form's rounding error in squared distance.
    tol = 1e-12 * (sq[rows, None] + sq.max()) + 1e-12
    cut = np.partition(gram, g - 1, axis=1)[:, g - 1:g]
    relevant = np.zeros(gram.shape, dtype=bool)
    for qi, q in enumerate(rows):
        cand = np.flatnonzero(gram[qi] <= cut[qi] + 2 * tol[qi])
        cand = cand[cand != q]
        exact = np.linalg.norm(values[cand] - values[q], axis=1)
        relevant[qi, cand[np.lexsort((cand, exact))[:g]]] = True
    return relevant


def expected_pr(words, n_bits, relevance, block=256) -> np.ndarray:
    """PR table rows (radius, recall, precision, mean_retrieved) with every
    row a query against all others; relevance(rows) gives a boolean matrix."""
    n = words.shape[0]
    width = n_bits + 2  # bin n_bits + 1 holds each query's own row
    n_ret = np.zeros((n, n_bits + 1), dtype=np.int64)
    n_rel = np.zeros((n, n_bits + 1), dtype=np.int64)
    rel_sizes = np.zeros(n, dtype=np.int64)
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        dist = _distance_block(words, rows)
        dist[np.arange(rows.size), rows] = n_bits + 1
        rel = relevance(rows)
        rel[np.arange(rows.size), rows] = False
        flat = (np.arange(rows.size)[:, None] * width + dist).ravel()
        size = rows.size * width
        n_ret[rows] = np.bincount(flat, minlength=size).reshape(-1, width)[:, :-1].cumsum(1)
        n_rel[rows] = np.bincount(flat[rel.ravel()], minlength=size).reshape(-1, width)[:, :-1].cumsum(1)
        rel_sizes[rows] = rel.sum(axis=1)
    ret = n_ret.astype(np.float64)
    precision = np.where(ret > 0, n_rel / np.maximum(ret, 1.0), 1.0)
    recall = n_rel / rel_sizes[:, None]
    return np.column_stack([np.arange(n_bits + 1), recall.mean(axis=0),
                            precision.mean(axis=0), ret.mean(axis=0)])


def pr_auc(table: np.ndarray) -> float:
    """Trapezoid over the first point of each distinct recall, from recall 0."""
    points = []
    for _, recall, precision, _ in table:
        if not points or recall > points[-1][0]:
            points.append((recall, precision))
    if points[0][0] > 0.0:
        points.insert(0, (0.0, points[0][1]))
    return float(sum((r1 - r0) * (p0 + p1) / 2.0
                     for (r0, p0), (r1, p1) in zip(points, points[1:])))


def check_pr(table, auc, expected) -> list[str]:
    problems = []
    if table.shape != expected.shape:
        return [f"PR table shape {table.shape}, expected {expected.shape}"]
    bad = np.argwhere(np.abs(table - expected) > PR_TOL)
    if bad.size:
        r, c = bad[0]
        problems.append(f"PR row {r} column {c} is {table[r, c]!r}, "
                        f"expected {expected[r, c]!r}")
    if abs(auc - pr_auc(expected)) > AUC_TOL:
        problems.append(f"auc={auc!r}, expected {pr_auc(expected)!r}")
    return problems


def check_pr_properties(table, n) -> list[str]:
    """Recall never falls as the radius grows and reaches 1 at radius k,
    where every other row is retrieved."""
    problems = []
    if np.any(np.diff(table[:, 1]) < 0):
        problems.append("recall falls as the radius grows")
    if table[-1, 1] != 1.0:
        problems.append(f"recall at radius k is {table[-1, 1]!r}, not 1")
    if table[-1, 3] != n - 1:
        problems.append(f"mean_retrieved at radius k is {table[-1, 3]!r}, not {n - 1}")
    return problems


def class_base_rate(labels: np.ndarray) -> float:
    """Mean share of the other rows that carry a query's label."""
    counts = np.bincount(labels)[labels]
    return float(np.mean((counts - 1) / (labels.size - 1)))


def bit_means(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Share of codes with each bit set."""
    return np.array([((words[:, i // 64] >> np.uint64(i % 64)) & np.uint64(1)).mean()
                     for i in range(n_bits)])
