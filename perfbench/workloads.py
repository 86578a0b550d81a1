"""Seeded inputs for the three benchmark workloads.

Each workload is sized so that a different set of hdhash layers does most
of the work (see README.md). make_inputs writes every file a round needs
into a directory and returns the arrays the checkers compare against; the
same seed always gives the same bytes.

Feature values are float32-representable. The packed format stores float32
anyway; in CSV it keeps min/max normalization exact, where float64 values
can map a column maximum just above 1, which `hdhash train` refuses.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOPK_K = 100


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int             # labeled rows: training set, eval set, main index
    dim: int
    classes: int
    layer_dims: tuple
    code_bits: int
    epochs: int
    cd_steps: int
    max_repeats: int
    radius: int           # fixed radius of the library radius_search
    gt_n: int             # Euclidean ground-truth neighbours of eval-pr
    heldout_rows: int = 0     # >0: Euclidean eval runs on a held-out file
    encode_rows: int = 0      # >0: encode a packed file of this many rows
    index_codes: int = 0      # size of the synthetic search index
    index_bits: int = 0
    encode_repeats: int = 3   # per round, of the encode behind encode_rows_per_s
    query_repeats: int = 10   # per round, of `hdhash query`
    topk_sweeps: int = 1      # per round, of search.topk over the query set
    radius_sweeps: int = 1    # per round, of search.radius_search


WORKLOADS = {
    w.name: w for w in (
        # The ROADMAP baseline model. The per-row Gibbs loop and the
        # autoencoder passes dominate; CSV parsing loads `features`.
        Workload("train-cd1", rows=4000, dim=128, classes=10,
                 layer_dims=(128, 64, 32), code_bits=32, epochs=40,
                 cd_steps=1, max_repeats=2, radius=2, gt_n=20,
                 heldout_rows=1000, index_codes=100_000, index_bits=32,
                 topk_sweeps=4, radius_sweeps=17),
        # Index-bound: a million seeded codes that no model produced, and a
        # large packed file hashed through a small model.
        Workload("search-index", rows=2000, dim=64, classes=10,
                 layer_dims=(64, 32), code_bits=32, epochs=20,
                 cd_steps=1, max_repeats=1, radius=6, gt_n=20,
                 encode_rows=200_000, index_codes=1_000_000, index_bits=64,
                 query_repeats=2, radius_sweeps=9),
        # Evaluation-bound: every row is a query in both eval modes, over
        # two-word 96-bit codes with pad bits, from a CD-3 RBM.
        Workload("eval-96b", rows=2400, dim=64, classes=20,
                 layer_dims=(64, 48), code_bits=96, epochs=24,
                 cd_steps=3, max_repeats=1, radius=8, gt_n=20,
                 index_codes=100_000, index_bits=96, encode_repeats=8,
                 topk_sweeps=3, radius_sweeps=7),
    )
}

BATCH_SIZE = 100
OUTER_ITERS = 3


def config_text(w: Workload, seed: int) -> str:
    # eps=0 makes every interior iteration run max_repeats extra passes,
    # so the amount of training work does not depend on the data.
    return "\n".join([
        "lambda=0.1", "mu=0.1", "beta=10", "alpha=0.01",
        "layer_dims=" + ",".join(str(d) for d in w.layer_dims),
        f"code_bits={w.code_bits}", f"outer_iters={OUTER_ITERS}",
        "eps_sae=0", "eps_rbm=0", f"epochs={w.epochs}",
        f"batch_size={BATCH_SIZE}", f"cd_steps={w.cd_steps}", f"seed={seed}",
        "decorrelation_mode=batch", "init_mode=paper",
        f"max_repeats_per_iter={w.max_repeats}",
    ]) + "\n"


def _clusters(rng, centres, n):
    labels = rng.integers(0, centres.shape[0], n)
    values = centres[labels] + rng.normal(0.0, 1.0, (n, centres.shape[1]))
    return values.astype(np.float32).astype(np.float64), labels


def _write_csv(path: Path, values, labels) -> None:
    # repr of a float32-representable double parses back to the same value.
    lines = [",".join(map(repr, row)) + f",{lab}"
             for row, lab in zip(values.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_packed(path: Path, values) -> None:
    header = b"HDH1" + np.array(values.shape, dtype="<u4").tobytes() + b"\x00"
    path.write_bytes(header + values.astype("<f4").tobytes())


def _random_words(rng, count: int, n_bits: int) -> np.ndarray:
    """count uniform codes of n_bits with zero pad bits."""
    n_words = (n_bits + 63) // 64
    words = rng.integers(0, 2 ** 64, (count, n_words), dtype=np.uint64, endpoint=False)
    if n_bits % 64:
        words[:, -1] &= np.uint64((1 << (n_bits % 64)) - 1)
    return words


def _flip(words: np.ndarray, rows, bits) -> None:
    words[rows, bits // 64] ^= np.uint64(1) << (bits % 64).astype(np.uint64)


@dataclass
class SyntheticIndex:
    """Seeded codes that no model produced, so training cannot move them."""

    words: np.ndarray
    centres: np.ndarray
    uniform_rows: np.ndarray


def synthetic_index(rng, n: int, n_bits: int) -> SyntheticIndex:
    """n codes: half in clusters of about 500 around random centres, each
    with 0-3 flipped bits (0 flips gives exact duplicates), half uniform."""
    n_clustered = n // 2
    centres = _random_words(rng, max(1, n // 1000), n_bits)
    words = centres[rng.integers(0, centres.shape[0], n_clustered)]
    flips = rng.integers(0, 4, n_clustered)
    bits = rng.integers(0, n_bits, (n_clustered, 3))
    for j in range(3):
        rows = np.flatnonzero(flips > j)
        _flip(words, rows, bits[rows, j])
    words = np.concatenate([words, _random_words(rng, n - n_clustered, n_bits)])
    order = rng.permutation(n)
    return SyntheticIndex(words[order], centres, np.flatnonzero(order >= n_clustered))


def write_codes(path: Path, words: np.ndarray, n_bits: int) -> None:
    header = b"HDHC" + np.array([words.shape[0], n_bits], dtype="<u4").tobytes()
    path.write_bytes(header + words.astype("<u8").tobytes())


@dataclass
class Inputs:
    """File paths of one workload plus the exact values written to them."""

    config: Path
    main: Path
    values: np.ndarray
    labels: np.ndarray
    euclid: Path
    euclid_values: np.ndarray
    encode: Path
    encode_values: np.ndarray
    index_codes: Path
    index: SyntheticIndex


def make_inputs(w: Workload, seed: int, directory: Path) -> Inputs:
    rng = np.random.default_rng([seed, 0x4844])
    centres = rng.normal(0.0, 2.0, (w.classes, w.dim))
    values, labels = _clusters(rng, centres, w.rows)
    directory.mkdir(parents=True, exist_ok=True)
    inp = Inputs(directory / "config.txt", directory / "main.csv", values, labels,
                 directory / "main.csv", values, directory / "main.csv", values,
                 directory / "index.hdhc", synthetic_index(rng, w.index_codes, w.index_bits))
    inp.config.write_text(config_text(w, seed), encoding="utf-8")
    _write_csv(inp.main, values, labels)
    if w.heldout_rows:
        inp.euclid = directory / "heldout.csv"
        inp.euclid_values, held_labels = _clusters(rng, centres, w.heldout_rows)
        _write_csv(inp.euclid, inp.euclid_values, held_labels)
    if w.encode_rows:
        inp.encode = directory / "encode.hdh1"
        inp.encode_values, _ = _clusters(rng, centres, w.encode_rows)
        _write_packed(inp.encode, inp.encode_values)
    write_codes(inp.index_codes, inp.index.words, w.index_bits)
    return inp


def make_queries(rng, index: SyntheticIndex, n_bits: int) -> np.ndarray:
    """48 queries: 10 cluster centres and 6 uniform codes of the index
    (members), 26 centres with 1, 2 or 3 flipped bits (near a cluster) and
    6 uniform codes (far from all clusters).

    The shares are fixed so that p50 and p90 fall inside groups of queries
    with similar hit counts, whatever the seed. By hits, ascending: 12 far
    or uniform members, then 6 three-flip, 12 two-flip and 8 one-flip near
    codes, then 10 centres; on a 32-bit index at radius 2 these groups have
    about 0, 15, 150, 280 and 390 hits, and p50 and p90 sit in the middle
    of the two-flip group and of the centres."""
    def centres(count):
        return index.centres[rng.integers(0, index.centres.shape[0], count)]

    flips = [3] * 6 + [2] * 12 + [1] * 8
    near = centres(len(flips))
    for row, count in enumerate(flips):
        for bit in rng.choice(n_bits, count, replace=False):
            _flip(near, row, bit)
    return np.concatenate([centres(10), index.words[rng.choice(index.uniform_rows, 6)],
                           near, _random_words(rng, 6, n_bits)])


def to_hex(words) -> str:
    """The CLI's query form: whole 64-bit words, most significant first."""
    return "".join(f"{int(v):016x}" for v in words[::-1])
