"""Golden bytes: sha256 digests of trained models, codes, R/J histories and
PR tables.

Each case trains a small seeded model and hashes three outputs: the saved
model file, the packed codes from encode_matrix, and the per-iteration
history written with 17 significant digits (as `hdhash train` prints it).
The digests were recorded before any training kernel was rewritten, so a
kernel change that moves a single bit of any output fails here. A digest
must never be re-pinned to make a rewrite pass.

eps_sae = eps_rbm = 0 with one allowed repeat makes every interior
iteration re-run both stages, so the repeat passes are covered too.

The PR cases run `hdhash eval-pr` on seeded codes made by random
projections of clustered features, so they are spread out and keep the
class and distance structure (unlike the few distinct codes the small
trained models give), and pin the PR-CSV bytes and the printed auc= value.

The search cases pin topk/radius_search results and `hdhash query` stdout
over tie-heavy indexes, and the Euclidean cases pin ground_truth matrices
on features with exact duplicate rows; both were recorded before the
selection kernels were rewritten.
"""
import hashlib
import re

import numpy as np
import pytest

from hdhash.cli import main
from hdhash.codes import HashCode, pack_bits
from hdhash.features import FeatureMatrix, normalize, save_packed
from hdhash.pipeline import TrainingConfig, encode_matrix, save_model, train
from hdhash.search import (
    HammingIndex,
    ground_truth,
    radius_search,
    topk,
    write_codes_file,
)

GOLDEN = {
    "cd1-batch-paper": dict(
        config=dict(cd_steps=1, decorrelation_mode="batch", init_mode="paper"),
        model="eb2a272e17279954c4a7dc7de72d2b079dcb1b865b1a462891450673eb1e4939",
        codes="c4d67abff8da198eb59f27a850e7ea86c6fb96ad7f9038d3901f695739569ea3",
        history="36186c0789ec041e9a285b8c8d7474f9d0857ba1fad3fa2549e46bd0f1586596",
    ),
    "cd3-per_sample-symmetric": dict(
        config=dict(cd_steps=3, decorrelation_mode="per_sample",
                    init_mode="symmetric"),
        model="dc4f1c59e306958fc0207b76f29ac5d381577918259077734cd5f0a190efaf53",
        codes="000fb779cfb23f508ea6827d7fd693b46d8e5636c92ccdcd50ab873d9094d97d",
        history="4c2741310404a9644f319f150247bbe2f4c79d03a75e2815037eac67a7d0e789",
    ),
    "cd1-per_sample-paper": dict(
        config=dict(cd_steps=1, decorrelation_mode="per_sample", init_mode="paper"),
        model="eb006dab56a5862807025630c93a80e82642957d0f2f45a829b0af701595879f",
        codes="1e3cbc58a46e54ef58ff4654da6bc196577b915b11d953c0767b06853eeb87ed",
        history="04be7bec613e4f6426bfdb6d7809c892ffcaeea478d3a6163758311b4df87771",
    ),
    "cd3-batch-symmetric-96b": dict(
        config=dict(cd_steps=3, decorrelation_mode="batch", init_mode="symmetric",
                    code_bits=96),
        model="4b45fa4d24fbe766658b1ab2a6943d11e0f48d32e81d6aa7f039ea9039e2d421",
        codes="05e91f07369b7c06a471084caeedfa296ed1de411aed64659eaa9e0dd8e8510b",
        history="c672d1e632af243ec15a5967340fcdd02c9f63caf7e037a43562b09fb4f6b50d",
    ),
    "cd5-batch-paper-32b-wide": dict(
        config=dict(cd_steps=5, decorrelation_mode="batch", init_mode="paper",
                    layer_dims=(16, 24), code_bits=32, epochs=2, batch_size=100),
        model="43b42bbddb141ce59fb1edf16dba67e3bf777b1b5518d5bb15521bf235400898",
        codes="155e437b946ac82ae591ff382b8d19efda9397b2282672dbabd91ec31ce8a651",
        history="de9c60077b8b14903c7578c059284b9ff1fabd30cef051a8968e295f7f27939b",
    ),
    # Zero penalty weights: the balance and decorrelation terms drop out.
    "cd1-batch-paper-lam0-mu0": dict(
        config=dict(lam=0.0, mu=0.0),
        model="41b72f1d9e3fc5edf813457898dc4694dee33e0d39a368738da0b024550fcf07",
        codes="6c952a5d012bf198a74c6c4c646bd7da15a879ce8fe6a780fb12c33d4de7af19",
        history="028f7dd6a29e6566fb6d4fa792d21acfb882b9f284b2be466685ef8d0e4de93e",
    ),
    "cd1-per_sample-paper-lam0": dict(
        config=dict(lam=0.0, mu=0.1, decorrelation_mode="per_sample"),
        model="188e12f3bb612f29b51facbc72c27c355e8c1344f63941134b2106ba3eb5d020",
        codes="6c952a5d012bf198a74c6c4c646bd7da15a879ce8fe6a780fb12c33d4de7af19",
        history="6818fa188a800dd7ef4992fe06dfe4795a4e4c9c214a86a4566c119991e854db",
    ),
}


def golden_data(seed=7, rows=240, dim=16, classes=4):
    gen = np.random.default_rng(seed)
    centres = gen.normal(0.0, 2.0, size=(classes, dim))
    labels = gen.integers(0, classes, size=rows)
    values = centres[labels] + gen.normal(size=(rows, dim))
    return normalize(FeatureMatrix(values, labels))


def golden_config(**overrides):
    base = dict(layer_dims=(16, 12, 8), code_bits=8, epochs=4, batch_size=40,
                seed=3, outer_iters=3, eps_sae=0.0, eps_rbm=0.0,
                max_repeats_per_iter=1)
    base.update(overrides)
    return TrainingConfig(**base)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def digests(config: TrainingConfig, tmp_path) -> dict[str, str]:
    data = golden_data()
    model, history = train(config, data)
    path = tmp_path / "model.hdhm"
    save_model(model, path)
    codes = encode_matrix(model, data.values).astype("<u8")
    lines = "".join(
        f"{rec.iteration} {rec.sae_objective:.17g} {rec.rbm_objective:.17g} "
        f"{rec.sae_repeats} {rec.rbm_repeats}\n"
        for rec in history
    )
    return {"model": _sha(path.read_bytes()), "codes": _sha(codes.tobytes()),
            "history": _sha(lines.encode("ascii"))}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    case = GOLDEN[name]
    got = digests(golden_config(**case["config"]), tmp_path)
    assert got == {key: case[key] for key in ("model", "codes", "history")}


GOLDEN_PR = {
    "label-70b": dict(
        bits=70, args=("--mode", "label"),
        pr_csv="768ec3ea6c67496cb12d084a2f3213623868bcf63f5a4f39d0143056e6d175c8",
        auc="f7f29f2189036e587f8e41ebe55b98824903c93454247db04be93c9530c01bd5",
    ),
    "label-96b": dict(
        bits=96, args=("--mode", "label"),
        pr_csv="a04938b206e2ea5b39efd9700cefc219e1d6f2d78d0619c4be05615df288bafa",
        auc="ffdf1b427e48806f5bd1958a0ad158d0b801a43b0afece9c462a18e00d53720f",
    ),
    "euclidean-70b": dict(
        bits=70, args=("--mode", "euclidean", "--gt-n", "25"),
        pr_csv="843d43ba10b43e13b6401e7b01af3144a8c4d93b24e9cf1c5a2e8aa1cd726c50",
        auc="55b7d6ad8f898713359bb413da17dc5cd4c417d7fbc568ba82c14e3026e95da4",
    ),
    "euclidean-96b": dict(
        bits=96, args=("--mode", "euclidean", "--gt-n", "10"),
        pr_csv="26f9113f4f086224d5fa6c6570665bebdcb7338256f1ebfc05024b188476310b",
        auc="31f6b761e289051fec2306573df469a982c8be036fb3df505eaf6c2ae95dce86",
    ),
}


def golden_pr_inputs(tmp_path, n_bits, seed=5, rows=300, dim=12, classes=5):
    """A labeled packed features file and the sign codes of n_bits random
    projections of its rows."""
    gen = np.random.default_rng(seed)
    centres = gen.normal(0.0, 2.0, size=(classes, dim))
    labels = gen.integers(0, classes, size=rows)
    values = centres[labels] + gen.normal(size=(rows, dim))
    bits = (values @ gen.normal(size=(dim, n_bits)) >= 0).astype(np.uint8)
    features, codes = tmp_path / "f.hdh1", tmp_path / "c.hdhc"
    save_packed(FeatureMatrix(values, labels), features)
    write_codes_file(codes, pack_bits(bits), n_bits)
    return features, codes


@pytest.mark.parametrize("name", sorted(GOLDEN_PR))
def test_golden_pr_table(name, tmp_path, capsys):
    case = GOLDEN_PR[name]
    features, codes = golden_pr_inputs(tmp_path, case["bits"])
    out = tmp_path / "pr.csv"
    argv = ["eval-pr", "--codes", str(codes), "--features", str(features),
            *case["args"], "--out", str(out)]
    assert main(argv) == 0
    auc_text = re.search(r"\bauc=(\S+)", capsys.readouterr().out).group(1)
    got = {"pr_csv": _sha(out.read_bytes()), "auc": _sha(auc_text.encode("ascii"))}
    assert got == {key: case[key] for key in ("pr_csv", "auc")}


# Search and selection. The index draws most codes from a handful of
# distinct codes, so every query meets exact duplicates and long runs of
# equal distances, and the id tie-break decides most ranks. The cut of
# k = 100 falls inside such a run, and k = N + 5 asks for more codes than
# the index holds.
GOLDEN_SEARCH = {
    "32b-increasing": dict(
        bits=32, permuted=False,
        results="9172d68823af6d1a0e8be6c8ef5c699a7a37b8b8121261f87cbe378baf264f0e",
    ),
    "32b-permuted": dict(
        bits=32, permuted=True,
        results="aac58ec2f137e725f48ef77e6a84072245371beef76dd634c6f0672110f79882",
    ),
    "64b-increasing": dict(
        bits=64, permuted=False,
        results="0ec5e73e237ce8093cc0a8e4c9259fdf50bbb9c268a0aa5b14f88d3382f9403f",
    ),
    "64b-permuted": dict(
        bits=64, permuted=True,
        results="783c352a2ac51ec4a8e8e76c0ee05b9e8a9f9f60d9c4f6caefaf423bbee568cf",
    ),
    "96b-increasing": dict(
        bits=96, permuted=False,
        results="f4f6e7c6d319c17b1a0c56c23af168ed89cb27433f452c5f862599dcc24b7dff",
    ),
    "96b-permuted": dict(
        bits=96, permuted=True,
        results="48054527913a16bc42f031c6db045ccdd3f55a5ea1e2553ad49e5d49fcd2a6b4",
    ),
    "130b-increasing": dict(
        bits=130, permuted=False,
        results="6d67dc504ff1538940269b8117ede2c89962ef4620f6106b874c4bdf912785aa",
    ),
    "130b-permuted": dict(
        bits=130, permuted=True,
        results="44c28cec1a68e892a60fe983aa3c34e9491797b68a60bc4c688c3047a507075c",
    ),
}

GOLDEN_QUERY = {
    32: "5964880149337a3b784b8f9e97a21dc4412d72df841fa1e42842cc4fa58e20bb",
    64: "62486e5ce01bbfc21b496f0554ba8d804c044d73e119a0cbd565491510b75948",
    96: "6b5fdf6b22e45c063c9d96bdb3c5dd5b7c5a7ff9bff5b6e0ba7992e2ac3b7513",
    130: "d5a389307451c99c24c73ddd8f7ac068beefec2a9f27788de64df7931592fa12",
}

SEARCH_ROWS = 300


def tie_heavy_codes(n_bits, seed=13, rows=SEARCH_ROWS, distinct=6):
    """Packed codes and query bits: each row copies one of a few base codes,
    and one row in four then flips each bit with probability 1/16."""
    gen = np.random.default_rng(seed + n_bits)
    base = (gen.random((distinct, n_bits)) < 0.5).astype(np.uint8)
    bits = base[gen.integers(0, distinct, size=rows)]
    noisy = gen.random(rows) < 0.25
    flips = (gen.random((rows, n_bits)) < 1 / 16) & noisy[:, None]
    bits = bits ^ flips.astype(np.uint8)
    queries = np.vstack([bits[[0, 7, 150]], base[:2],
                         (gen.random((2, n_bits)) < 0.5).astype(np.uint8)])
    return pack_bits(bits), queries


def search_lines(n_bits, permuted):
    words, queries = tie_heavy_codes(n_bits)
    ids = np.arange(SEARCH_ROWS, dtype=np.int64) * 3 + 11
    if permuted:
        ids = np.random.default_rng(n_bits).permutation(ids)
    index = HammingIndex(words, n_bits, ids)
    lines = []
    for qi, qbits in enumerate(queries):
        query = HashCode.from_bits(qbits)
        for k in (1, 100, SEARCH_ROWS + 5):
            lines += [f"topk {qi} {k} {i} {d}\n" for i, d in topk(index, query, k)]
        for radius in (0, n_bits // 16, n_bits // 4, n_bits):
            lines += [f"radius {qi} {radius} {i} {d}\n"
                      for i, d in radius_search(index, query, radius)]
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
def test_golden_search(name):
    case = GOLDEN_SEARCH[name]
    text = search_lines(case["bits"], case["permuted"])
    assert _sha(text.encode("ascii")) == case["results"]


@pytest.mark.parametrize("n_bits", sorted(GOLDEN_QUERY))
def test_golden_query_stdout(n_bits, tmp_path, capsys):
    words, queries = tie_heavy_codes(n_bits)
    path = tmp_path / "c.hdhc"
    write_codes_file(path, words, n_bits)
    for qbits in queries:
        for k in (1, 100, SEARCH_ROWS + 5):
            argv = ["query", "--codes", str(path),
                    "--q", HashCode.from_bits(qbits).to_hex(), "--k", str(k)]
            assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == GOLDEN_QUERY[n_bits]


# Euclidean ground truth on integer grid points: rows repeat exactly and
# many distances tie, so ties fall at the gt_n boundary; gt_n = 79, 80 and
# 100 reach or pass the 80 rows. Query rows repeat and come out of order.
GOLDEN_GT = {
    1: "b9bf471bac6004ab295ea67f06ec135ea1552a91160b7e6ea623eb1990196a30",
    4: "560f7c409e81767c899f65fea0b15432fb539907ad0b179f6c55a8a697ecf4c3",
    10: "d988442a4ca406b3741c4d527367b82aa1b25875abc9d1c19417a30a64b7169b",
    79: "a51ac858729a6a311a7bf11eb071eda8f0869328dfdbe3d6925963be992c21f4",
    80: "a51ac858729a6a311a7bf11eb071eda8f0869328dfdbe3d6925963be992c21f4",
    100: "a51ac858729a6a311a7bf11eb071eda8f0869328dfdbe3d6925963be992c21f4",
}


def grid_features(seed=17, rows=80, dim=3):
    gen = np.random.default_rng(seed)
    return FeatureMatrix(gen.integers(0, 3, size=(rows, dim)).astype(np.float64))


@pytest.mark.parametrize("n_gt", sorted(GOLDEN_GT))
def test_golden_euclidean_ground_truth(n_gt):
    data = grid_features()
    query_rows = np.concatenate([np.arange(data.rows), [5, 5, 0, 79]])
    truth = ground_truth(data, query_rows, "euclidean", n_gt)
    assert truth.dtype == bool
    assert _sha(np.packbits(truth).tobytes()) == GOLDEN_GT[n_gt]
