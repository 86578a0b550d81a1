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
"""
import hashlib
import re

import numpy as np
import pytest

from hdhash.cli import main
from hdhash.codes import pack_bits
from hdhash.features import FeatureMatrix, normalize, save_packed
from hdhash.pipeline import TrainingConfig, encode_matrix, save_model, train
from hdhash.search import write_codes_file

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
