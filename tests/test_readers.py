"""Damaged files: every reader fails with an HdhError, never another exception.

Each property starts from a valid file written by hdhash itself (or, for the
CSV features and the config file, in the form hdhash reads) and damages it:
a truncation, one flipped byte, or, for model files, an edit of the payload
with its checksum recomputed so the edit reaches the parser. Text files are
not truncated: one cut at a line end stays valid.
"""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdhash.codes import pack_bits
from hdhash.errors import HdhError
from hdhash.features import FeatureMatrix, load_features, save_packed
from hdhash.pipeline import (
    TrainingConfig,
    config_lines,
    load_model,
    parse_config_file,
    save_model,
    train,
)
from hdhash.search import read_codes_file, write_codes_file

BINARY_READERS = {
    "model": load_model,
    "codes": read_codes_file,
    "packed": load_features,
}
READERS = {
    **BINARY_READERS,
    "csv": lambda path: load_features(path, "last"),
    "config": parse_config_file,
}

FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid file bytes of each kind, and a scratch path to read them from."""
    directory = tmp_path_factory.mktemp("readers")
    gen = np.random.default_rng(0)
    config = TrainingConfig(layer_dims=(4, 3), code_bits=5, epochs=2, batch_size=4,
                            seed=3, outer_iters=1, init_mode="symmetric")
    model, _ = train(config, FeatureMatrix(gen.uniform(-1, 1, (10, 4))))
    save_model(model, directory / "model")
    bits = (gen.random((3, 70)) < 0.5).astype(np.uint8)
    write_codes_file(directory / "codes", pack_bits(bits), 70)
    save_packed(FeatureMatrix(gen.normal(size=(3, 2)), [0, 1, 2]), directory / "packed")
    (directory / "csv").write_text("".join(
        f"{a:.6g},{b:.6g},{label}\n"
        for (a, b), label in zip(gen.normal(size=(3, 2)), [0, 1, 2])))
    (directory / "config").write_text("\n".join(config_lines(config, prefix="")) + "\n")
    blobs = {kind: (directory / kind).read_bytes() for kind in READERS}
    return blobs, directory / "probe"


def read(files, kind, blob):
    probe = files[1]
    probe.write_bytes(blob)
    return READERS[kind](probe)


def test_valid_files_read(files):
    for kind, blob in files[0].items():
        read(files, kind, blob)


@FUZZ
@given(kind=st.sampled_from(sorted(BINARY_READERS)), data=st.data())
def test_truncation_rejected(files, kind, data):
    blob = files[0][kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(HdhError):
        read(files, kind, blob[:cut])


@FUZZ
@given(kind=st.sampled_from(sorted(READERS)), data=st.data())
def test_byte_flip_read_or_rejected(files, kind, data):
    blob = bytearray(files[0][kind])
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
    if kind == "model":
        # the checksum covers the payload, the header fields are checked
        with pytest.raises(HdhError):
            read(files, kind, bytes(blob))
        return
    try:
        read(files, kind, bytes(blob))  # a flipped code or value may stay valid
    except HdhError:
        pass


@FUZZ
@given(data=st.data())
def test_model_payload_edit_read_or_rejected(files, data):
    blob = files[0]["model"]
    payload = bytearray(blob[12:])
    pos = data.draw(st.integers(0, len(payload) - 1), label="pos")
    if data.draw(st.booleans(), label="delete"):
        del payload[pos]
    else:
        payload[pos] = data.draw(st.integers(0, 255), label="byte")
    edited = blob[:8] + struct.pack("<I", zlib.crc32(payload)) + bytes(payload)
    try:
        read(files, "model", edited)
    except HdhError:
        pass
