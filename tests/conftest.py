import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hdhash.features import FeatureMatrix


def two_cluster_dataset(seed=1234, n_train=200, n_query=50, dim=32, offset=2.0):
    """Two well-separated Gaussian clusters with class labels.

    Cluster means are +offset and -offset on every coordinate, unit variance.
    Returns (train, query) FeatureMatrix pairs with labels.
    """
    rng = np.random.default_rng(seed)
    half_t, half_q = n_train // 2, n_query // 2
    blocks, labels = [], []
    for sign, lab in ((offset, 0), (-offset, 1)):
        blocks.append(rng.normal(sign, 1.0, size=(half_t + half_q, dim)))
        labels.append(np.full(half_t + half_q, lab))
    values = np.vstack(blocks)
    labels = np.concatenate(labels)
    perm = rng.permutation(len(labels))
    values, labels = values[perm], labels[perm]
    train = FeatureMatrix(values[:n_train], labels[:n_train])
    query = FeatureMatrix(values[n_train:n_train + n_query],
                          labels[n_train:n_train + n_query])
    return train, query


# Sixteen characters that int(.., 16) reads as 15 but are not sixteen hex digits.
NOT_HEX = ["0x0000000000000f", "+00000000000000f", " 00000000000000f",
           "00000000000000\u0661f"]


def write_raw_codes(path, words, n_bits):
    """Write a codes file byte by byte, unchecked, as a foreign writer might."""
    words = np.asarray(words, dtype="<u8")
    path.write_bytes(b"HDHC" + struct.pack("<II", words.shape[0], n_bits)
                     + words.tobytes())


@pytest.fixture(scope="session")
def cluster_data():
    return two_cluster_dataset()
