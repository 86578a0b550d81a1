import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdhash.codes import HashCode, hamming_words, pack_bits, words_per_code
from hdhash.errors import ConfigError, DomainError, ShapeError

from conftest import NOT_HEX


def unpacked(words, n_bits):
    """The first n_bits bits of each row of little-endian uint64 words."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :n_bits]


class TestPacking:
    def test_bit_positions(self):
        # bit i lands in word i // 64 at position i % 64
        bits = np.zeros(70, dtype=np.uint8)
        bits[0] = 1
        bits[63] = 1
        bits[64] = 1
        code = HashCode.from_bits(bits)
        assert code.words.shape == (2,)
        assert int(code.words[0]) == (1 | (1 << 63))
        assert int(code.words[1]) == 1

    def test_round_trip_simple(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
        assert np.array_equal(unpacked(HashCode.from_bits(bits).words, 8), bits)

    def test_pad_bits_zero(self):
        code = HashCode.from_bits(np.ones(7, dtype=np.uint8))
        assert int(code.words[0]) == 0b1111111
        with pytest.raises(DomainError):
            HashCode(7, np.array([1 << 7], dtype=np.uint64))

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            HashCode.from_bits(np.array([0, 2, 1]))

    def test_bit_length_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="^n_bits: "):
            HashCode(8.0, np.zeros(1, dtype=np.uint64))

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, n_bits, seed):
        bits = (np.random.default_rng(seed).random(n_bits) < 0.5).astype(np.uint8)
        code = HashCode.from_bits(bits)
        assert code.n_bits == n_bits
        assert np.array_equal(unpacked(code.words, n_bits), bits)


class TestHex:
    def test_word_order_most_significant_first(self):
        words = np.array([0x1, 0xAB], dtype=np.uint64)
        code = HashCode(100, words)
        assert code.to_hex() == f"{0xAB:016x}" + f"{0x1:016x}"
        assert HashCode.from_hex(code.to_hex(), 100) == code
        assert HashCode.from_hex(code.to_hex().upper(), 100) == code

    def test_wrong_length(self):
        with pytest.raises(DomainError):
            HashCode.from_hex("ff", 16)

    def test_malformed(self):
        with pytest.raises(DomainError):
            HashCode.from_hex("zz" * 8, 64)

    @pytest.mark.parametrize("text", NOT_HEX)
    def test_only_hex_digits(self, text):
        with pytest.raises(DomainError):
            HashCode.from_hex(text, 64)

    @given(st.integers(min_value=1, max_value=130), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_hex_round_trip(self, n_bits, seed):
        bits = (np.random.default_rng(seed).random(n_bits) < 0.5).astype(np.uint8)
        code = HashCode.from_bits(bits)
        assert HashCode.from_hex(code.to_hex(), n_bits) == code


class TestMatrixPacking:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        bits = (rng.random((17, 90)) < 0.5).astype(np.uint8)
        words = pack_bits(bits)
        assert words.shape == (17, words_per_code(90))
        assert np.array_equal(unpacked(words, 90), bits)

    def test_hamming_words_matches_bit_count(self):
        rng = np.random.default_rng(1)
        a = (rng.random((5, 70)) < 0.5).astype(np.uint8)
        b = (rng.random((5, 70)) < 0.5).astype(np.uint8)
        wa, wb = pack_bits(a), pack_bits(b)
        expected = (a != b).sum(axis=1)
        assert np.array_equal(hamming_words(wa, wb), expected)

    def test_hamming_words_full_width_past_255(self):
        # 320 differing bits overflow any uint8 running sum.
        bits = (np.random.default_rng(2).random((1, 320)) < 0.5).astype(np.uint8)
        dist = hamming_words(pack_bits(bits), pack_bits(1 - bits))
        assert dist.dtype == np.int64
        assert dist.tolist() == [320]

    def test_hamming_words_broadcast_matches_pair_loop(self):
        # The N x N table built by broadcasting N x 1 x W against 1 x N x W.
        rng = np.random.default_rng(3)
        words = pack_bits((rng.random((9, 150)) < 0.5).astype(np.uint8))
        table = hamming_words(words[:, None, :], words[None, :, :])
        assert table.shape == (9, 9) and table.dtype == np.int64
        for i in range(9):
            for j in range(9):
                assert table[i, j] == sum(bin(int(x) ^ int(y)).count("1")
                                          for x, y in zip(words[i], words[j]))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            HashCode(8, np.zeros(2, dtype=np.uint64))
