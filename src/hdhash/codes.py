"""Packed binary hash codes.

A k-bit code is stored in ceil(k/64) unsigned 64-bit words, little-endian
within words: bit i lives in word i // 64 at bit position i % 64. Trailing
pad bits of the last word are always zero, so word-level XOR + popcount
gives exact Hamming distances.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .features import check_count

WORD_BITS = 64
_HEX_DIGITS = frozenset(string.hexdigits)


def words_per_code(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def _pad_mask(n_bits: int) -> int:
    """Mask of the valid bits in the last word."""
    rem = n_bits % WORD_BITS
    if rem == 0:
        return 0xFFFFFFFFFFFFFFFF
    return (1 << rem) - 1


def pad_bits_set(words: np.ndarray, n_bits: int) -> bool:
    """True if any row of an N x words_per_code(n_bits) word matrix has a
    set pad bit in its last word (such a row gives wrong distances)."""
    pad = ~_pad_mask(n_bits) & 0xFFFFFFFFFFFFFFFF
    return bool(pad) and bool(np.any(words[:, -1] & np.uint64(pad)))


@dataclass(frozen=True)
class HashCode:
    """A fixed-length binary code packed into uint64 words."""

    n_bits: int
    words: np.ndarray = field(compare=False)

    def __post_init__(self):
        if check_count("n_bits", self.n_bits) < 1:
            raise DomainError(f"code length must be >= 1, got {self.n_bits}")
        w = np.asarray(self.words, dtype=np.uint64)
        if w.shape != (words_per_code(self.n_bits),):
            raise ShapeError(
                f"expected {words_per_code(self.n_bits)} words for {self.n_bits} bits, "
                f"got shape {w.shape}"
            )
        if pad_bits_set(w.reshape(1, -1), self.n_bits):
            raise DomainError("trailing pad bits must be zero")
        w.flags.writeable = False
        object.__setattr__(self, "words", w)

    @classmethod
    def from_bits(cls, bits) -> "HashCode":
        """Pack a 0/1 vector; bits[i] becomes bit i of the code."""
        bits = np.asarray(bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ShapeError("bits must be a non-empty 1-D vector")
        if not np.all((bits == 0) | (bits == 1)):
            raise DomainError("bits must be 0 or 1")
        return cls(bits.size, pack_bits(bits.reshape(1, -1))[0])

    def to_hex(self) -> str:
        """Hex string of whole words, most-significant word first."""
        return "".join(f"{int(w):016x}" for w in self.words[::-1])

    @classmethod
    def from_hex(cls, text: str, n_bits: int) -> "HashCode":
        n_words = words_per_code(n_bits)
        if len(text) != 16 * n_words:
            raise DomainError(
                f"hex code for {n_bits} bits must have {16 * n_words} digits, "
                f"got {len(text)}"
            )
        # int(.., 16) alone would also take "0x", signs, spaces and non-ASCII digits.
        if not set(text) <= _HEX_DIGITS:
            raise DomainError(f"malformed hex code: {text!r}")
        vals = [int(text[16 * i: 16 * (i + 1)], 16) for i in range(n_words)]
        words = np.array(vals[::-1], dtype=np.uint64)
        return cls(n_bits, words)

    def __eq__(self, other):
        if not isinstance(other, HashCode):
            return NotImplemented
        return self.n_bits == other.n_bits and np.array_equal(self.words, other.words)

    def __hash__(self):
        return hash((self.n_bits, self.words.tobytes()))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an N x k 0/1 matrix into N x words_per_code(k) uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    n, k = bits.shape
    n_words = words_per_code(k)
    # packbits(bitorder="little") puts bits[8j+t] at position t of byte j,
    # and a little-endian uint64 view keeps byte j at byte offset j.
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((n, n_words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8").astype(np.uint64)


def hamming_words(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Popcount of XOR, summed over the word axis, as int64.

    a and b hold the same number of words on their last axis; the leading
    axes broadcast. The sum runs one word at a time into the int64 result,
    so no temporary holds every word at once.
    """
    total = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(np.int64)
    for j in range(1, max(a.shape[-1], b.shape[-1])):
        total += np.bitwise_count(a[..., j] ^ b[..., j])
    return total
