"""Packed binary hash codes.

A k-bit code is stored in ceil(k/64) unsigned 64-bit words, little-endian
within words: bit i lives in word i // 64 at bit position i % 64. Trailing
pad bits of the last word are always zero, so word-level XOR + popcount
gives exact Hamming distances. check_words states that rule once, for
every edge that takes packed codes.
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


def check_words(words, n_bits) -> tuple[np.ndarray, int]:
    """The one packed-code rule: (words as a uint64 matrix, n_bits as an int).

    n_bits is a count of at least 1, words an N x words_per_code(n_bits)
    matrix whose pad bits are all zero (a set one gives wrong distances).
    """
    n_bits = int(check_count("n_bits", n_bits))
    if n_bits < 1:
        raise ShapeError(f"codes need at least 1 bit, got {n_bits}")
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2 or words.shape[1] != words_per_code(n_bits):
        raise ShapeError(f"words must be N x {words_per_code(n_bits)} for "
                         f"{n_bits}-bit codes, got shape {words.shape}")
    rem = n_bits % WORD_BITS
    if rem and np.any(words[:, -1] >> np.uint64(rem)):
        raise DomainError(f"a code has set pad bits beyond bit {n_bits}")
    return words, n_bits


@dataclass(frozen=True)
class HashCode:
    """A fixed-length binary code packed into uint64 words."""

    n_bits: int
    words: np.ndarray = field(compare=False)

    def __post_init__(self):
        words = np.array(self.words, dtype=np.uint64)  # a copy: __hash__ reads it
        _, n_bits = check_words(words[None], self.n_bits)
        words.flags.writeable = False
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "n_bits", n_bits)

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
        n_words = words_per_code(int(check_count("n_bits", n_bits)))
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
