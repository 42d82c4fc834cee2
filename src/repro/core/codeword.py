"""XOR codeword arithmetic.

"In our implementations, the codeword is the bitwise exclusive-or of the
words in the region.  Thus the i'th bit of the codeword represents the
parity of the i'th bit of each word in the region." (Section 3)

Words are 32-bit little-endian.  Two properties make maintenance cheap:

* folding is associative/commutative, so a region's codeword can be
  updated incrementally from just the old and new images of the bytes that
  changed: ``cw ^= fold(old) ^ fold(new)``;
* bytes outside the updated range contribute identically before and after,
  so they can be treated as zero -- :func:`positioned_fold` places the
  changed bytes at their offset within their word and pads with zeros,
  which keeps unaligned updates exact without reading neighbouring memory.
"""

from __future__ import annotations

import struct

import numpy as np

WORD = 4
#: Below this many bytes one integer XOR-halving (``HALVINGS``) beats
#: numpy's call overhead; the two cross near 1 KiB.  Public, with
#: ``HALVINGS``, for the read precheck, which inlines the fold.
INT_FOLD_LIMIT = 1024

CODEWORD_MASK = 0xFFFFFFFF


def _halvings(words: int) -> tuple[tuple[int, int], ...]:
    """``(shift, mask)`` steps that XOR-halve a ``words``-word integer
    (``words`` a power of two) down to one word."""
    steps = []
    bits = 32 * words
    while bits > 32:
        bits //= 2
        steps.append((bits, (1 << bits) - 1))
    return tuple(steps)


#: Per byte length below :data:`INT_FOLD_LIMIT`, the ``(shift, mask)``
#: steps that XOR-halve a little-endian integer of that length to a word:
#: those of its word count rounded up to a power of two (the words past
#: the data are zero, so they fold in for free).  Lengths share one step
#: tuple per power of two.
_STEPS = [_halvings(1 << k) for k in range((INT_FOLD_LIMIT // WORD).bit_length())]
HALVINGS = tuple(
    _STEPS[max(0, -(-length // WORD) - 1).bit_length()]
    for length in range(INT_FOLD_LIMIT)
)


def _fold_int(value: int, length: int) -> int:
    """XOR-fold a ``length``-byte little-endian integer to one word."""
    for shift, mask in HALVINGS[length]:
        value = (value >> shift) ^ (value & mask)
    return value


def fold_words(data: "bytes | bytearray | memoryview") -> int:
    """XOR-fold ``data`` as 32-bit little-endian words.

    Data whose length is not a multiple of four is zero-padded at the end,
    which matches how a region at the very end of the image is folded.
    Accepts any contiguous byte buffer (``bytes``, ``bytearray``,
    ``memoryview``).

    Below ``INT_FOLD_LIMIT`` bytes the buffer is read as one
    little-endian integer and XOR-halved to a word (a 64-byte region is
    four shift/xor steps); a ragged tail is the integer's top bytes, so it
    is zero-padded by construction.  Larger buffers reduce a zero-copy
    numpy view of the aligned prefix.
    """
    length = len(data)
    if length < INT_FOLD_LIMIT:
        return _fold_int(int.from_bytes(data, "little"), length)
    remainder = length % WORD
    aligned = length - remainder
    # Zero-copy view of the aligned prefix; `count` stops numpy from
    # reading the ragged tail.
    words = np.frombuffer(data, dtype="<u4", count=aligned // WORD)
    codeword = int(np.bitwise_xor.reduce(words))
    if remainder:
        tail = bytes(memoryview(data)[aligned:]) + b"\x00" * (WORD - remainder)
        codeword ^= struct.unpack("<I", tail)[0]
    return codeword


def positioned_fold(address: int, data: bytes) -> int:
    """Fold ``data`` as it sits in memory at ``address``.

    A byte at offset ``k`` within its 32-bit word contributes
    ``byte << (8 * k)`` to that word's value; shifting the data left by
    ``address % 4`` bytes reproduces that positioning, so the fold of an
    unaligned update is exact without touching unchanged neighbours.
    """
    lead = address % WORD
    length = lead + len(data)
    if length < INT_FOLD_LIMIT:
        return _fold_int(int.from_bytes(data, "little") << (8 * lead), length)
    if lead:
        data = b"\x00" * lead + bytes(data)
    return fold_words(data)


def update_delta(address: int, old: bytes, new: bytes) -> int:
    """The XOR that moves a codeword from ``old`` to ``new`` at ``address``:
    ``positioned_fold(address, old) ^ positioned_fold(address, new)``.

    Folding is linear over XOR, so the two equal-length images are XORed
    as integers and folded once.
    """
    lead = address % WORD
    length = lead + len(old)
    if length < INT_FOLD_LIMIT:
        value = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
        return _fold_int(value << (8 * lead), length)
    return positioned_fold(address, old) ^ positioned_fold(address, new)


def word_count(length: int) -> int:
    """Number of 32-bit words covering ``length`` bytes."""
    return (length + WORD - 1) // WORD
