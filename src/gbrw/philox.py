"""Philox4x64-10 streams under exact 64-bit keys, drawn in blocks.

Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) is a counter-based generator: the words of a
stream are a keyed bijection of the counter 1, 2, 3, ... (numpy's
convention; four words per counter value), so any stream is computed
without the state of any other.  Every gbrw stream is keyed by two 64-bit
words (a master seed and a stream id, each taken mod 2**64) and built by
``philox``, which hands numpy the key as an exact uint64 array.

``raw_words`` returns the first words of a block of consecutive stream ids.
Short streams in large blocks are computed here, all at once: the ten
rounds are plain 64-bit integer arithmetic over the block's keys, bit for
bit numpy's words.  Every other block is served by numpy's C generator,
re-keyed for each row through its ``state``, which costs less than a new
generator.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Philox4x64 constants: the round multipliers of counter words 0 and 2, and
# the Weyl increments of key words 0 and 1, as columns over (rows, counters)
_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_MULT_HI = _MULT >> np.uint64(32)
_MULT_LO = _MULT & np.uint64(0xFFFFFFFF)
_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_ROUNDS = 10

#: Blocks with at most this many words per stream, and at least
#: ``VECTOR_MIN_ROWS`` streams, take the vectorized rounds.  On a 2-CPU
#: x86-64 machine with numpy 2.4, their time over the C generator's was
#: 1.1-1.5 at 48 rows, 0.9-1.0 at 64 rows and 0.1-0.35 at 550 rows, for 1
#: to 16 words per stream; at 100 rows of 1,563 words it was 6.5.
VECTOR_MAX_WORDS = 16
VECTOR_MIN_ROWS = 64


def stream_key(master: int, stream: int) -> np.ndarray:
    """The exact uint64 key pair (master mod 2**64, stream mod 2**64)."""
    return np.array([master & MASK64, stream & MASK64], dtype=np.uint64)


def philox(key: np.ndarray) -> np.random.Philox:
    """numpy's Philox4x64-10 at counter 0 under an exact uint64 key pair.

    numpy reads a key given as a list of Python ints through float64 once a
    word reaches 2**63, so distinct keys could share a stream; a uint64
    array is taken as it is.
    """
    key = np.asarray(key)
    if key.dtype != np.uint64 or key.shape != (2,):
        raise TypeError("a Philox key is a uint64 array of two words")
    return np.random.Philox(key=key)


def raw_words(master: int, first: int, rows: int, words: int) -> np.ndarray:
    """(rows, words) uint64: row r holds the first ``words`` raw 64-bit words
    of the stream keyed (master, first + r), stream ids taken mod 2**64."""
    if rows < 1 or words < 0:
        raise ValueError("need at least one row and a word count >= 0")
    if rows >= VECTOR_MIN_ROWS and words <= VECTOR_MAX_WORDS:
        keys = np.empty((2, rows), dtype=np.uint64)
        keys[0] = master & MASK64
        keys[1] = np.arange(rows, dtype=np.uint64)
        keys[1] += np.uint64(first & MASK64)  # wraps mod 2**64
        return philox_rounds(keys, words)
    out = np.empty((rows, words), dtype=np.uint64)
    generator = philox(stream_key(master, first))
    fresh = generator.state if rows > 1 else None  # counter 0, empty buffer
    out[0] = generator.random_raw(words)
    for r in range(1, rows):
        fresh["state"]["key"] = stream_key(master, first + r)
        generator.state = fresh
        out[r] = generator.random_raw(words)
    return out


def philox_rounds(keys: np.ndarray, words: int) -> np.ndarray:
    """(rows, words) uint64 raw words of the streams under the (2, rows)
    uint64 keys, computed with numpy arithmetic over all rows at once."""
    rows, counters = keys.shape[1], -(-words // 4)
    key = keys[:, :, None].copy()
    # counter words 0 and 2 (``even``) and 1 and 3 (``odd``) of every row's
    # counters 1..counters
    even = np.zeros((2, rows, counters), dtype=np.uint64)
    even[0] = np.arange(1, counters + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for r in range(_ROUNDS):
        if r:
            key += _BUMP
        # hi = the high words of the 128-bit products even * _MULT, from
        # 32-bit halves: no partial sum below exceeds 64 bits
        a_hi = even >> _HALF
        a_lo = even & _LOW32
        hi = a_lo * _MULT_LO
        hi >>= _HALF
        a_lo *= _MULT_HI
        hi += a_lo
        mid = hi & _LOW32
        hi >>= _HALF
        mid += a_hi * _MULT_LO
        mid >>= _HALF
        hi += mid
        a_hi *= _MULT_HI
        hi += a_hi
        # (c0, c1, c2, c3) -> (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        hi = hi[::-1]
        hi ^= odd
        hi ^= key
        even *= _MULT  # the low words
        even, odd = hi, even[::-1]
    out = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return out.reshape(rows, 4 * counters)[:, :words]
