import hashlib
import warnings

import numpy as np
import pytest

from gbrw import philox
from gbrw.philox import (
    VECTOR_MAX_WORDS,
    VECTOR_MIN_ROWS,
    philox_rounds,
    raw_words,
    stream_key,
)
from gbrw.rules import RandomRule
from gbrw.simulate import SeedSpec

MASK64 = 2**64 - 1


def reference_words(master, stream, words):
    """numpy's C generator under the exact key (master, stream) mod 2**64."""
    return philox.philox(stream_key(master, stream)).random_raw(words)


def reference_words_signs(master, stream, n):
    """The documented draw: bit k of the words, least significant first, set
    for a -1 increment."""
    words = reference_words(master, stream, -(-n // 64))
    bits = [(int(words[k // 64]) >> (k % 64)) & 1 for k in range(n)]
    return np.array([-1 if b else 1 for b in bits], dtype=np.int8)


# ---------------------------------------------------------------------------
# The vectorized rounds against numpy's Philox, bit for bit

WORD_COUNTS = (*range(10), VECTOR_MAX_WORDS - 1, VECTOR_MAX_WORDS, VECTOR_MAX_WORDS + 1)


@pytest.mark.parametrize("words", WORD_COUNTS)
def test_philox_rounds_match_numpy(words):
    rng = np.random.default_rng(words)
    keys = rng.integers(0, 2**64, (2, 12), dtype=np.uint64, endpoint=False)
    keys[0, :3] = (0, 2**63, MASK64)  # masters at the ends and past 2**63
    keys[1, 3:6] = (MASK64 - 1, MASK64, 0)  # stream ids near 2**64
    got = philox_rounds(keys, words)
    assert got.dtype == np.uint64 and got.shape == (12, words)
    for r in range(12):
        expected = np.random.Philox(key=keys[:, r].copy()).random_raw(words)
        assert np.array_equal(got[r], expected)


@pytest.mark.parametrize("rows", (1, 2, VECTOR_MIN_ROWS - 1, VECTOR_MIN_ROWS,
                                  VECTOR_MIN_ROWS + 1))
@pytest.mark.parametrize("words", (0, 1, 5, VECTOR_MAX_WORDS, VECTOR_MAX_WORDS + 1))
def test_raw_words_match_numpy_on_both_paths(rows, words):
    # stream ids first .. first + rows - 1 wrap past 2**64
    for master, first in ((7, 0), (2**63 + 12345, MASK64 - 2), (-3, -1)):
        block = raw_words(master, first, rows, words)
        assert block.shape == (rows, words)
        for r in range(rows):
            assert np.array_equal(block[r], reference_words(master, first + r, words))


def test_the_c_generator_serves_every_block_past_the_crossover(monkeypatch):
    vectorized = []
    monkeypatch.setattr(philox, "philox_rounds",
                        lambda keys, words: vectorized.append(keys.shape[1]) or
                        np.zeros((keys.shape[1], words), dtype=np.uint64))
    for rows, words in ((VECTOR_MIN_ROWS - 1, 1), (VECTOR_MIN_ROWS, VECTOR_MAX_WORDS + 1),
                        (1, 0), (500, 1563)):
        block = raw_words(1, 0, rows, words)
        assert np.array_equal(block[-1], reference_words(1, rows - 1, words))
    assert vectorized == []
    raw_words(1, 0, VECTOR_MIN_ROWS, VECTOR_MAX_WORDS)
    assert vectorized == [VECTOR_MIN_ROWS]


def test_raw_words_validation():
    with pytest.raises(ValueError):
        raw_words(1, 0, 0, 4)
    with pytest.raises(ValueError):
        raw_words(1, 0, 3, -1)
    with pytest.raises(TypeError):
        philox.philox(np.array([1, 2], dtype=np.int64))


# ---------------------------------------------------------------------------
# Exact keys: every master and stream id mod 2**64 is its own stream


def test_streams_below_2_63_are_unchanged():
    # masters and ids below 2**63 key numpy's generator as they always did
    for master, replicate in ((0, 0), (20260809, 3), (2**63 - 1, 2**63 - 1)):
        old = np.random.Philox(key=[master, replicate]).random_raw(20)
        assert np.array_equal(SeedSpec(master, replicate).bit_generator().random_raw(20), old)
    xi = SeedSpec(20260809, 3).increments(1000)
    assert hashlib.sha256(xi.tobytes()).hexdigest() == (
        "ad5b8726b3a6421f582670b484b0cbae9cecce8ff3c637397531f90c2e7fd742")
    assert hashlib.sha256(RandomRule(7).step_table(6).signs.tobytes()).hexdigest() == (
        "3f19a65c470f4fccb4ef5b700d49773ac59790b9e874d98685ef77daed41829c")


def test_seeds_that_used_to_collide_are_distinct_and_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = [(SeedSpec(-5), SeedSpec(-7)), (SeedSpec(-1), SeedSpec(0)),
                 (SeedSpec(2**63 + 1), SeedSpec(2**63 + 999)),
                 (SeedSpec(5, -1), SeedSpec(5, -2))]
        for a, b in pairs:
            assert not np.array_equal(a.increments(256), b.increments(256))
        for seed in (-1, 2**63 + 1, 2**63 + 999):
            assert RandomRule(seed).step_table(6) != RandomRule(0).step_table(6)
        # masters and ids are taken mod 2**64
        assert np.array_equal(SeedSpec(-1, -2).increments(300),
                              SeedSpec(MASK64, MASK64 - 1).increments(300))
        assert np.array_equal(SeedSpec(-1, -2).increments(300),
                              reference_words_signs(MASK64, MASK64 - 1, 300))


def test_increment_block_rows_are_the_replicates_increments():
    for master in (11, -4, 2**64 + 11):
        for rows, n in ((1, 0), (3, 1), (VECTOR_MIN_ROWS + 3, 130), (5, 1100)):
            block = SeedSpec(master, 40).increment_block(rows, n)
            assert block.dtype == np.int8 and block.shape == (rows, n)
            for r in range(rows):
                assert np.array_equal(block[r], SeedSpec(master, 40 + r).increments(n))
                assert np.array_equal(block[r], reference_words_signs(master, 40 + r, n))
