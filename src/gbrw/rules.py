"""Recycling rules: adapted sign multipliers that bootstrap walk increments.

A rule is a constant psi0 in {-1,+1} together with a sign function psi_n on
{-1,+1}^n for every n >= 1.  Applied to increments xi it produces
eta_n = psi_{n-1}(xi_1, ..., xi_{n-1}) * xi_n, which replicates the law of
xi and so defines a second simple random walk on the same filtration.

A rule's whole-path kernel has two views, each one kernel per rule.
``multipliers`` checks the increments once and runs ``_multipliers``, the
rule's int8 kernel: psi_0, psi_1(xi_1), ..., psi_{n-1}(xi_1..xi_{n-1}),
which ``apply`` multiplies by the increments.  ``minus_words`` takes paths
packed 64 steps to a uint64 word (a set bit is a -1 increment) and sets
bit k-1 where the multiplier of step k is -1, which Monte Carlo counts by
popcount.  Both take a block of paths with time on the last axis.  A rule
implements one view and inherits the other (unpack, run, pack), or both
where each has its own fast form: the int8 accumulates of the running
product and the sign of the walk (a running -1 parity, int32 walk sums)
are the oracle of their word kernels, which, like those of the window and
prefix maxima and the prefix-max wrapper, shift, XOR and AND whole words.
Table-backed rules (explicit, random) start from a fallback kernel or a
running prefix mask and look up only the steps they tabulate, row by row.
``psi`` evaluates one multiplier and is the pointwise oracle of the kernels.
``step_table`` gives one step's truth table, the psi0 constant at step 1
and otherwise a rule's ``table_signs`` once the arity is checked against
the enumeration cap; ``step_family`` gives the beta coefficient family,
in closed form where one is known, and ``negatives_parity`` the parity of
a step's -1 count, which the single-orbit criterion reads, in closed form
for every builtin rule.  ``state_model`` gives, where one is known, an
automaton whose state after u_1..u_{k-1} fixes psi_{k-1}: the walk value
for rules of the sum, a few states for the products and maxima; the moment
scans count paths per state instead of expanding beta families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    BetaFamily,
    TruthTable,
    beta_to_truth,
    check_enum_cap,
    level_family,
    mask_levels,
    symmetric_profile_to_levels,
    truth_to_beta,
)
from .philox import philox, stream_key
from .setseq import SetSequence


def _as_signs(xi: Sequence[int]) -> np.ndarray:
    """int8 increments with time on the last axis, checked to be signs."""
    arr = np.asarray(xi, dtype=np.int8)
    if arr.ndim < 1:
        raise ValueError("increments need a time axis")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValueError("increments must be -1 or +1")
    return arr


def _signs(minus: np.ndarray) -> np.ndarray:
    """int8 signs, -1 where ``minus`` is set; reuses (and so consumes) the
    buffer of the fresh bool or 0/1 uint8 array it is given."""
    out = minus.view(np.int8)
    out *= -2
    out += 1
    return out


# ---------------------------------------------------------------------------
# Paths packed 64 steps to a word: bit j of word i is step 64 i + j + 1, and
# a set bit marks a -1 increment (or a -1 multiplier)

#: Steps the default ``minus_words`` unpacks at a time (at least one path).
#: Unpacked whole, a 2^20-step Monte Carlo block of ``symmetric:-1:0.5:1``
#: (n = 1000) peaked at 14 MB under tracemalloc; in chunks, at 1.2 MB.
UNPACKED_STEPS = 1 << 16

_ALL_ONES = np.uint64(2**64 - 1)
#: Entry k is a word with its lowest k bits set, k = 0..64.
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


def pack_minus(arr: np.ndarray, words: int | None = None) -> np.ndarray:
    """uint64 words of shape (..., words) with the bits of ``arr < 0`` for
    int8 increments of shape (..., n), zero past n; ``words`` defaults to
    ceil(n / 64)."""
    n = arr.shape[-1]
    minus = np.zeros(arr.shape[:-1] + (64 * (-(-n // 64) if words is None else words),),
                     dtype=bool)
    np.less(arr, 0, out=minus[..., :n])
    return np.packbits(minus, axis=-1, bitorder="little").view("<u8")


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """uint8 0/1 array of shape (..., n): the first n bits of the words."""
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=-1,
                         count=n, bitorder="little")


def unpack_signs(words: np.ndarray, n: int) -> np.ndarray:
    """int8 signs of shape (..., n), -1 where the bit is set."""
    return _signs(unpack_bits(words, n))


def clear_tail(words: np.ndarray, n: int) -> np.ndarray:
    """Clears, in place, the bits past n of words of shape (..., ceil(n/64))."""
    if n % 64:
        words[..., -1] &= _LOW_BITS[n % 64]
    return words


def _low_bits(count: np.ndarray, words: int) -> np.ndarray:
    """Words of shape (..., words) with the lowest ``count[...]`` bits set."""
    return _LOW_BITS[np.clip(count[..., None] - 64 * np.arange(words), 0, 64)]


def _shifted(words: np.ndarray, d: int) -> np.ndarray:
    """Bit i of the result is bit i - d of the words: the path moved d steps
    later, with set bits (-1 steps before the path) moved in."""
    q, r = divmod(d, 64)
    out = np.full(words.shape, _ALL_ONES)
    if q >= words.shape[-1]:
        return out
    src, dst = words[..., :words.shape[-1] - q], out[..., q:]
    if r == 0:
        dst[...] = src
    else:
        np.left_shift(src, r, out=dst)
        dst[..., 0] |= _LOW_BITS[r]
        dst[..., 1:] |= src[..., :-1] >> (64 - r)
    return out


def _leading_ones(words: np.ndarray, n: int) -> np.ndarray:
    """Index of the first clear bit of each row, at most n, as int64: the
    index of the first +1 increment along the last axis.

    The prefix max max(u_1..u_n) is -1 exactly for arities n = 1..this.
    """
    if words.shape[-1] == 0:
        return np.zeros(words.shape[:-1], dtype=np.int64)
    full = words == _ALL_ONES
    first = full.argmin(axis=-1)  # the first word with a clear bit
    x = np.take_along_axis(words, first[..., None], axis=-1)[..., 0]
    ones = 64 * first + np.bitwise_count(x & ~(x + 1))  # x's trailing ones
    return np.where(full.all(axis=-1), n, np.minimum(ones, n))


def running_sums(steps: np.ndarray) -> np.ndarray:
    """steps[..., 0] + ... + steps[..., i - 1] at every index i of the last
    axis: the walk X_{k-1} seen by the multiplier of step k.

    The sums are int32, or int64 for paths of 2**31 steps and more.
    """
    n = steps.shape[-1]
    out = np.zeros(steps.shape, dtype=np.int32 if n < 1 << 31 else np.int64)
    if n > 1:
        out[..., 1:] = steps[..., :-1]
        np.cumsum(out, axis=-1, out=out)
    return out


def minus_parity(arr: np.ndarray) -> np.ndarray:
    """uint8 parity of the count of -1 entries in arr[..., :j], at every
    j = 0..n of the last axis."""
    out = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,), dtype=np.uint8)
    np.bitwise_xor.accumulate((arr < 0).view(np.uint8), axis=-1, out=out[..., 1:])
    return out


def _parity_words(words: np.ndarray) -> np.ndarray:
    """Bit j set where bits 0..j-1 of the words hold an odd count: the prefix
    XOR inside each word, then the parity of every word before it."""
    out = words.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        out ^= out << shift
    # each word's parity (its top bit), then that of every word before it,
    # XORed in as all ones or all zeros; then the bit itself out again
    carry = out >> 63
    np.bitwise_xor.accumulate(carry, axis=-1, out=carry)
    out[..., 1:] ^= np.negative(carry[..., :-1])
    out ^= words
    return out


@functools.cache
def _walk_table(op: np.ufunc) -> np.ndarray:
    """uint8 table of 256 * 256 packed flags: entry 256 v + b holds bit j =
    op(X, 0) at the byte's j-th step, for the byte b of -1 steps (least
    significant bit first) entered with the walk at v - 128.  A byte moves
    the walk by at most 8, so its flags are those of the start clipped to
    [-8, 8]."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         bitorder="little").view(np.int8)
    inside = np.zeros((256, 8), dtype=np.int8)  # the walk before bit j, from 0
    np.cumsum(1 - 2 * bits[:, :-1], axis=1, out=inside[:, 1:])
    walk = np.arange(-8, 9, dtype=np.int8)[:, None, None] + inside
    flags = np.packbits(op(walk, 0), axis=-1, bitorder="little")
    return flags[np.clip(np.arange(-128, 128), -8, 8) + 8].ravel()


#: A one in every byte of a word, and 8 j in byte j.
_BYTE_ONES = np.uint64(0x0101010101010101)
_BYTE_OFFSETS = np.uint64(0x3830282018100800)


def _walk_words(words: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Words of the flags ``op(X_{k-1}, 0)``, bit k-1 for step k, of the walk
    whose -1 steps are the bits of the words."""
    # The walk at word starts sums the words' steps 64 - 2 popcount in int64
    # (exact at any length).  A word that starts 64 or more away from 0 does
    # not reach it, so its flags are all op(start, 0).  For each other word,
    # multiplying its byte popcounts by the ones puts the counts of bytes
    # 0..j in byte j (at most 64: no carries); byte j of 128 + start + 8 j -
    # 2 (the counts of bytes 0..j-1) is then the walk at byte j's start plus
    # 128, in [9, 247], so no byte carries into or borrows from the next.
    words = words.astype("<u8", copy=False)
    steps = np.bitwise_count(words).astype(np.int64)
    steps *= -2
    steps += 64
    start = np.zeros(steps.shape, dtype=np.int64)
    np.cumsum(steps[..., :-1], axis=-1, out=start[..., 1:])
    out = np.negative(op(start, 0).astype(np.uint64))
    near = np.flatnonzero(np.abs(start) < 64)
    packed = words.reshape(-1)[near].view(np.uint8)
    walk = (start.reshape(-1)[near] + 128).view(np.uint64) * _BYTE_ONES
    walk += _BYTE_OFFSETS
    walk -= (np.bitwise_count(packed).view("<u8") * _BYTE_ONES) << 9
    index = walk.astype("<u8", copy=False).view(np.uint8).astype(np.uint16)
    index <<= 8
    index |= packed
    out.reshape(-1)[near] = np.take(_walk_table(op), index).view("<u8")
    return out


def parity_signs(n: int) -> np.ndarray:
    """int8 table over the masks of n bits: -1 where the popcount is odd."""
    return _signs(mask_levels(n) & 1)


def sgn_truth_table(n: int, sgn0: int = -1) -> TruthTable:
    """Sign table of sgn(u_1 + ... + u_n) with the stated value at zero."""
    return LevyRule(sgn0).step_table(n + 1)


#: Largest automaton whose mixing depth is searched: its transition
#: probabilities after m <= 52 steps are multiples of 2^-m, exact in float64.
_DEPTH_STATES = 52


@dataclass(frozen=True)
class StateModel:
    """A rule's multipliers read off a deterministic automaton of the increments.

    ``initial`` is the state before u_1; ``minus[s]`` and ``plus[s]`` are the
    states after reading u = -1 and u = +1 in state s; ``out(k)`` gives
    psi_{k-1} per state as int8 signs (not to be written to), read in the
    state reached after u_1, ..., u_{k-1}.
    """

    initial: int
    minus: np.ndarray
    plus: np.ndarray
    out: Callable[[int], np.ndarray]

    @property
    def size(self) -> int:
        return len(self.minus)

    def depth(self) -> int | None:
        """Least m for which the state m steps on has the same law from every
        state, so that psi_{k-1} and psi_{l-1} are independent once l - k >= m;
        None when there is none.  Such an m is at most the number of states;
        it is searched for automata of at most ``_DEPTH_STATES`` states."""
        n = self.size
        if n > _DEPTH_STATES:
            return None
        step = np.zeros((n, n))
        np.add.at(step, (np.arange(n), self.minus), 0.5)
        np.add.at(step, (np.arange(n), self.plus), 0.5)
        law = np.eye(n)
        for m in range(n + 1):
            if (law == law[0]).all():
                return m
            law = law @ step
        return None


def _fixed_model(initial: int, minus: list[int], plus: list[int],
                 signs: list[int]) -> StateModel:
    """An automaton whose output signs are the same at every step."""
    out = np.array(signs, dtype=np.int8)
    return StateModel(initial, np.array(minus), np.array(plus), lambda k: out)


def _single_state(sign: Callable[[int], int]) -> StateModel:
    """A one-state automaton: psi_{k-1} = sign(k) on every path."""
    stay = np.zeros(1, dtype=np.int64)
    return StateModel(0, stay, stay, lambda k: np.array([sign(k)], dtype=np.int8))


class RecyclingRule:
    """Base class; subclasses provide psi, _multipliers or minus_words (or
    both), and table_signs."""

    name = "rule"

    def __init__(self, psi0: int):
        if psi0 not in (-1, 1):
            raise ValueError("psi0 must be -1 or +1")
        self.psi0 = psi0

    # -- pointwise ---------------------------------------------------------

    def psi(self, n: int, u: Sequence[int]) -> int:
        """psi_n evaluated on the first n entries of u, for n >= 1."""
        raise NotImplementedError

    def multiplier(self, step: int, u: Sequence[int]) -> int:
        """The sign multiplying increment number ``step``."""
        if step < 1:
            raise ValueError("step must be >= 1")
        if step == 1:
            return self.psi0
        return self.psi(step - 1, u)

    def increment(self, u: Sequence[int]) -> int:
        """eta_n for the full prefix u = (u_1, ..., u_n)."""
        n = len(u)
        if n < 1:
            raise ValueError("need at least one increment")
        return self.multiplier(n, u) * int(u[n - 1])

    # -- whole-path --------------------------------------------------------

    def multipliers(self, xi: Sequence[int]) -> np.ndarray:
        """psi_0, psi_1(xi_1), ..., psi_{n-1}(xi_1..xi_{n-1}) as a fresh int8
        array, for increments of shape (..., n): one row per path.
        """
        return self._multipliers(_as_signs(xi))

    def _multipliers(self, arr: np.ndarray) -> np.ndarray:
        """``multipliers`` of increments checked to be int8 signs; the default
        unpacks ``minus_words`` of the packed paths."""
        n = arr.shape[-1]
        return unpack_signs(self.minus_words(pack_minus(arr), n), n)

    def minus_words(self, words: np.ndarray, n: int) -> np.ndarray:
        """The -1 multipliers of packed paths of n steps: for uint64 words of
        shape (..., ceil(n/64)) with bit k-1 set where increment k is -1 (bits
        past n are not read), fresh words of that shape with bit k-1 set where
        the multiplier of step k is -1, and every bit past n clear.

        The default packs ``_multipliers`` of the unpacked paths, at most
        ``UNPACKED_STEPS`` steps (and at least one path) at a time; a rule
        overrides this, ``_multipliers`` or both.
        """
        rows = words.reshape(math.prod(words.shape[:-1]), words.shape[-1])
        out = np.empty(rows.shape, dtype=np.uint64)
        chunk = max(1, UNPACKED_STEPS // max(n, 1))
        for first in range(0, len(rows), chunk):
            part = unpack_signs(rows[first:first + chunk], n)
            out[first:first + chunk] = pack_minus(self._multipliers(part))
        return out.reshape(words.shape)

    def apply(self, xi: Sequence[int]) -> np.ndarray:
        """Transform one increment path; invertible on {-1,+1}^n."""
        arr = np.asarray(xi, dtype=np.int8)  # multipliers checks the signs
        if arr.ndim != 1:
            raise ValueError("increment sequence must be one-dimensional")
        return self.multipliers(arr) * arr

    # -- materialized views --------------------------------------------------

    def step_table(self, step: int) -> TruthTable:
        """Truth table (arity step-1) of the multiplier at ``step``."""
        if step < 1:
            raise ValueError("step must be >= 1")
        if step == 1:
            return TruthTable.constant(0, self.psi0)
        check_enum_cap(step - 1, f"step {step}: rule table arity")
        return TruthTable.adopt(step - 1, self.table_signs(step))

    def table_signs(self, step: int) -> np.ndarray:
        """int8 signs of the multiplier at ``step`` >= 2 over the 2**(step-1)
        input masks, for a step whose arity is within the cap: a fresh array,
        or one that only read-only tables hold, which ``step_table`` adopts."""
        raise NotImplementedError

    def negatives_parity(self, step: int) -> int:
        """Parity of the number of inputs on which the multiplier at ``step``
        is -1, the bit the single-orbit criterion reads.  The default counts
        the -1s of ``step_table``; a rule that knows the parity in closed
        form overrides this and builds no table."""
        return self.step_table(step).negatives_parity()

    def step_family(self, step: int) -> BetaFamily:
        """Beta family of the multiplier at ``step``."""
        return truth_to_beta(self.step_table(step))

    def state_model(self, horizon: int) -> StateModel | None:
        """An automaton whose outputs are this rule's multipliers at steps
        1..horizon, or None when the rule states none."""
        return None

    def describe(self) -> str:
        return f"{self.name} (psi0={self.psi0:+d})"

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"


# ---------------------------------------------------------------------------
# Constant-multiplier rules


class ConstantRule(RecyclingRule):
    """psi_n identically equal to a fixed sign."""

    def __init__(self, name: str, psi0: int, value: int):
        super().__init__(psi0)
        self.name = name
        self.value = value

    def psi(self, n, u):
        return self.value

    def _multipliers(self, arr):
        out = np.full(arr.shape, self.value, dtype=np.int8)
        out[..., :1] = self.psi0
        return out

    def table_signs(self, step):
        return np.full(1 << (step - 1), self.value, dtype=np.int8)

    def negatives_parity(self, step):
        # after step 1, an even number of inputs share one value
        return int(step == 1 and self.psi0 == -1)

    def step_family(self, step):
        value = self.psi0 if step == 1 else self.value
        return BetaFamily(step, [0] if value == -1 else [])

    def state_model(self, horizon):
        return _single_state(lambda k: self.psi0 if k == 1 else self.value)


def identity_rule() -> ConstantRule:
    return ConstantRule("identity", +1, +1)


def negation_rule() -> ConstantRule:
    return ConstantRule("negation", -1, -1)


# ---------------------------------------------------------------------------
# Running-product rules

_SINGLETONS: tuple[int, ...] = ()  # the masks 1 << j, grown by doubling


def _singleton_family(step: int, lo: int, hi: int) -> BetaFamily:
    """The family of the singletons {lo}, ..., {hi} at ``step``, adopting a
    slice of one shared tuple of masks."""
    global _SINGLETONS
    if step < 1:
        raise ValueError("step must be >= 1")
    if hi > len(_SINGLETONS):
        _SINGLETONS = tuple(1 << j for j in range(2 * hi))
    return BetaFamily.adopt(step, _SINGLETONS[lo - 1:hi])


class ProductRule(RecyclingRule):
    """psi_n = u_1 * ... * u_n, so eta_n is the running product of increments."""

    name = "brw"

    def __init__(self):
        super().__init__(+1)

    def psi(self, n, u):
        return math.prod(map(int, u[:n]))

    def _multipliers(self, arr):
        return _signs(minus_parity(arr)[..., :-1])

    def minus_words(self, words, n):
        return clear_tail(_parity_words(words), n)

    def table_signs(self, step):
        return parity_signs(step - 1)

    def negatives_parity(self, step):
        # 2^(n-1) of the masks of n >= 1 bits have an odd popcount
        return int(step == 2)

    def step_family(self, step):
        return _singleton_family(step, 1, step - 1)

    def state_model(self, horizon):
        # the parity of the -1s read so far
        return _fixed_model(0, [1, 0], [0, 1], [1, -1])


class ExtendedBrwRule(RecyclingRule):
    """eta_k = xi_k * prod_{j in M_k} xi_j; over M_k = {lo, ..., hi} the product is
    the -1 parity up to hi against that up to lo - 1 (signs are self-inverse)."""

    def __init__(self, seq: SetSequence):
        super().__init__(+1)
        self.seq = seq
        self.name = f"extended-brw[{seq.name}]"
        self._bounds = seq.bounds(0)

    def _interval(self, step: int) -> tuple[int, int]:
        if step > self._bounds[0].size:  # doubling, so a scan over steps is linear
            self._bounds = self.seq.bounds(2 * step)
        return int(self._bounds[0][step - 1]), int(self._bounds[1][step - 1])

    def psi(self, n, u):
        lo, hi = self._interval(n + 1)
        return math.prod(map(int, u[lo - 1:hi]))

    def _multipliers(self, arr):
        n = arr.shape[-1]
        if n > self._bounds[0].size:  # exactly n: apply's peak holds one pair of bounds
            self._bounds = self.seq.bounds(n)
        lo, hi = self._bounds[0][:n], self._bounds[1][:n]
        odd = minus_parity(arr)
        return _signs(odd[..., hi] ^ odd[..., lo - 1])

    def step_family(self, step):
        return _singleton_family(step, *self._interval(step))

    def negatives_parity(self, step):
        # the table below holds 2^(step-2) -1s when M_k is not empty: an odd
        # count only for the one input of step 2 with M_2 = {1}
        return int(step == 2 and self._interval(2) == (1, 1))

    def table_signs(self, step):
        # the parity table of M_k's bits, repeated below lo and tiled above hi
        lo, hi = self._interval(step)
        signs = np.repeat(parity_signs(hi - lo + 1), 1 << (lo - 1))
        return np.tile(signs, 1 << (step - 1 - hi))


# ---------------------------------------------------------------------------
# Window and prefix maxima


class WindowMaxRule(RecyclingRule):
    """psi_n = max over the last ``width`` coordinates (all of them when None).

    The empty-window convention max over {} = -1 fixes psi0 = -1.
    """

    def __init__(self, width: int | None = None):
        super().__init__(-1)
        if width is not None and width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self.name = "max" if width is None else f"window-max:{width}"

    def window_mask(self, step: int) -> int:
        """Mask of the indices feeding the multiplier of increment ``step``."""
        lo = 1 if self.width is None else max(1, step - self.width)
        return (1 << (step - 1)) - (1 << (lo - 1)) if step > 1 else 0

    def psi(self, n, u):
        lo = 0 if self.width is None else max(0, n - self.width)
        return max(int(v) for v in u[lo:n])

    def minus_words(self, words, n):
        # bit i is set iff bits max(0, i - w)..i-1 are all set (the empty
        # window included); the whole prefix is the run of leading ones
        w = self.width
        if w is None or w >= n:
            return _low_bits(np.minimum(_leading_ones(words, n) + 1, n), words.shape[-1])
        # AND the window together from blocks of power-of-two length, as in
        # a sparse table: O(n log w); bits before the path count as set
        block = _shifted(words, 1)  # block bit i: bits i - size..i-1 all set
        all_minus = np.full(words.shape, _ALL_ONES)  # the same for bits i - done..i-1
        size, done = 1, 0
        while True:
            if w & size:
                all_minus &= _shifted(block, done)
                done += size
            if 2 * size > w:
                return clear_tail(all_minus, n)
            block &= _shifted(block, size)
            size *= 2

    def table_signs(self, step):
        # the window is the top bits of the arity, so an input is -1 on all
        # of it exactly when its mask is at least the window mask
        signs = np.ones(1 << (step - 1), dtype=np.int8)
        signs[self.window_mask(step):] = -1
        return signs

    def negatives_parity(self, step):
        # the masks from the window mask up number 2^(lo-1): odd for lo = 1
        return int(self.width is None or step <= self.width + 1)

    def step_family(self, step):
        return BetaFamily(step, [self.window_mask(step)])

    def state_model(self, horizon):
        w = self.width
        if w is None:  # whether the prefix is still all -1
            return _fixed_model(0, [0, 1], [1, 1], [-1, 1])
        # the run of -1s ending the prefix, capped at w, counting the steps
        # before the path as -1s
        return _fixed_model(w, [min(r + 1, w) for r in range(w + 1)], [0] * (w + 1),
                            [1] * w + [-1])


# ---------------------------------------------------------------------------
# Symmetric rules: multipliers that depend on the running sum


@dataclass(frozen=True)
class StepFunction:
    """Right- or left-closed step function with values in {-1,+1}.

    ``values[i]`` is taken between ``breaks[i-1]`` and ``breaks[i]``; the
    value at a breakpoint comes from the right piece when ``jump_side`` is
    "right" and from the left piece otherwise.  Breakpoints must be strictly
    increasing (a zero minimum gap is rejected) and adjacent values must
    differ, so the breakpoints are genuine jumps.
    """

    breaks: tuple[float, ...]
    values: tuple[int, ...]
    jump_side: str = "left"

    def __post_init__(self):
        if self.jump_side not in ("left", "right"):
            raise ValueError("jump_side must be 'left' or 'right'")
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError("values must be -1 or +1")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v == w for v, w in zip(self.values, self.values[1:])):
            raise ValueError("adjacent pieces must differ at a breakpoint")

    def __call__(self, z: float) -> int:
        return int(self.vectorized(z))

    def vectorized(self, z: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breaks, z, side=self.jump_side)
        return np.asarray(self.values, dtype=np.int8)[idx]


def sign_step(sgn0: int = -1) -> StepFunction:
    """sgn with the value at zero fixed to sgn0."""
    if sgn0 not in (-1, 1):
        raise ValueError("sgn0 must be -1 or +1")
    return StepFunction((0.0,), (-1, 1), "left" if sgn0 == -1 else "right")


class SymmetricRule(RecyclingRule):
    """psi_{k-1}(u) = f((u_1 + ... + u_{k-1}) / sqrt(k)).

    psi0 is f applied to the empty sum.  The multiplier is permutation
    invariant in the prefix, so tables reduce to popcount profiles and the
    beta family is level-constant.
    """

    def __init__(self, f: StepFunction, name: str | None = None):
        super().__init__(f(0.0))
        self.f = f
        self.name = name or "symmetric"

    def _scale(self, n: int) -> float:
        return math.sqrt(n + 1)

    def psi(self, n, u):
        s = int(sum(int(v) for v in u[:n]))
        return self.f(s / self._scale(n))

    def _comparisons(self) -> tuple[np.ufunc, np.ufunc]:
        # f alternates sign at each break: it is -1 where the first break is
        # not passed when values[0] = -1 (passed when +1), flipped by every
        # later break passed; a break at 0 is passed exactly when the sum is
        passed, below = ((np.greater_equal, np.less) if self.f.jump_side == "right"
                         else (np.greater, np.less_equal))
        return (below if self.f.values[0] == -1 else passed), passed

    def _multipliers(self, arr):
        breaks = self.f.breaks
        if not breaks:
            return np.full(arr.shape, self.f.values[0], dtype=np.int8)
        first, passed = self._comparisons()
        sums = running_sums(arr)
        if any(breaks):
            # the same float64 s/sqrt(k) as psi, so breaks compare exactly
            z = sums / np.sqrt(np.arange(1, arr.shape[-1] + 1, dtype=np.float64))

        def compare(op, b):
            return op(sums, 0) if b == 0 else op(z, b)

        minus = compare(first, breaks[0])
        for b in breaks[1:]:
            minus ^= compare(passed, b)
        return _signs(minus)

    def minus_words(self, words, n):
        if self.f.breaks != (0,):
            return super().minus_words(words, n)
        return clear_tail(_walk_words(words, self._comparisons()[0]), n)

    def profile(self, step: int) -> np.ndarray:
        """Multiplier value per count of -1 coordinates in the prefix."""
        arity = step - 1
        nu = np.arange(arity + 1, dtype=np.float64)
        z = (arity - 2.0 * nu) / self._scale(arity)
        return self.f.vectorized(z)

    def table_signs(self, step):
        # -1 where an odd number of the levels at which the profile turns
        # (from +1 before level 0) are at most the count nu of -1 inputs.
        # The first comparison of the uint8 counts writes in place, so one
        # turn, the sign rule's, needs no wider or second array.
        arity = step - 1
        minus_at = (self.profile(step) < 0).tolist()
        turns = [nu for nu, (a, b) in enumerate(zip([False] + minus_at, minus_at)) if a != b]
        nu = mask_levels(arity)
        later = [nu >= c for c in turns[1:]]
        minus = nu.view(bool)
        np.greater_equal(nu, turns[0] if turns else arity + 1, out=minus)
        for flags in later:
            minus ^= flags
        return _signs(minus)

    def negatives_parity(self, step):
        # level nu holds C(arity, nu) inputs, odd exactly when nu is a
        # submask of the arity (Lucas' theorem): f is read at those levels only
        arity = step - 1
        nu = np.arange(step)
        nu = nu[(nu & ~arity) == 0].astype(np.float64)
        # the same float64 z as ``profile``
        z = (arity - 2.0 * nu) / self._scale(arity)
        return int(np.count_nonzero(self.f.vectorized(z) < 0)) & 1

    def step_family(self, step):
        check_enum_cap(step - 1, "rule family arity")
        return level_family(step, symmetric_profile_to_levels(self.profile(step)))

    def state_model(self, horizon):
        if not self.f.breaks:
            return _single_state(lambda k: self.f.values[0])
        # the walk value S as the index S + horizon; the moves wrap around at
        # +-horizon, which no path of the horizon passes
        walk = np.arange(-horizon, horizon + 1)
        index = np.arange(walk.size)
        # the same float64 S / sqrt(k) that psi compares
        return StateModel(horizon, np.roll(index, 1), np.roll(index, -1),
                          lambda k: self.f.vectorized(walk / self._scale(k - 1)))


class LevyRule(SymmetricRule):
    """The sign-of-the-walk rule: eta_k = sgn(X_{k-1}) xi_k."""

    def __init__(self, sgn0: int = -1):
        super().__init__(sign_step(sgn0), name="levy")
        self.sgn0 = sgn0


class PrefixMaxRule(RecyclingRule):
    """An inner rule times the prefix max max(u_1..u_n) at the arities n
    where ``flips`` holds, with psi0 = -1.

    The prefix max is -1 only on the all-minus input, so the factor negates
    the last entry of a table and, on a path, only the multipliers of the
    arities up to the index of the first +1 increment, whose prefixes are
    all -1.
    """

    def __init__(self, inner: RecyclingRule, name: str):
        super().__init__(-1)
        self.inner = inner
        self.name = name

    def flips(self, arities: np.ndarray) -> np.ndarray:
        """bool array: True at the arities that take the prefix-max factor."""
        raise NotImplementedError

    def psi(self, n, u):
        value = self.inner.psi(n, u)
        if max(int(v) for v in u[:n]) < 0 and self.flips(np.array([n]))[0]:
            return -value
        return value

    def minus_words(self, words, n):
        # psi0, then each row's arities 1..last, flipped where ``flips``
        # holds; flips is asked only up to the longest run
        out = self.inner.minus_words(words, n)
        out[..., :1] |= np.uint64(1)
        last = np.minimum(_leading_ones(words, n), n - 1)
        longest = int(last.max(initial=0))
        if longest > 0:
            span = longest // 64 + 1
            flips = np.zeros(64 * span, dtype=bool)
            flips[1:longest + 1] = self.flips(np.arange(1, longest + 1))
            flips = np.packbits(flips, bitorder="little").view("<u8")
            out[..., :span] ^= flips & _low_bits(last + 1, span)
        return out

    def table_signs(self, step):
        table = self.inner.step_table(step)
        if not self._flips_table(step - 1, table):
            return table.signs
        signs = table.signs.copy()
        signs[-1] = -signs[-1]
        return signs

    def negatives_parity(self, step):
        # the factor negates one entry of the inner table
        if step == 1:
            return 1
        return self.inner.negatives_parity(step) ^ int(self.flips(np.array([step - 1]))[0])

    def _flips_table(self, n: int, inner_table: TruthTable) -> bool:
        """``flips`` at arity n, given the inner table at step n + 1."""
        return bool(self.flips(np.array([n]))[0])

    def state_model(self, horizon):
        # the inner automaton times a flag set while every increment is -1:
        # state s + size is state s on the all-minus prefix, where psi flips
        inner = self.inner.state_model(horizon)
        if inner is None:
            return None
        size = inner.size
        flips = np.append(False, self.flips(np.arange(1, horizon)))  # by arity

        def out(k):
            signs = np.tile(inner.out(k), 2)
            if k == 1:
                signs[inner.initial + size] = self.psi0
            elif flips[k - 1]:
                signs[size:] *= -1
            return signs

        return StateModel(inner.initial + size, np.concatenate([inner.minus, inner.minus + size]),
                          np.tile(inner.plus, 2), out)


class ModifiedLevyRule(PrefixMaxRule):
    """The sign rule made ergodic (Dubins and Smorodinsky): sgn(u_1 + ... + u_n)
    at power-of-two arities n, and max(u_1..u_n) sgn(u_1 + ... + u_n) elsewhere.

    These are exactly the arities where the sign rule fails the single-orbit
    criterion, so this is ``ergodic_repair`` of levy.
    """

    def __init__(self, sgn0: int = -1):
        super().__init__(LevyRule(sgn0), "modified-levy")
        self.sgn0 = sgn0

    def flips(self, arities):
        return (arities & (arities - 1)) != 0


class _OneStepLate(RecyclingRule):
    """psi_n = the inner psi_{n-1}: the inner multipliers, one step later."""

    def __init__(self, inner: RecyclingRule):
        super().__init__(inner.psi0)
        self.inner = inner
        self.name = f"late({inner.name})"

    def psi(self, n, u):
        return self.inner.multiplier(n, u)

    def minus_words(self, words, n):
        out = _shifted(self.inner.minus_words(words, n), 1)
        if self.psi0 == 1:
            out[..., :1] ^= np.uint64(1)
        return clear_tail(out, n)

    def table_signs(self, step):
        # the last coordinate is not read: the inner table twice over
        return np.tile(self.inner.step_table(step - 1).signs, 2)

    def negatives_parity(self, step):
        # after step 1, every table holds each value an even number of times
        return int(step == 1 and self.psi0 == -1)

    def state_model(self, horizon):
        # the inner state before the last increment and that increment, as
        # the state 2 s + (u > 0); state 2 n is the start, before u_1
        inner = self.inner.state_model(horizon)
        if inner is None:
            return None
        n = inner.size
        now = np.append(np.stack([inner.minus, inner.plus], axis=1).ravel(), inner.initial)
        before = np.append(np.repeat(np.arange(n), 2), inner.initial)
        return StateModel(2 * n, 2 * now, 2 * now + 1,
                          lambda k: inner.out(max(k - 1, 1))[before])


class ModifiedLevyMaxRule(PrefixMaxRule):
    """Prefix max times the sign of the sum that excludes the last coordinate."""

    def __init__(self, sgn0: int = -1):
        super().__init__(_OneStepLate(LevyRule(sgn0)), "modified-levy-max")
        self.sgn0 = sgn0

    def flips(self, arities):
        return np.ones(arities.shape, dtype=bool)


# ---------------------------------------------------------------------------
# Constant sign flips


def _density_label(p: Fraction) -> str:
    """Short decimal when it is exact (0.25), else the ratio (1/3)."""
    text = f"{float(p):g}"
    return text if Fraction(text) == p else str(p)


class SignFlipRule(RecyclingRule):
    """eta_k = epsilon_k xi_k for a deterministic sign sequence epsilon.

    A density p = a/b, read exactly as a rational (a float as its shortest
    decimal, so 0.29 is 29/100), flips step k when
    floor(k a / b) > floor((k-1) a / b): the first n steps hold exactly
    floor(n p) flips.
    """

    def __init__(self, flips: Iterable[int] | float | Fraction,
                 name: str | None = None):
        if isinstance(flips, (float, Fraction)):
            p = Fraction(repr(float(flips))) if isinstance(flips, float) else flips
            if not 0 <= p <= 1:
                raise ValueError("flip density must lie in [0, 1]")
            a, b = p.numerator, p.denominator
            self._flip = lambda k: (k * a) // b > ((k - 1) * a) // b
            self.density = p
            self.steps = None
            name = name or f"sign-flips:{_density_label(p)}"
        else:
            steps = frozenset(int(k) for k in flips)
            if steps and min(steps) < 1:
                raise ValueError("flip steps must be positive")
            self._flip = lambda k: k in steps
            self.density = None
            self.steps = steps
            name = name or "sign-flips:explicit"
        super().__init__(-1 if self._flip(1) else +1)
        self.name = name

    def epsilon(self, step: int) -> int:
        return -1 if self._flip(step) else 1

    def psi(self, n, u):
        return self.epsilon(n + 1)

    def _epsilons(self, n: int) -> np.ndarray:
        """int8 epsilon_1, ..., epsilon_n, the multipliers of every path."""
        if self.density is None:
            out = np.ones(n, dtype=np.int8)
            out[[k - 1 for k in self.steps if k <= n]] = -1
            return out
        a, b = self.density.numerator, self.density.denominator
        if n * a < 1 << 62:
            floors = np.arange(n + 1, dtype=np.int64) * a // b
        else:  # products beyond int64: exact python integers
            floors = np.array([k * a // b for k in range(n + 1)], dtype=object)
        return _signs(np.greater(floors[1:], floors[:-1], dtype=bool))

    def _multipliers(self, arr):
        out = np.empty(arr.shape, dtype=np.int8)
        out[...] = self._epsilons(arr.shape[-1])
        return out

    def minus_words(self, words, n):
        # one row of flips, packed once and copied to every path; no draw is read
        out = np.empty(words.shape, dtype=np.uint64)
        out[...] = pack_minus(self._epsilons(n))
        return out

    def table_signs(self, step):
        return np.full(1 << (step - 1), self.epsilon(step), dtype=np.int8)

    def negatives_parity(self, step):
        # after step 1, an even number of inputs share one value
        return int(step == 1 and self.psi0 == -1)

    def step_family(self, step):
        return BetaFamily(step, [0] if self.epsilon(step) == -1 else [])

    def state_model(self, horizon):
        return _single_state(self.epsilon)


# ---------------------------------------------------------------------------
# Explicitly tabulated rules


class ExplicitRule(RecyclingRule):
    """Rule given by per-step tables or beta families, with an optional fallback."""

    def __init__(self, psi0: int,
                 tables: Mapping[int, TruthTable] | None = None,
                 families: Mapping[int, BetaFamily] | None = None,
                 fallback: RecyclingRule | None = None,
                 name: str = "explicit"):
        super().__init__(psi0)
        self.tables = dict(tables or {})
        self.families = dict(families or {})
        self.fallback = fallback
        self.name = name
        for step, table in self.tables.items():
            if step < 2:
                raise ValueError("tabulated steps must be >= 2 (psi0 covers step 1)")
            if table.arity != step - 1:
                raise ValueError(f"table at step {step} must have arity {step - 1}")
        for step, family in self.families.items():
            if step < 2:
                raise ValueError("family steps must be >= 2 (psi0 covers step 1)")
            if family.step != step:
                raise ValueError(f"family at step {step} has step {family.step}")

    def psi(self, n, u):
        step = n + 1
        if step in self.tables:
            return self.tables[step].sign(u[:n])
        if step in self.families:
            return self.families[step].evaluate(u)
        return self._fallback_at(step).psi(n, u)

    def _multipliers(self, arr):
        # the fallback's kernel with psi0 and one psi per listed step; with
        # no fallback every step is evaluated, and psi raises at the first
        # step without a definition
        n = arr.shape[-1]
        if self.fallback is None:
            out, steps = np.empty_like(arr), range(2, n + 1)
        else:
            out = self.fallback._multipliers(arr)
            steps = sorted(s for s in {*self.tables, *self.families} if s <= n)
        out[..., :1] = self.psi0
        if steps:
            for row in np.ndindex(arr.shape[:-1]):
                u, psi = arr[row][:steps[-1]].tolist(), out[row]
                for step in steps:
                    psi[step - 1] = self.psi(step - 1, u)
        return out

    def table_signs(self, step):
        if step in self.tables:
            return self.tables[step].signs
        if step in self.families:
            return beta_to_truth(self.families[step]).signs
        return self._fallback_at(step).step_table(step).signs

    def step_family(self, step):
        if step == 1:
            return BetaFamily(1, [0] if self.psi0 == -1 else [])
        if step in self.families:
            return self.families[step]
        if step in self.tables:
            return truth_to_beta(self.tables[step])
        return self._fallback_at(step).step_family(step)

    def negatives_parity(self, step):
        # psi0 and the listed steps count their tables; the others are the
        # fallback's
        if step == 1 or step in self.tables or step in self.families:
            return super().negatives_parity(step)
        return self._fallback_at(step).negatives_parity(step)

    def _fallback_at(self, step: int) -> RecyclingRule:
        if self.fallback is None:
            raise ValueError(f"rule has no definition at step {step} and no fallback")
        return self.fallback


class RandomRule(RecyclingRule):
    """Deterministically seeded random truth tables, one per step.

    ``force_full`` pins the full-set beta coefficient of every multiplier,
    which by the single-orbit criterion makes the rule ergodic-so-far (with
    psi0 = -1) or certifiably non-ergodic (coefficient forced to zero).
    """

    def __init__(self, seed: int, psi0: int = -1, force_full: bool | None = None):
        super().__init__(psi0)
        self.seed = int(seed)
        self.force_full = force_full
        self.name = f"random:{seed}"
        self._tables: dict[int, TruthTable] = {}

    def step_table(self, step):
        if step not in self._tables:
            self._tables[step] = super().step_table(step)
        return self._tables[step]

    def table_signs(self, step):
        rng = np.random.Generator(philox(stream_key(self.seed, step)))
        bits = rng.integers(0, 2, size=1 << (step - 1), dtype=np.uint8)
        if self.force_full is not None:
            parity = int(bits.sum()) & 1
            if parity != int(self.force_full):
                bits[-1] ^= 1  # flips exactly the full-set coefficient
        return _signs(bits)

    def psi(self, n, u):
        return self.step_table(n + 1).sign(u[:n])

    def _multipliers(self, arr):
        out = np.empty_like(arr)
        out[..., :1] = self.psi0
        for row in np.ndindex(arr.shape[:-1]):
            psi = out[row]
            mask = 0  # -1 bitmask of the prefix xi_1..xi_{step-1}
            for step, x in enumerate(arr[row][:-1].tolist(), start=2):
                if x < 0:
                    mask |= 1 << (step - 2)
                psi[step - 1] = self.step_table(step).signs[mask]
        return out

