"""Recycling rules: adapted sign multipliers that bootstrap walk increments.

A rule is a constant psi0 in {-1,+1} together with a sign function psi_n on
{-1,+1}^n for every n >= 1.  Applied to increments xi it produces
eta_n = psi_{n-1}(xi_1, ..., xi_{n-1}) * xi_n, which replicates the law of
xi and so defines a second simple random walk on the same filtration.

Each rule states its whole-path behaviour once, in ``multipliers``: the
int8 array psi_0, psi_1(xi_1), ..., psi_{n-1}(xi_1..xi_{n-1}), which
``apply`` multiplies by the increments.  A kernel takes a ``(..., n)``
array with time on the last axis, so a block of replicate paths is one
call; a single path is the case with no leading axes.  Builtins compute it
in vectorized int8/bool passes.  The two prefix scans of the paper's Monte
Carlo limits, the running -1 parity (running product, extended-brw) and
the sign of the walk (the sign rule and its ergodic modifications), work
on each path packed 64 steps to a word once it has ``PACKED_MIN_LENGTH``
steps: a shift-XOR prefix inside each word with a carry across words, and
a table that maps a byte and the walk at its start to the byte's eight
signs.  Shorter paths take the plain accumulates, whose fixed cost is
lower and which are the packed scans' oracle.  Table-backed rules
(explicit, random, repaired) start from an inner rule's kernel or a
running prefix mask and look up only the steps they tabulate, row by row,
so no rule re-reads its prefix at every step.  ``psi`` evaluates one
multiplier and is the pointwise oracle of the kernels; ``step_table`` and
``step_family`` give one step's truth table and beta coefficient family,
in closed form where one is known.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import (
    DEFAULT_ENUM_CAP,
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


#: Paths of at least this many steps take the bit-packed prefix scans.  Their
#: fixed cost per path is higher than the plain accumulates' (about 15 us
#: against 5 us on a 2-CPU x86-64 machine with numpy 2.4), and both packed
#: scans overtake the accumulates at about 5,000 steps.
PACKED_MIN_LENGTH = 6000


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
    if arr.shape[-1] < PACKED_MIN_LENGTH:
        return _accumulated_parity(arr)
    return _packed_parity(arr)


def _accumulated_parity(arr: np.ndarray) -> np.ndarray:
    out = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,), dtype=np.uint8)
    np.bitwise_xor.accumulate((arr < 0).view(np.uint8), axis=-1, out=out[..., 1:])
    return out


def _packed_parity(arr: np.ndarray) -> np.ndarray:
    # bit j of the little-endian words is 1 where arr[j - 1] < 0 (bit 0 is
    # the empty prefix), so the inclusive prefix XOR at bit j is the parity
    # of arr[:j]; n + 1 bits, padded with zeros to whole words
    n = arr.shape[-1]
    minus = np.zeros(arr.shape[:-1] + (n // 64 * 64 + 64,), dtype=bool)
    np.less(arr, 0, out=minus[..., 1:n + 1])
    words = np.packbits(minus, axis=-1, bitorder="little").view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):  # the prefix XOR inside each word
        words ^= words << shift
    # each word's parity (its top bit), then that of every word before it,
    # XORed in as all ones or all zeros
    carry = words >> 63
    np.bitwise_xor.accumulate(carry, axis=-1, out=carry)
    words[..., 1:] ^= np.negative(carry[..., :-1])
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n + 1,
                         bitorder="little")


def walk_flags(arr: np.ndarray, op: np.ufunc) -> np.ndarray:
    """bool ``op(X_{k-1}, 0)`` at every step k = 1..n of the last axis, for a
    comparison ufunc ``op`` and the walk X_{k-1} = arr[..., 0] + ... +
    arr[..., k-2]."""
    if arr.shape[-1] < PACKED_MIN_LENGTH:
        return _summed_walk_flags(arr, op)
    return _packed_walk_flags(arr, op)


def _summed_walk_flags(arr: np.ndarray, op: np.ufunc) -> np.ndarray:
    return op(running_sums(arr), 0)


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


def _packed_walk_flags(arr: np.ndarray, op: np.ufunc) -> np.ndarray:
    # The walk at each byte's start, in bytes of 64-bit words.  Multiplying
    # a word of byte counts of -1 steps by the ones puts the counts of bytes
    # 0..j in byte j (at most 64: no carries), so its top byte is the word's
    # count, which the walk at word starts sums in int64 over the n/64 words
    # (exact at any length).  A byte moves the walk by at most 8, so a word
    # start clipped to [-64, 64] leaves every flag as it is; then byte j of
    # 128 + start + 8 j - 2 (the counts of bytes 0..j-1) lies in [8, 248],
    # and no byte carries into or borrows from the next.
    n = arr.shape[-1]
    words = -(-n // 64)
    minus = np.zeros(arr.shape[:-1] + (64 * words,), dtype=bool)
    np.less(arr, 0, out=minus[..., :n])
    packed = np.packbits(minus, axis=-1, bitorder="little")
    counts = np.bitwise_count(packed).view("<u8") * _BYTE_ONES
    steps = (counts >> 56).view(np.int64)
    steps *= -2
    steps += 64
    start = np.zeros(steps.shape, dtype=np.int64)
    np.cumsum(steps[..., :-1], axis=-1, out=start[..., 1:])
    np.minimum(start, 64, out=start)  # np.clip costs more at these sizes
    np.maximum(start, -64, out=start)
    start += 128
    walk = start.view(np.uint64) * _BYTE_ONES
    walk += _BYTE_OFFSETS
    counts <<= 9  # twice the counts of bytes 0..j-1 in byte j
    walk -= counts
    index = walk.astype("<u8", copy=False).view(np.uint8).astype(np.uint16)
    index <<= 8
    index |= packed
    flags = np.take(_walk_table(op), index)
    return np.unpackbits(flags, axis=-1, count=n, bitorder="little").view(bool)


def parity_signs(n: int) -> np.ndarray:
    """int8 table over the masks of n bits: -1 where the popcount is odd."""
    return _signs(mask_levels(n) & 1)


def first_plus(arr: np.ndarray) -> np.ndarray:
    """Index of the first +1 increment along the last axis, or the length
    where there is none, as an int64 array of the leading shape.

    The prefix max max(u_1..u_n) is -1 exactly for arities n = 1..first_plus.
    """
    n = arr.shape[-1]
    if n == 0:
        return np.zeros(arr.shape[:-1], dtype=np.int64)
    first = arr.argmax(axis=-1)  # the first maximum
    # a maximum past index 0 exceeds entry 0, so it is +1
    return np.where((first > 0) | (arr[..., 0] > 0), first, n)


def _table_arity(step: int, cap: int) -> int:
    """Arity step - 1 of the multiplier table at ``step``, checked against the cap."""
    check_enum_cap(step - 1, cap, f"step {step}: rule table arity")
    return step - 1


def sgn_truth_table(n: int, sgn0: int = -1) -> TruthTable:
    """Sign table of sgn(u_1 + ... + u_n) with the stated value at zero."""
    return LevyRule(sgn0).step_table(n + 1, cap=n)


class RecyclingRule:
    """Base class; subclasses provide psi, multipliers and step_table."""

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
        array, for increments of shape (..., n): one row per path."""
        raise NotImplementedError

    def apply(self, xi: Sequence[int]) -> np.ndarray:
        """Transform one increment path; invertible on {-1,+1}^n."""
        arr = np.asarray(xi, dtype=np.int8)  # multipliers checks the signs
        if arr.ndim != 1:
            raise ValueError("increment sequence must be one-dimensional")
        return self.multipliers(arr) * arr

    # -- materialized views --------------------------------------------------

    def step_table(self, step: int, cap: int = DEFAULT_ENUM_CAP) -> TruthTable:
        """Truth table (arity step-1) of the multiplier at ``step``."""
        raise NotImplementedError

    def step_family(self, step: int, cap: int = DEFAULT_ENUM_CAP) -> BetaFamily:
        """Beta family of the multiplier at ``step``."""
        return truth_to_beta(self.step_table(step, cap))

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

    def multipliers(self, xi):
        out = np.full(_as_signs(xi).shape, self.value, dtype=np.int8)
        out[..., :1] = self.psi0
        return out

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        if step == 1:
            return TruthTable.constant(0, self.psi0)
        return TruthTable.constant(_table_arity(step, cap), self.value)

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        value = self.psi0 if step == 1 else self.value
        return BetaFamily(step, [0] if value == -1 else [])


def identity_rule() -> ConstantRule:
    return ConstantRule("identity", +1, +1)


def negation_rule() -> ConstantRule:
    return ConstantRule("negation", -1, -1)


# ---------------------------------------------------------------------------
# Running-product rules


class ProductRule(RecyclingRule):
    """psi_n = u_1 * ... * u_n, so eta_n is the running product of increments."""

    name = "brw"

    def __init__(self):
        super().__init__(+1)

    def psi(self, n, u):
        return math.prod(map(int, u[:n]))

    def multipliers(self, xi):
        return _signs(minus_parity(_as_signs(xi))[..., :-1])

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        return TruthTable(step - 1, parity_signs(_table_arity(step, cap)))

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        return BetaFamily(step, [1 << j for j in range(step - 1)])


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

    def multipliers(self, xi):
        arr = _as_signs(xi)
        lo, hi = self.seq.bounds(arr.shape[-1])
        odd = minus_parity(arr)
        return _signs(odd[..., hi] ^ odd[..., lo - 1])

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        lo, hi = self._interval(step)
        return BetaFamily(step, [1 << (j - 1) for j in range(lo, hi + 1)])

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        # the parity table of M_k's bits, repeated below lo and tiled above hi
        arity = _table_arity(step, cap)
        lo, hi = self._interval(step)
        signs = np.repeat(parity_signs(hi - lo + 1), 1 << (lo - 1))
        return TruthTable(arity, np.tile(signs, 1 << (arity - hi)))


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

    def multipliers(self, xi):
        # the multiplier at index i is -1 iff xi[max(0, i - w):i] is all -1
        # (the empty window included)
        arr = _as_signs(xi)
        n, w = arr.shape[-1], self.width
        if w is None or w >= n:  # the window is the whole prefix
            out = np.ones(arr.shape, dtype=np.int8)
            last = first_plus(arr)  # -1 up to each row's first +1
            head = out[..., :int(last.max(initial=-1)) + 1]
            np.negative(head, out=head,
                        where=np.arange(head.shape[-1]) <= last[..., None])
            return out
        # AND the window together from blocks of power-of-two length, as in
        # a sparse table: O(n log w); entries before the path count as -1
        block = np.ones(arr.shape, dtype=bool)  # block[i]: xi[i - size:i] all -1
        block[..., 1:] = arr[..., :-1] < 0
        all_minus = np.ones(arr.shape, dtype=bool)  # same for xi[i - done:i]
        size, done = 1, 0
        while True:
            if w & size:
                all_minus[..., done:] &= block[..., :n - done]
                done += size
            if 2 * size > w:
                return _signs(all_minus)
            block[..., size:] &= block[..., :-size]
            size *= 2

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        # the window is the top bits of the arity, so an input is -1 on all
        # of it exactly when its mask is at least the window mask
        signs = np.ones(1 << _table_arity(step, cap), dtype=np.int8)
        signs[self.window_mask(step):] = -1
        return TruthTable(step - 1, signs)

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        return BetaFamily(step, [self.window_mask(step)])


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

    def multipliers(self, xi):
        # f alternates sign at each break: it is -1 where the first break is
        # not passed when values[0] = -1 (passed when +1), flipped by every
        # later break passed; a break at 0 is passed exactly when the sum is
        arr = _as_signs(xi)
        breaks = self.f.breaks
        if not breaks:
            return np.full(arr.shape, self.f.values[0], dtype=np.int8)
        passed, below = ((np.greater_equal, np.less) if self.f.jump_side == "right"
                         else (np.greater, np.less_equal))
        first = below if self.f.values[0] == -1 else passed
        if breaks == (0,):  # the sign of the walk
            return _signs(walk_flags(arr, first))
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

    def profile(self, step: int) -> np.ndarray:
        """Multiplier value per count of -1 coordinates in the prefix."""
        arity = step - 1
        nu = np.arange(arity + 1, dtype=np.float64)
        z = (arity - 2.0 * nu) / self._scale(arity)
        return self.f.vectorized(z)

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        # -1 where an odd number of the levels at which the profile turns
        # (from +1 before level 0) are at most the count nu of -1 inputs.
        # The first comparison of the uint8 counts writes in place, so one
        # turn, the sign rule's, needs no wider or second array.
        arity = _table_arity(step, cap)
        minus_at = (self.profile(step) < 0).tolist()
        turns = [nu for nu, (a, b) in enumerate(zip([False] + minus_at, minus_at)) if a != b]
        nu = mask_levels(arity)
        later = [nu >= c for c in turns[1:]]
        minus = nu.view(bool)
        np.greater_equal(nu, turns[0] if turns else arity + 1, out=minus)
        for flags in later:
            minus ^= flags
        return TruthTable(arity, _signs(minus))

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        check_enum_cap(step - 1, cap, "rule family arity")
        return level_family(step, symmetric_profile_to_levels(self.profile(step)))


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
    arities 1..first_plus, whose prefixes are all -1.
    """

    cap = DEFAULT_ENUM_CAP

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

    def multipliers(self, xi):
        # each row's arities 1..last, flipped where ``flips`` holds; flips
        # is asked only up to the longest run
        out = self.inner.multipliers(xi)
        out[..., :1] = -1
        last = np.minimum(first_plus(np.asarray(xi)), out.shape[-1] - 1)
        longest = int(last.max(initial=0))
        if longest > 0:
            arities = np.arange(1, longest + 1)
            head = out[..., 1:longest + 1]
            np.negative(head, out=head,
                        where=self.flips(arities) & (arities <= last[..., None]))
        return out

    def step_table(self, step, cap=None):
        cap = self.cap if cap is None else cap
        if step == 1:
            return TruthTable.constant(0, -1)
        table = self.inner.step_table(step, cap)
        if not self._flips_table(step - 1, table):
            return table
        signs = table.signs.copy()
        signs[-1] = -signs[-1]
        return TruthTable(table.arity, signs)

    def _flips_table(self, n: int, inner_table: TruthTable) -> bool:
        """``flips`` at arity n, given the inner table at step n + 1."""
        return bool(self.flips(np.array([n]))[0])


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

    def multipliers(self, xi):
        inner = self.inner.multipliers(xi)
        out = np.empty_like(inner)
        out[..., 1:] = inner[..., :-1]
        out[..., :1] = self.psi0
        return out

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        if step == 1:
            return TruthTable.constant(0, self.psi0)
        # the last coordinate is not read: the inner table twice over
        arity = _table_arity(step, cap)
        return TruthTable(arity, np.tile(self.inner.step_table(step - 1, cap).signs, 2))


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

    def multipliers(self, xi):
        shape = _as_signs(xi).shape
        n = shape[-1]
        if self.density is None:
            out = np.ones(shape, dtype=np.int8)
            out[..., [k - 1 for k in self.steps if k <= n]] = -1
            return out
        a, b = self.density.numerator, self.density.denominator
        if n * a < 1 << 62:
            floors = np.arange(n + 1, dtype=np.int64) * a // b
        else:  # products beyond int64: exact python integers
            floors = np.array([k * a // b for k in range(n + 1)], dtype=object)
        out = np.empty(shape, dtype=np.int8)  # every row's signs are the same
        out[...] = _signs(np.greater(floors[1:], floors[:-1], dtype=bool))
        return out

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        return TruthTable.constant(_table_arity(step, cap), self.epsilon(step))

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        return BetaFamily(step, [0] if self.epsilon(step) == -1 else [])


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

    def multipliers(self, xi):
        # the fallback's kernel with psi0 and one psi per listed step; with
        # no fallback every step is evaluated, and psi raises at the first
        # step without a definition
        arr = _as_signs(xi)
        n = arr.shape[-1]
        if self.fallback is None:
            out, steps = np.empty_like(arr), range(2, n + 1)
        else:
            out = self.fallback.multipliers(arr)
            steps = sorted(s for s in {*self.tables, *self.families} if s <= n)
        out[..., :1] = self.psi0
        if steps:
            for row in np.ndindex(arr.shape[:-1]):
                u, psi = arr[row][:steps[-1]].tolist(), out[row]
                for step in steps:
                    psi[step - 1] = self.psi(step - 1, u)
        return out

    def step_table(self, step, cap=DEFAULT_ENUM_CAP):
        if step == 1:
            return TruthTable.constant(0, self.psi0)
        if step in self.tables:
            return self.tables[step]
        if step in self.families:
            return beta_to_truth(self.families[step], cap)
        return self._fallback_at(step).step_table(step, cap)

    def step_family(self, step, cap=DEFAULT_ENUM_CAP):
        if step == 1:
            return BetaFamily(1, [0] if self.psi0 == -1 else [])
        if step in self.families:
            return self.families[step]
        if step in self.tables:
            return truth_to_beta(self.tables[step])
        return self._fallback_at(step).step_family(step, cap)

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

    def __init__(self, seed: int, psi0: int = -1,
                 force_full: bool | None = None, cap: int = DEFAULT_ENUM_CAP):
        super().__init__(psi0)
        self.seed = int(seed)
        self.force_full = force_full
        self.cap = cap
        self.name = f"random:{seed}"
        self._tables: dict[int, TruthTable] = {}

    def step_table(self, step, cap=None):
        cap = self.cap if cap is None else cap
        if step == 1:
            return TruthTable.constant(0, self.psi0)
        if step not in self._tables:
            arity = _table_arity(step, cap)
            rng = np.random.Generator(philox(stream_key(self.seed, step)))
            bits = rng.integers(0, 2, size=1 << arity, dtype=np.uint8)
            if self.force_full is not None:
                parity = int(bits.sum()) & 1
                if parity != int(self.force_full):
                    bits[-1] ^= 1  # flips exactly the full-set coefficient
            self._tables[step] = TruthTable.from_neg_bits(bits)
        return self._tables[step]

    def psi(self, n, u):
        return self.step_table(n + 1).sign(u[:n])

    def multipliers(self, xi):
        arr = _as_signs(xi)
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


BUILTIN_DOC = {
    "identity": "eta = xi (psi identically +1)",
    "negation": "eta = -xi (psi identically -1)",
    "brw": "running product: eta_k = xi_1 ... xi_k",
    "max": "prefix maximum multiplier, psi0 = -1",
    "window-max:M": "maximum of the last M increments",
    "levy": "eta_k = sgn(X_{k-1}) xi_k, sgn(0) configurable",
    "modified-levy": "levy with a prefix-max factor except at power-of-two arities",
    "modified-levy-max": "prefix max times sgn of the sum excluding the last entry",
    "extended-brw:KIND[:PARAM]": "eta_k = xi_k prod_{j in M_k} xi_j over a set sequence",
    "sign-flips:P": "eta_k = eps_k xi_k with flip density P (or explicit steps)",
    "symmetric:V0[:Z1:V1...]": "eta_k = f(X_{k-1}/sqrt(k)) xi_k for a step function f",
}
