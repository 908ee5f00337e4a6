"""Ergodicity of the recycling transformation via finite orbit structure.

The rule induces a bijection tau_n on {-1,+1}^n for each n; the infinite
transformation is ergodic exactly when every tau_n is a single 2**n cycle.
That in turn reduces to psi0 = -1 together with one sign per step: the
product of psi_n over all 2**n inputs must be -1, equivalently the full-set
coefficient beta_{n+1,{1..n}} must be 1.  The product is read from the
rule's ``negatives_parity``, so a rule that states that parity in closed
form is checked at any horizon without a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import BetaFamily, binomial_parity, check_enum_cap, level_family
from .rules import ExplicitRule, PrefixMaxRule, RecyclingRule

__all__ = [
    "rule_permutation",
    "is_bijection",
    "OrbitDecomposition",
    "orbit_decompose",
    "criterion_product",
    "criterion_beta",
    "ErgodicityVerdict",
    "is_ergodic_up_to",
    "BetaArray",
    "sgn_beta_array",
    "binomial_parity",
    "ergodic_repair",
    "RepairedRule",
    "CLOSED_FORM_ERGODIC",
]

#: Builtin families whose single-orbit criterion holds at every step.
CLOSED_FORM_ERGODIC = ("max", "modified-levy", "modified-levy-max")


def rule_permutation(rule: RecyclingRule, n: int) -> np.ndarray:
    """The map tau_n as a permutation of input bitmasks.

    Output bit k-1 of entry m is the sign bit of eta_k on the input encoded
    by m; built from the per-step tables with one vectorized pass per step.
    """
    check_enum_cap(n, "state space exponent")
    out = np.arange(1 << n, dtype=np.int64)
    for k in range(1, n + 1):
        # eta_k is -1 where u_k is -1 or the multiplier is, not both; the
        # multiplier reads the k-1 low bits, so its table repeats along out
        flips = np.tile(rule.step_table(k).signs < 0, 1 << (n - k + 1))
        out ^= flips.astype(np.int64) << (k - 1)
    return out


def is_bijection(perm: np.ndarray) -> bool:
    return bool(np.bincount(perm, minlength=perm.size).max() == 1)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Cycle lengths of tau_n, sorted longest first."""

    n: int
    cycles: tuple[int, ...]

    @property
    def single_orbit(self) -> bool:
        return self.cycles == (1 << self.n,)


def orbit_decompose(rule: RecyclingRule, n: int) -> OrbitDecomposition:
    """Full cycle structure of tau_n by pointer doubling.

    After round r, ``label`` holds the least of 2**r successive inputs along
    each cycle and ``jump`` is tau_n to the power 2**r, so n rounds label
    every input with the least input of its cycle; the labels' counts are
    the cycle lengths.
    """
    jump = rule_permutation(rule, n)
    label = np.arange(jump.size)
    for _ in range(n):
        np.minimum(label, label[jump], out=label)
        jump = jump[jump]
    lengths = np.bincount(label)
    lengths = np.sort(lengths[lengths > 0])[::-1]
    return OrbitDecomposition(n=n, cycles=tuple(lengths.tolist()))


def criterion_product(rule: RecyclingRule, n: int) -> int:
    """Product of psi_n over all 2**n inputs; -1 at every n means ergodic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -1 if rule.negatives_parity(n + 1) else 1


def criterion_beta(rule: RecyclingRule, n: int) -> int:
    """Full-set coefficient beta_{n+1,{1..n}} of the step-(n+1) multiplier."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(rule.step_family(n + 1).contains_full_set)


@dataclass(frozen=True)
class ErgodicityVerdict:
    """Finite-horizon certificate: all single-orbit criteria up to a step.

    ``ergodic_so_far`` is necessary, never sufficient, unless
    ``closed_form`` marks a builtin family with a proof for every step.
    ``first_failure`` reports the earliest failing step (0 stands for the
    psi0 check) together with the offending criterion value.
    """

    checked_up_to: int
    ergodic_so_far: bool
    first_failure: int | None = None
    failure_value: int | None = None
    closed_form: bool = False


def is_ergodic_up_to(rule: RecyclingRule, horizon: int) -> ErgodicityVerdict:
    """Check psi0 = -1 and the product criterion for n = 1..horizon."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if rule.psi0 != -1:
        return ErgodicityVerdict(
            checked_up_to=horizon,
            ergodic_so_far=False,
            first_failure=0,
            failure_value=rule.psi0,
        )
    for n in range(1, horizon + 1):
        value = criterion_product(rule, n)
        if value != -1:
            return ErgodicityVerdict(
                checked_up_to=horizon,
                ergodic_so_far=False,
                first_failure=n,
                failure_value=value,
            )
    return ErgodicityVerdict(
        checked_up_to=horizon,
        ergodic_so_far=True,
        closed_form=rule.name in CLOSED_FORM_ERGODIC,
    )


# ---------------------------------------------------------------------------
# The level-coefficient array of the sign function


@dataclass(frozen=True, eq=False)
class BetaArray:
    """Level coefficients of sgn(u_1 + ... + u_n) for n = 1..size.

    ``bits`` is a read-only ``(size, size+1)`` uint8 matrix with
    [n-1, k] = beta_{n,k}; the region n >= 2k+1 and the cells k > n are
    identically zero.
    """

    size: int
    bits: np.ndarray

    def coefficient(self, n: int, k: int) -> int:
        if not (1 <= n <= self.size and 0 <= k <= n):
            raise ValueError(f"need 1 <= n <= {self.size} and 0 <= k <= n")
        return int(self.bits[n - 1, k])

    def row_levels(self, n: int) -> list[int]:
        """Sizes k with beta_{n,k} = 1."""
        return np.flatnonzero(self.bits[n - 1, :n + 1]).tolist()

    def row_family(self, n: int) -> BetaFamily:
        """Expand row n into the explicit family at step n+1."""
        return level_family(n + 1, self.bits[n - 1, :n + 1].tolist())

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells (n, k, beta_{n,k}) for 0 <= k <= n as three arrays, n-major."""
        n = np.arange(1, self.size + 1, dtype=np.int32)
        # row n holds n+1 cells, the first at (n-1)(n+2)/2
        k = np.arange(self.size * (self.size + 3) // 2, dtype=np.int32)
        k -= np.repeat((n - 1) * (n + 2) // 2, n + 1)
        lower = np.tri(self.size, self.size + 1, 1, dtype=bool)
        return np.repeat(n, n + 1), k, self.bits[lower]


def sgn_beta_array(size: int) -> BetaArray:
    """Compute the coefficient matrix in closed form.

    With l = floor((n-1)/2), sgn is -1 on the inputs with nu >= l + 1
    coordinates at -1.  The level bits solve b_nu = sum_m C(nu, m) beta_{n,m}
    mod 2, a binomial transform that is its own inverse mod 2, so for
    1 <= m <= n, mod 2, beta_{n,m} = sum_{nu=l+1}^{m} C(m, nu)
    = 2^m - sum_{nu<=l} C(m, nu) = C(m-1, l), since the alternating partial
    sum sum_{nu<=l} (-1)^nu C(m, nu) is (-1)^l C(m-1, l).  By Lucas'
    theorem C(m-1, l) is odd exactly when l is a submask of m-1, which
    needs m > l; beta_{n,0} = b_0 = 0.  The matrix is one broadcast over
    small-int index arrays.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    index = np.int16 if size < 1 << 15 else np.int32
    n = np.arange(1, size + 1, dtype=index)[:, None]
    m = np.arange(size + 1, dtype=index)
    bits = (((n - 1) >> 1) & ~(m - 1)) == 0
    bits[:, 0] = False
    bits &= m <= n
    bits = bits.view(np.uint8)
    bits.flags.writeable = False
    return BetaArray(size=size, bits=bits)


# ---------------------------------------------------------------------------
# Repairing a rule into an ergodic one


class RepairedRule(PrefixMaxRule):
    """Minimal ergodic modification: psi0 = -1 and the prefix-max factor at
    each arity where the inner rule fails the product criterion (the factor
    flips exactly the full-set coefficient)."""

    def __init__(self, inner: RecyclingRule):
        super().__init__(inner, f"repair({inner.name})")
        self._needs_flip: dict[int, bool] = {}

    def negatives_parity(self, step):
        # psi0 = -1, and the factor is taken exactly where the inner parity is even
        return 1

    def needs_flip(self, n: int) -> bool:
        """True when the inner rule fails the criterion at step multiplier n."""
        if n not in self._needs_flip:
            self._needs_flip[n] = criterion_product(self.inner, n) != -1
        return self._needs_flip[n]

    def flips(self, arities):
        return np.fromiter(map(self.needs_flip, arities.tolist()), bool, arities.size)

    def _flips_table(self, n, inner_table):
        # the criterion at n is this table's parity: record it, so that
        # needs_flip does not build the table again
        if n not in self._needs_flip:
            self._needs_flip[n] = not inner_table.negatives_parity()
        return self._needs_flip[n]


def _parity_reads_tables(rule: RecyclingRule) -> bool:
    """Whether ``rule.negatives_parity`` counts step tables: the default hook
    does, a prefix-max wrapper's reads its inner rule's, and an explicit
    rule's its fallback's past the steps it lists (all of them without one)."""
    hook = type(rule).negatives_parity
    if hook is PrefixMaxRule.negatives_parity:
        return _parity_reads_tables(rule.inner)
    if hook is ExplicitRule.negatives_parity:
        return rule.fallback is None or _parity_reads_tables(rule.fallback)
    return hook is RecyclingRule.negatives_parity


def ergodic_repair(rule: RecyclingRule, horizon: int = 0) -> RepairedRule:
    """Wrap a rule so every single-orbit criterion holds.

    When the rule's parities are read from tables, ``horizon`` is checked
    against the cap up front, so that a horizon whose tables exceed it
    fails before any is built; a rule with closed-form parities takes any
    horizon.  Each repair decision is made on first use, from the rule's
    parity or the one inner table that use builds.
    """
    if _parity_reads_tables(rule):
        check_enum_cap(horizon, f"step {horizon + 1}: rule table arity")
    return RepairedRule(rule)
