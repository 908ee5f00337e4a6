"""Monte Carlo generation of coupled walk pairs and their covariation.

The normalized pair (X_{nt}/sqrt(n), Y_{nt}/sqrt(n)) has quadratic
covariation (1/n) sum_{k <= nt} xi_k eta_k, a piecewise-constant series
with plus-or-minus 1/n jumps.  Its terminal value concentrates at the
correlation rho in the Gaussian regime and follows the arcsine-derived law
under the sign rule.

Monte Carlo runs its replicates in blocks of ``BLOCK_STEPS`` steps (one
replicate when a path is longer) and stays in 64-bit words from draw to
count: each block is one draw of (rows, ceil(n/64)) raw Philox words from
``SeedSpec.increment_words``, one call of the rule's ``minus_words`` and
one popcount per row.  Replicate r always reads its own stream, so the
results do not depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.special import kolmogorov

from .philox import philox, raw_words, stream_key
from .rules import LevyRule, RecyclingRule, clear_tail, unpack_signs

#: Steps (bits) per block of Monte Carlo replicates; a path of more steps is
#: a block of its own.  Several 1e5-step paths share a block, which spreads
#: the kernels' fixed cost over them.  On a 2-CPU x86-64 machine with numpy
#: 2.4, blocks of 2^18, 2^19, 2^20 and 2^21 steps ran the benchmark's
#: 1e5-step Monte Carlo tasks in median 65, 44, 41 and 49 ms.  Rules with
#: no word kernel unpack at most ``UNPACKED_STEPS`` steps of it at a time
#: (``RecyclingRule.minus_words``), so their temporaries do not grow with it.
BLOCK_STEPS = 1 << 20

#: Default evaluation grid for covariation series: 101 equispaced times.
DEFAULT_GRID_POINTS = 101


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based stream key: (master seed, replicate id) -> Philox stream.

    Both are taken mod 2**64, so -1 and 2**64 - 1 name one stream.
    Identical pairs reproduce identical draws bit for bit, and distinct
    replicates get statistically independent streams.
    """

    master: int
    replicate: int = 0

    def bit_generator(self) -> np.random.Philox:
        return philox(stream_key(self.master, self.replicate))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(self.bit_generator())

    def with_replicate(self, replicate: int) -> "SeedSpec":
        return SeedSpec(self.master, replicate)

    def increments(self, n: int) -> np.ndarray:
        """n i.i.d. uniform signs as int8, one bit of the stream each.

        The stream's first ceil(n/64) raw 64-bit words are read least
        significant bit first; a set bit is a -1 increment.  A shorter
        draw is a prefix of a longer one.
        """
        return self.increment_block(1, n)[0]

    def increment_block(self, rows: int, n: int) -> np.ndarray:
        """(rows, n) int8: row r holds ``increments(n)`` of replicate
        ``replicate + r``."""
        return unpack_signs(self.increment_words(rows, n), n)

    def increment_words(self, rows: int, n: int) -> np.ndarray:
        """(rows, ceil(n/64)) uint64: row r holds the raw words of replicate
        ``replicate + r`` with the bits past n cleared, bit k-1 set where
        increment k is -1."""
        if n < 0:
            raise ValueError("number of increments must be >= 0")
        return clear_tail(raw_words(self.master, self.replicate, rows, -(-n // 64)), n)


@dataclass
class PathPair:
    """Increments and partial sums of a walk and its recycled copy."""

    xi: np.ndarray
    eta: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.xi.size

    def zeta(self) -> np.ndarray:
        """Covariation increments xi_k * eta_k."""
        return (self.xi * self.eta).astype(np.int8)


@dataclass
class CovariationSeries:
    """Exact covariation values on a time grid in [0, 1]."""

    grid: list[float]
    values: list[Fraction]


@dataclass
class MonteCarloSummary:
    """Replicate statistics of the terminal covariation."""

    replicates: int
    n: int
    mean: float
    variance: float
    stderr: float
    finals: np.ndarray


def sample_path(rule: RecyclingRule, n: int, seed: SeedSpec) -> PathPair:
    """Draw n i.i.d. sign increments and recycle them through the rule."""
    if n < 1:
        raise ValueError("path length must be >= 1")
    xi = seed.increments(n)
    eta = rule.apply(xi)
    x = np.zeros(n + 1, dtype=np.int64)
    y = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(xi, out=x[1:])
    np.cumsum(eta, out=y[1:])
    return PathPair(xi=xi, eta=eta, x=x, y=y)


def default_grid(points: int = DEFAULT_GRID_POINTS) -> list[float]:
    if points < 2:
        raise ValueError("grid needs at least two points")
    return [i / (points - 1) for i in range(points)]


def covariation(path: PathPair, grid: Sequence[float] | None = None) -> CovariationSeries:
    """Exact values (1/n) sum_{k <= floor(nt)} xi_k eta_k on the grid."""
    if grid is None:
        grid = default_grid()
    grid = [float(t) for t in grid]
    if any(t < 0 or t > 1 for t in grid):
        raise ValueError("grid times must lie in [0, 1]")
    n = path.n
    csum = np.concatenate([[0], np.cumsum(path.zeta(), dtype=np.int64)])
    values = [Fraction(int(csum[int(n * t)]), n) for t in grid]
    return CovariationSeries(grid=grid, values=values)


def final_covariation(path: PathPair) -> Fraction:
    zeta = path.zeta()
    return Fraction(int(zeta.sum(dtype=np.int64)), path.n)


def mc_covariation(rule: RecyclingRule, n: int, reps: int,
                   seed: SeedSpec) -> MonteCarloSummary:
    """Terminal covariation over the replicates ``seed.replicate`` + 0 ..
    reps - 1 of the seed's master, one independent stream each.

    Since xi_k eta_k = psi_{k-1} xi_k**2 = psi_{k-1}, each replicate's sum is
    the sum of the rule's multipliers, n minus twice the number of -1s; eta
    is never formed.  Replicates run in blocks of ``BLOCK_STEPS`` steps, one
    draw of packed words, one ``minus_words`` call and one popcount each; a
    rule without a word kernel unpacks ``UNPACKED_STEPS`` steps at a time.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    if reps < 2:
        raise ValueError("need at least two replicates")
    rows = max(1, BLOCK_STEPS // n)
    sums = np.empty(reps, dtype=np.int64)
    for first in range(0, reps, rows):
        words = seed.with_replicate(seed.replicate + first).increment_words(
            min(rows, reps - first), n)
        minus = np.bitwise_count(rule.minus_words(words, n)).sum(axis=-1, dtype=np.int64)
        sums[first:first + len(minus)] = n - 2 * minus
    finals = sums / n
    variance = float(finals.var(ddof=1))
    return MonteCarloSummary(
        replicates=reps,
        n=n,
        mean=float(finals.mean()),
        variance=variance,
        stderr=math.sqrt(variance / reps),
        finals=finals,
    )


# ---------------------------------------------------------------------------
# The sign rule and the arcsine-law limit


def reference_arcsine_cdf(x) -> np.ndarray:
    """CDF of the limiting terminal covariation under the sign rule.

    The limit is the time integral of sgn(B_s) over [0, 1], i.e. 2L - 1 for
    L arcsine distributed, with CDF (2/pi) arcsin(sqrt((x+1)/2)) on [-1, 1].
    """
    z = np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)
    return (2.0 / math.pi) * np.arcsin(np.sqrt((z + 1.0) / 2.0))


def exact_sign_sum_distribution(n: int, sgn0: int = -1
                                ) -> list[tuple[Fraction, Fraction]]:
    """Exact law of (1/n) sum sgn(X_{k-1}) over all 2**n equally likely paths.

    Returns (atom, probability) pairs with exact rational values, atoms in
    increasing order.  Path counts keyed by the walk value and the running
    total are pushed forward one step at a time: O(n**2) operations on
    integers of about n**2 bits, 0.07 s, 0.80 s and 14.3 s at n = 200, 400
    and 800.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    if sgn0 not in (-1, 0, 1):
        raise ValueError("sgn0 must be -1, 0 or +1")
    # counts[x + n] holds the paths with X_k = x, the count of running total
    # t in bits width*(t + k) on; no count reaches 2**width, so adding the
    # sign s to the total is a shift by (s + 1)*width bits
    width = n + 1
    signs = [-1] * n + [sgn0] + [1] * n
    counts = [0] * n + [1] + [0] * n
    for _ in range(n):
        moved = [c << width * (s + 1) for c, s in zip(counts, signs)]
        counts = [a + b for a, b in zip([0] + moved[:-1], moved[1:] + [0])]
    law = sum(counts)
    mask = (1 << width) - 1
    cells = ((t, law >> width * (t + n) & mask) for t in range(-n, n + 1))
    return [(Fraction(t, n), Fraction(c, 1 << n)) for t, c in cells if c]


def sup_distance_discrete(atoms: Sequence[tuple[Fraction, Fraction]],
                          cdf: Callable[[float], float]) -> float:
    """Kolmogorov distance between a discrete law and a reference CDF.

    Evaluates both one-sided gaps at every atom (the supremum over the real
    line is attained at the jump points).
    """
    acc = Fraction(0)
    best = 0.0
    for value, prob in atoms:
        ref = float(cdf(float(value)))
        best = max(best, abs(float(acc) - ref))
        acc += prob
        best = max(best, abs(float(acc) - ref))
    return best


def ks_statistic(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a continuous CDF."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    size = values.size
    ref = np.asarray(cdf(values), dtype=np.float64)
    upper = np.arange(1, size + 1) / size - ref
    lower = ref - np.arange(0, size) / size
    return float(max(upper.max(), lower.max()))


def kolmogorov_pvalue(stat: float, nsamples: int) -> float:
    """Asymptotic two-sided p-value of the KS statistic."""
    return float(kolmogorov(stat * math.sqrt(nsamples)))


def ks_critical_value(alpha: float, nsamples: int) -> float:
    """Asymptotic critical KS distance at level alpha."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(nsamples)


@dataclass
class ArcsineReport:
    """Monte Carlo comparison of the sign-rule covariation with its limit law."""

    summary: MonteCarloSummary
    ks_stat: float
    ks_pvalue: float
    threshold: float
    passed: bool


def arcsine_test(n: int, reps: int, seed: SeedSpec, sgn0: int = -1,
                 alpha: float = 0.05,
                 threshold: float | None = None) -> ArcsineReport:
    """Sample the sign-rule terminal covariation and test it against the
    arcsine-derived reference CDF.

    The pass criterion compares the KS distance with ``threshold`` when
    given, otherwise with the asymptotic level-alpha critical value.
    """
    if reps < 100:
        raise ValueError("need at least 100 replicates")
    summary = mc_covariation(LevyRule(sgn0), n, reps, seed)
    ks = ks_statistic(summary.finals, reference_arcsine_cdf)
    limit = threshold if threshold is not None else ks_critical_value(alpha, reps)
    return ArcsineReport(
        summary=summary,
        ks_stat=ks,
        ks_pvalue=kolmogorov_pvalue(ks, reps),
        threshold=limit,
        passed=ks < limit,
    )

