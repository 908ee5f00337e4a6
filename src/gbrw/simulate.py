"""Monte Carlo generation of coupled walk pairs and their covariation.

The normalized pair (X_{nt}/sqrt(n), Y_{nt}/sqrt(n)) has quadratic
covariation (1/n) sum_{k <= nt} xi_k eta_k, a piecewise-constant series
with plus-or-minus 1/n jumps.  Its terminal value concentrates at the
correlation rho in the Gaussian regime and follows the arcsine-derived law
under the sign rule.

Monte Carlo runs its replicates in blocks of ``BLOCK_STEPS`` steps (one
replicate when a path is longer): each block is one draw of a (rows, n)
int8 array from ``SeedSpec.increment_block`` and one call of the rule's
kernel, which takes increments of shape (..., n) with time on the last
axis.  Replicate r always reads its own stream, so the results do not
depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.special import kolmogorov

from .philox import philox, raw_words, stream_key
from .rules import LevyRule, RecyclingRule

#: Steps per block of Monte Carlo replicates.  A path of more steps is a
#: block of its own, so long paths (1e5 steps) cost what they did one at a
#: time, in memory and in work per kernel call.
BLOCK_STEPS = 1 << 16
#: Blocks of more rows count their -1 multipliers along the time axis in one
#: call; smaller blocks, of paths of about 2,000 steps and more, count row by
#: row, where numpy's flat count is some five times faster per step.
_AXIS_COUNT_MIN_ROWS = 32

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
        if n < 0:
            raise ValueError("number of increments must be >= 0")
        words = raw_words(self.master, self.replicate, rows, -(-n // 64))
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                             axis=-1, count=n, bitorder="little")
        xi = bits.view(np.int8)
        xi *= -2
        xi += 1
        return xi


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
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    finals: np.ndarray
    ks_stat: float | None = None
    ks_pvalue: float | None = None


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


def _summarize(final_sums: np.ndarray, n: int, bins: int = 41,
               reference_cdf: Callable[[np.ndarray], np.ndarray] | None = None
               ) -> MonteCarloSummary:
    finals = final_sums / n
    reps = finals.size
    mean = float(finals.mean())
    variance = float(finals.var(ddof=1)) if reps > 1 else 0.0
    stderr = math.sqrt(variance / reps) if reps > 1 else 0.0
    counts, edges = np.histogram(finals, bins=bins, range=(-1.0, 1.0))
    ks = pval = None
    if reference_cdf is not None:
        ks = ks_statistic(finals, reference_cdf)
        pval = kolmogorov_pvalue(ks, reps)
    return MonteCarloSummary(
        replicates=reps,
        n=n,
        mean=mean,
        variance=variance,
        stderr=stderr,
        hist_counts=counts,
        hist_edges=edges,
        finals=finals,
        ks_stat=ks,
        ks_pvalue=pval,
    )


def mc_covariation(rule: RecyclingRule, n: int, reps: int, seed: SeedSpec,
                   reference_cdf: Callable[[np.ndarray], np.ndarray] | None = None
                   ) -> MonteCarloSummary:
    """Terminal covariation over independent replicates 0..reps-1 of the
    seed's master, one stream each.

    Since xi_k eta_k = psi_{k-1} xi_k**2 = psi_{k-1}, each replicate's sum is
    the sum of the rule's multipliers, n minus twice the number of -1s; eta
    is never formed.  Replicates run in blocks of ``BLOCK_STEPS`` steps, one
    draw and one kernel call each.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    if reps < 2:
        raise ValueError("need at least two replicates")
    rows = max(1, BLOCK_STEPS // n)
    sums = np.empty(reps, dtype=np.int64)
    for first in range(0, reps, rows):
        xi = seed.with_replicate(first).increment_block(min(rows, reps - first), n)
        minus = rule.multipliers(xi) < 0
        if len(minus) > _AXIS_COUNT_MIN_ROWS:
            counts = np.count_nonzero(minus, axis=-1)
        else:
            counts = [np.count_nonzero(row) for row in minus]
        sums[first:first + len(minus)] = n - 2 * np.asarray(counts)
    return _summarize(sums, n, reference_cdf=reference_cdf)


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

    Returns (atom, probability) pairs with exact rational values.  Paths are
    enumerated in chunks of 2**20 and walked one step at a time, so memory
    stays at a few arrays of one chunk; time grows as 2**n (n = 24 takes
    seconds).
    """
    if not 1 <= n <= 24:
        raise ValueError("exact enumeration supported for 1 <= n <= 24")
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    chunk = 1 << min(n, 20)
    for start in range(0, 1 << n, chunk):
        paths = np.arange(start, start + chunk, dtype=np.uint32)
        walk = np.zeros(chunk, dtype=np.int8)  # X_{k-1}, |X| <= n
        totals = np.zeros(chunk, dtype=np.int8)
        for j in range(n):
            totals += np.sign(walk)
            if sgn0:
                totals += (walk == 0).astype(np.int8) * np.int8(sgn0)
            walk += 1 - 2 * ((paths >> j) & 1).astype(np.int8)
        counts += np.bincount(totals.astype(np.int64) + n, minlength=2 * n + 1)
    atoms = []
    for i, cnt in enumerate(counts):
        if cnt:
            atoms.append((Fraction(i - n, n), Fraction(int(cnt), 1 << n)))
    return atoms


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
    summary = mc_covariation(LevyRule(sgn0), n, reps, seed,
                             reference_cdf=reference_arcsine_cdf)
    limit = threshold if threshold is not None else ks_critical_value(alpha, reps)
    return ArcsineReport(
        summary=summary,
        ks_stat=summary.ks_stat,
        ks_pvalue=summary.ks_pvalue,
        threshold=limit,
        passed=summary.ks_stat < limit,
    )

