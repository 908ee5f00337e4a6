"""Exact moment formulas for covariation increments and their diagnostics.

Writing zeta_{k-1} = eta_k xi_k = prod_{K in B(k)} xi_[K], the first and
second moments are finite signed sums of powers of two indexed by
sub-collections of the beta families:

    E[zeta_{k-1}]            = sum_H (-2)^|H| q(<H>)
    E[zeta_{k-1} zeta_{l-1}] = sum_{H,J} (-2)^(|H|+|J|) q(<H> union <J>)

with q(M) = 2^-|M|.  Index sets are int masks (bit k-1 for index k), and
the sums over sub-collections read the union popcounts of
``algebra.union_table``, whatever the width of the masks.  Everything here
is evaluated in exact dyadic arithmetic; floats appear only in convergence
verdicts.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_ENUM_CAP,
    DEFAULT_EXPANSION_CAP,
    BetaFamily,
    CapacityError,
    check_masks,
    mask_levels,
    union_table,
)
from .dyadic import Dyadic
from .rules import RecyclingRule
from .setseq import SetSequence

#: Default horizon for the quadratic-cost second-moment scan.
DEFAULT_B_HORIZON = 512
#: Default convergence tolerance for finite-horizon verdicts.
DEFAULT_TOLERANCE = 1e-2


def q(mask: int) -> Dyadic:
    """Probability that the max over the index set M of the mask (bit k-1
    for index k) of the increments is -1: 2**-|M|."""
    check_masks((mask,))
    return Dyadic.half_power(mask.bit_count())


def _components(masks: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Group non-empty member masks into overlap components (union, members)."""
    groups: list[tuple[int, list[int]]] = []
    for m in masks:
        union, members, rest = m, [m], []
        for group in groups:
            # groups are pairwise disjoint, so only overlap with m merges them
            if group[0] & m:
                union |= group[0]
                members += group[1]
            else:
                rest.append(group)
        rest.append((union, members))
        groups = rest
    return groups


def _subset_sum(members: Sequence[int]) -> tuple[int, int]:
    """sum_H (-1)^|H| 2^(|H| - |union H|) over sub-collections H, as
    (numerator, exponent) over the support size of the members."""
    table = union_table(members)
    union_pc = np.bitwise_count(table).sum(axis=1, dtype=np.int64)
    d = int(union_pc[-1])  # the last row is the whole support
    sizes = mask_levels(len(members))
    exps = d - union_pc + sizes
    odd = (sizes & 1).astype(bool)
    pos = np.bincount(exps[~odd], minlength=1)
    neg = np.bincount(exps[odd], minlength=1)
    numerator = 0
    for e, cnt in enumerate(pos):
        numerator += int(cnt) << e
    for e, cnt in enumerate(neg):
        numerator -= int(cnt) << e
    return numerator, d


def _component_terms(union: int, members: list[int]) -> tuple[int, int]:
    """E of the product of maxima over one overlap component, as
    (numerator, exponent)."""
    if len(members) == 1:
        d = union.bit_count()
        return (1 << d) - 2, d  # 1 - 2**(1-d)
    if len(members) == 2:
        d = union.bit_count()
        a, b = members[0].bit_count(), members[1].bit_count()
        return (1 << d) - (1 << (d - a + 1)) - (1 << (d - b + 1)) + 4, d
    return _subset_sum(members)


def _product_terms(masks: Sequence[int], cap: int) -> tuple[int, int]:
    """E[prod_K u_[K]] over member masks (bit k-1 for index k), as
    (numerator, exponent); the value is numerator / 2**exponent."""
    nonempty = [m for m in masks if m]
    sign = -1 if (len(masks) - len(nonempty)) & 1 else 1
    if all(m & (m - 1) == 0 for m in nonempty):
        # a plain product of signs: zero unless every index occurs an even
        # number of times
        parity = 0
        for m in nonempty:
            parity ^= m
        return (0 if parity else sign), 0
    components = _components(nonempty)
    for _, members in components:
        if len(members) > cap:
            raise CapacityError(
                f"overlap component of size {len(members)} exceeds expansion cap {cap}"
            )
    numerator, exponent = sign, 0
    for union, members in components:
        num, exp = _component_terms(union, members)
        numerator *= num
        exponent += exp
    return numerator, exponent


def expected_product(masks: Sequence[int],
                     cap: int = DEFAULT_EXPANSION_CAP) -> Dyadic:
    """Exact expectation of a product of increment maxima over the index
    sets of the masks (bit k-1 for index k).

    Factorizes over overlap components (maxima over disjoint index sets are
    independent); the 2**size sub-collection sum runs per component on the
    union table, so the cap applies to the largest component rather than
    the whole collection.
    """
    check_masks(masks)
    return Dyadic(*_product_terms(masks, cap))


def expected_zeta(family: BetaFamily, cap: int = DEFAULT_EXPANSION_CAP) -> Dyadic:
    """E[zeta_{k-1}] for the multiplier encoded by the family."""
    return Dyadic(*_product_terms(family.masks, cap))


def expected_zeta_pair(fam_k: BetaFamily, fam_l: BetaFamily,
                       cap: int = DEFAULT_EXPANSION_CAP) -> Dyadic:
    """E[zeta_{k-1} zeta_{l-1}]; the two families contribute independently
    chosen sub-collections, which is the subset sum over their concatenation."""
    return Dyadic(*_product_terms(fam_k.masks + fam_l.masks, cap))


def brute_force_expect(families: Sequence[BetaFamily],
                       cap: int = DEFAULT_ENUM_CAP) -> Dyadic:
    """Oracle: average the product of family evaluations over all sign
    assignments of the joint index support."""
    support = functools.reduce(operator.or_, (m for f in families for m in f.masks), 0)
    bits = [b for b in range(support.bit_length()) if support >> b & 1]
    d = len(bits)
    if d > cap:
        raise CapacityError(f"joint support {d} exceeds enumeration cap {cap}")
    # relabel the support onto bits 0..d-1
    member_masks = [
        [sum(1 << i for i, b in enumerate(bits) if m >> b & 1) for m in fam.masks]
        for fam in families
    ]
    total = 0
    chunk = 1 << min(d, 20)
    for start in range(0, 1 << d, chunk):
        masks = np.arange(start, start + chunk, dtype=np.int64)
        prod = np.ones(masks.size, dtype=np.int8)
        for fam_masks in member_masks:
            for mm in fam_masks:  # u_[K] = -1 on the supersets of K
                prod[(masks & mm) == mm] *= -1
        total += int(prod.sum(dtype=np.int64))
    return Dyadic(total, d)


# ---------------------------------------------------------------------------
# Finite-horizon condition diagnostics


@dataclass
class MomentReport:
    """Per-step moments, Cesaro means, and a finite-horizon verdict.

    The verdict is a heuristic on the computed horizon; it never claims to
    decide the limit.
    """

    horizon: int
    rho: list[Dyadic]
    cesaro: list[Fraction]
    verdict: str
    tolerance: float
    stabilized: Dyadic | None = None
    double_cesaro: list[Fraction] | None = None
    rho_estimate: float | None = None
    theta_rows: list[tuple[int, int, Dyadic]] | None = None

    def final_cesaro(self) -> Fraction:
        return self.cesaro[-1]


def _tail_range(values: list[Fraction]) -> float:
    tail = values[len(values) // 2:]
    return float(max(tail) - min(tail))


def _stabilized_tail(rho: list[Dyadic]) -> Dyadic | None:
    tail = rho[len(rho) // 2:]
    first = tail[0]
    if all(r == first for r in tail[1:]):
        return first
    return None


def _first_moment_scan(rule: RecyclingRule, horizon: int, tolerance: float,
                       cap: int, expansion_cap: int
                       ) -> tuple[MomentReport, list[tuple[int, ...]]]:
    """condition_A_partial, also returning the member masks of each step.

    Each step's family is built and evaluated before the next is built, so
    the first step past a cap fails at once.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    step_masks: list[tuple[int, ...]] = []
    rho: list[Dyadic] = []
    cesaro: list[Fraction] = []
    total, total_exp = 0, 0  # running sum total / 2**total_exp
    for k in range(1, horizon + 1):
        try:
            masks = rule.step_family(k, cap).masks
            num, exp = _product_terms(masks, expansion_cap)
        except CapacityError as exc:
            if str(exc).startswith(f"step {k}:"):
                raise
            raise CapacityError(f"step {k}: {exc}") from exc
        step_masks.append(masks)
        rho.append(Dyadic(num, exp))
        if exp > total_exp:
            total <<= exp - total_exp
            total_exp = exp
        total += num << (total_exp - exp)
        cesaro.append(Fraction(total, k << total_exp))
    stabilized = _stabilized_tail(rho)
    # an eventually constant per-step sequence has that constant as its
    # Cesaro limit, no tolerance needed
    if stabilized is not None or _tail_range(cesaro) < tolerance:
        verdict = "converged"
    else:
        verdict = "undetermined"
    estimate = float(stabilized) if stabilized is not None else float(cesaro[-1])
    report = MomentReport(
        horizon=horizon,
        rho=rho,
        cesaro=cesaro,
        verdict=verdict,
        tolerance=tolerance,
        stabilized=stabilized,
        rho_estimate=estimate,
    )
    return report, step_masks


def condition_A_partial(rule: RecyclingRule, horizon: int,
                        tolerance: float = DEFAULT_TOLERANCE,
                        cap: int = DEFAULT_ENUM_CAP,
                        expansion_cap: int = DEFAULT_EXPANSION_CAP) -> MomentReport:
    """First-moment Cesaro scan: rho_k = E[zeta_{k-1}] for k <= horizon.

    Converged means the last half of the Cesaro sequence has range below the
    tolerance.
    """
    return _first_moment_scan(rule, horizon, tolerance, cap, expansion_cap)[0]


def condition_B_partial(rule: RecyclingRule, horizon: int = DEFAULT_B_HORIZON,
                        tolerance: float = DEFAULT_TOLERANCE,
                        cap: int = DEFAULT_ENUM_CAP,
                        expansion_cap: int = DEFAULT_EXPANSION_CAP,
                        keep_grid: bool = False) -> MomentReport:
    """Second-moment scan: double Cesaro means of theta_{k,l} versus rho**2.

    Visits all O(horizon**2) pairs, but evaluates few of them in full.  The
    step families are built once, by the first-moment scan, and each pair
    takes the first path that applies:

    - disjoint supports: the two products are independent, so
      theta_{k,l} = rho_k rho_l from the first-moment scan;
    - both families plain products of signs (members of size <= 1):
      +-1 when the two index sets agree, else 0;
    - otherwise the product over overlap components: closed forms for
      components of one or two members, the subset sum for larger ones.

    The double sums are held as one integer numerator over a power of two.
    The verdict is converged when the tail of the double means is stable and
    lands within the tolerance of the squared first-moment estimate,
    diverged when stable but away from it.
    """
    report_a, step_masks = _first_moment_scan(
        rule, horizon, tolerance, cap, expansion_cap
    )
    supports, parities, signs, plain = [], [], [], []
    for masks in step_masks:
        support = parity = 0
        for m in masks:
            support |= m
            parity ^= m
        supports.append(support)
        parities.append(parity)
        signs.append(-1 if masks and masks[0] == 0 else 1)
        plain.append(all(m & (m - 1) == 0 for m in masks))
    rho_num = [r.numerator for r in report_a.rho]
    rho_exp = [r.exponent for r in report_a.rho]
    rows: list[tuple[int, int, Dyadic]] | None = [] if keep_grid else None
    double: list[Fraction] = []
    total, total_exp = 0, 0  # running double sum total / 2**total_exp
    # exact stabilization scan: if rho settles at r and every computed theta
    # with both indices in the tail half and separation beyond a fixed band
    # equals r**2 exactly, the double Cesaro limit is r**2 (the band and the
    # head contribute O(1/horizon))
    r_stab = report_a.stabilized
    r_sq = r_stab * r_stab if r_stab is not None else Dyadic(0)
    band = max(1, horizon // 8)
    tail_start = horizon // 2 + 1
    theta_stable = r_stab is not None
    for l in range(1, horizon + 1):
        j = l - 1
        supp_l, parity_l, sign_l, plain_l = supports[j], parities[j], signs[j], plain[j]
        for k in range(1, l):
            i = k - 1
            if not supports[i] & supp_l:
                num, exp = rho_num[i] * rho_num[j], rho_exp[i] + rho_exp[j]
            elif plain[i] and plain_l:
                num = signs[i] * sign_l if parities[i] == parity_l else 0
                exp = 0
            else:
                try:
                    num, exp = _product_terms(
                        step_masks[i] + step_masks[j], expansion_cap
                    )
                except CapacityError as exc:
                    raise CapacityError(f"pair ({k},{l}): {exc}") from exc
            if exp > total_exp:
                total <<= exp - total_exp
                total_exp = exp
            total += num << (total_exp - exp + 1)  # symmetric off-diagonal pair
            if (theta_stable and k >= tail_start and l - k >= band
                    and num << r_sq.exponent != r_sq.numerator << exp):
                theta_stable = False
            if rows is not None:
                rows.append((k, l, Dyadic(num, exp)))
        total += 1 << total_exp  # theta_{l,l} = E[zeta**2] = 1
        if rows is not None:
            rows.append((l, l, Dyadic(1)))
        double.append(Fraction(total, (l * l) << total_exp))
    rho_sq = Fraction(report_a.final_cesaro()) ** 2
    stable = _tail_range(double) < tolerance
    close = abs(float(double[-1] - rho_sq)) < tolerance
    if r_stab is not None and theta_stable:
        verdict = "converged"
    elif stable and close:
        verdict = "converged"
    elif stable:
        verdict = "diverged"
    else:
        verdict = "undetermined"
    return MomentReport(
        horizon=horizon,
        rho=report_a.rho,
        cesaro=report_a.cesaro,
        verdict=verdict,
        tolerance=tolerance,
        stabilized=report_a.stabilized,
        double_cesaro=double,
        rho_estimate=report_a.rho_estimate,
        theta_rows=rows,
    )


# ---------------------------------------------------------------------------
# Closed forms


def closed_form_disjoint(kappa: int, limit_size: int | None) -> Dyadic:
    """Limit correlation for families of disjoint sets of equal cardinality.

    ``limit_size`` is the limit of the family sizes; None encodes divergence
    to infinity.  Zero for cardinality one or unbounded families, otherwise
    (1 - 2**(1-kappa)) ** limit_size.  A limit size of zero means eventually
    empty families, where the covariation increment is identically +1, so
    the empty product wins over the cardinality-one case.
    """
    if kappa < 1:
        raise ValueError("cardinality must be >= 1")
    if limit_size == 0:
        return Dyadic(1)
    if kappa == 1:
        return Dyadic(0)
    if limit_size is None:
        return Dyadic(0)
    if limit_size < 0:
        raise ValueError("limit size must be non-negative")
    base = Dyadic(1) - Dyadic.half_power(kappa - 1)
    out = Dyadic(1)
    for _ in range(limit_size):
        out = out * base
    return out


def window_rho(m: int | None) -> Dyadic:
    """Correlation 1 - 2**(1-m) of the window-max rule; 1 in the limit m -> inf."""
    if m is None:
        return Dyadic(1)
    if m < 1:
        raise ValueError("window length must be >= 1")
    return Dyadic(1) - Dyadic.half_power(m - 1)


def sign_flip_rho(p) -> Fraction:
    """Correlation 1 - 2p of the constant-flip rule with flip density p."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("flip density must lie in [0, 1]")
    return 1 - 2 * p


# ---------------------------------------------------------------------------
# Set-sequence diagnostics


@dataclass
class SetSequenceReport:
    """First-occurrence and match-fraction diagnostics of a set sequence."""

    horizon: int
    first_match: list[int]              # N(n) = inf{k : M_k = M_n}
    n_ratio: list[Fraction]             # N(n) / n
    match_fraction: list[Fraction]      # (1/n) sum_{k<=n} 1{M_k = M_n}
    nested: bool
    independent_limit: bool
    tolerance: float


def analyze_set_sequence(seq: SetSequence, horizon: int,
                         tolerance: float = DEFAULT_TOLERANCE) -> SetSequenceReport:
    """Scan N(n)/n and the match fraction over the horizon.

    Flags the empirical sufficient condition for an independent Brownian
    limit: the tail of the match fraction sits below the tolerance.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    lo, hi = seq.bounds(horizon)
    first_seen: dict[tuple[int, int], int] = {}
    counts: dict[tuple[int, int], int] = {}
    first_match: list[int] = []
    n_ratio: list[Fraction] = []
    match_fraction: list[Fraction] = []
    for n, key in enumerate(zip(lo.tolist(), hi.tolist()), start=1):
        first_seen.setdefault(key, n)
        counts[key] = counts.get(key, 0) + 1
        first_match.append(first_seen[key])
        n_ratio.append(Fraction(first_seen[key], n))
        match_fraction.append(Fraction(counts[key], n))
    # M_n within M_{n+1}: M_n empty, or its bounds inside the next ones
    nested = bool(np.all((hi[:-1] < lo[:-1])
                         | ((lo[1:] <= lo[:-1]) & (hi[:-1] <= hi[1:]))))
    tail = match_fraction[horizon // 2:]
    independent = max(float(f) for f in tail) < tolerance
    return SetSequenceReport(
        horizon=horizon,
        first_match=first_match,
        n_ratio=n_ratio,
        match_fraction=match_fraction,
        nested=nested,
        independent_limit=independent,
        tolerance=tolerance,
    )


@dataclass
class IntersectionReport:
    """Mean intersection sizes with the next set, plus recurring indices."""

    horizon: int
    mean_intersection: list[Fraction]   # d_N = (1/N) sum_{k<=N} |M_k /\ M_{N+1}|
    cardinality: int
    recurring: list[int]                # indices present in >= threshold sets
    threshold: int


def intersection_diagnostic(seq: SetSequence, horizon: int,
                            threshold: int | None = None) -> IntersectionReport:
    """Finite-horizon proxy for the vanishing-limsup hypothesis.

    Requires the set cardinalities to have settled to a constant on the
    second half of the horizon (the hypothesis holds eventually, not
    necessarily from the first step).
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    lo, hi = seq.bounds(horizon + 1)
    tail_sizes = set((hi - lo + 1)[horizon // 2:].tolist())
    if len(tail_sizes) != 1:
        raise ValueError(
            f"set cardinality does not settle (tail sizes {sorted(tail_sizes)})"
        )
    if threshold is None:
        threshold = max(2, horizon // 2)
    mean_intersection: list[Fraction] = []
    for n in range(1, horizon + 1):
        # |M_k /\ M_{n+1}| for k <= n, from the overlap of the bounds
        overlap = np.minimum(hi[:n], hi[n]) - np.maximum(lo[:n], lo[n]) + 1
        mean_intersection.append(Fraction(int(np.maximum(overlap, 0).sum()), n))
    # appearances of each index in M_1..M_horizon: +1 at lo, -1 past hi
    appearance = np.cumsum(np.bincount(lo[:horizon], minlength=horizon + 1)
                           - np.bincount(hi[:horizon] + 1, minlength=horizon + 1))
    recurring = np.flatnonzero(appearance >= threshold).tolist()
    return IntersectionReport(
        horizon=horizon,
        mean_intersection=mean_intersection,
        cardinality=next(iter(tail_sizes)),
        recurring=recurring,
        threshold=threshold,
    )
