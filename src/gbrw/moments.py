"""Exact moment formulas for covariation increments and their diagnostics.

Writing zeta_{k-1} = eta_k xi_k = prod_{K in B(k)} xi_[K], the first and
second moments are finite signed sums of powers of two indexed by
sub-collections of the beta families:

    E[zeta_{k-1}]            = sum_H (-2)^|H| q(<H>)
    E[zeta_{k-1} zeta_{l-1}] = sum_{H,J} (-2)^(|H|+|J|) q(<H> union <J>)

with q(M) = 2^-|M|.  Index sets are int masks (bit k-1 for index k), and
the sums over sub-collections read the union popcounts of
``algebra.union_table``, whatever the width of the masks.  The condition
scans read these sums only for rules without a state model; for the others
they count the 2^(k-1) paths per state instead.  The grid of theta_{k,l}
holds one id per pair into its distinct values.  Everything here is
evaluated in exact dyadic arithmetic; floats appear only in convergence
verdicts.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import (
    BetaFamily,
    CapacityError,
    check_enum_cap,
    check_expansion_cap,
    check_masks,
    mask_levels,
    union_table,
)
from .dyadic import Dyadic, reduced
from .rules import RecyclingRule, StateModel
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


def _product_terms(masks: Sequence[int]) -> tuple[int, int]:
    """E[prod_K u_[K]] over member masks (bit k-1 for index k), as
    (numerator, exponent); the value is numerator / 2**exponent."""
    nonempty = list(filter(None, masks))
    sign = -1 if (len(masks) - len(nonempty)) & 1 else 1
    if sum(map(int.bit_count, nonempty)) == len(nonempty):
        # a plain product of signs: zero unless every index occurs an even
        # number of times
        return (0 if functools.reduce(operator.xor, nonempty, 0) else sign), 0
    components = _components(nonempty)
    for _, members in components:
        check_expansion_cap(len(members), "overlap component of size")
    numerator, exponent = sign, 0
    for union, members in components:
        num, exp = _component_terms(union, members)
        numerator *= num
        exponent += exp
    return numerator, exponent


def expected_product(masks: Sequence[int]) -> Dyadic:
    """Exact expectation of a product of increment maxima over the index
    sets of the masks (bit k-1 for index k).

    Factorizes over overlap components (maxima over disjoint index sets are
    independent); the 2**size sub-collection sum runs per component on the
    union table, so the cap applies to the largest component rather than
    the whole collection.
    """
    check_masks(masks)
    return Dyadic(*_product_terms(masks))


def expected_zeta(family: BetaFamily) -> Dyadic:
    """E[zeta_{k-1}] for the multiplier encoded by the family."""
    return Dyadic(*_product_terms(family.masks))


def expected_zeta_pair(fam_k: BetaFamily, fam_l: BetaFamily) -> Dyadic:
    """E[zeta_{k-1} zeta_{l-1}]; the two families contribute independently
    chosen sub-collections, which is the subset sum over their concatenation."""
    return Dyadic(*_product_terms(fam_k.masks + fam_l.masks))


def brute_force_expect(families: Sequence[BetaFamily]) -> Dyadic:
    """Oracle: average the product of family evaluations over all sign
    assignments of the joint index support."""
    support = functools.reduce(operator.or_, (m for f in families for m in f.masks), 0)
    bits = [b for b in range(support.bit_length()) if support >> b & 1]
    d = len(bits)
    check_enum_cap(d, "joint support")
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

    Held as exact integers: rho_k as the reduced (numerator, exponent) pair
    rho_terms[k-1], the k-th Cesaro mean as sums[k-1] / (k 2**sum_exponent)
    and the l-th double one as double_sums[l-1] / (l**2 2**double_exponent).
    ``rho``, ``cesaro`` and ``double_cesaro`` build the lists on first read.

    The verdict is a heuristic on the computed horizon; it never claims to
    decide the limit.
    """

    horizon: int
    rho_terms: list[tuple[int, int]]
    sums: list[int]
    sum_exponent: int
    verdict: str
    tolerance: float
    stabilized: Dyadic | None = None
    double_sums: list[int] | None = None
    double_exponent: int = 0
    rho_estimate: float | None = None
    theta_cells: tuple | None = None  # per-pair ids (int array), distinct values

    @functools.cached_property
    def rho(self) -> list[Dyadic]:
        return [Dyadic(*term) for term in self.rho_terms]

    @functools.cached_property
    def cesaro(self) -> list[Fraction]:
        return [Fraction(t, k << self.sum_exponent) for k, t in enumerate(self.sums, start=1)]

    @functools.cached_property
    def double_cesaro(self) -> list[Fraction] | None:
        if self.double_sums is None:
            return None
        return [Fraction(t, l * l << self.double_exponent)
                for l, t in enumerate(self.double_sums, start=1)]

    @functools.cached_property
    def theta_grid(self) -> tuple | None:
        """(k, l, numerator, exponent) columns of theta_{k,l}, k <= l, read
        off ``theta_cells``: k and l as int arrays, the rest Python ints."""
        if self.theta_cells is not None:
            ids, values = self.theta_cells
            cells = map(values.__getitem__, ids.tolist())
            return *pair_steps(self.horizon), *map(list, zip(*cells))

    def final_cesaro(self) -> Fraction:
        return Fraction(self.sums[-1], self.horizon << self.sum_exponent)

    def final_double_cesaro(self) -> Fraction:
        return Fraction(self.double_sums[-1], self.horizon ** 2 << self.double_exponent)


def _add(total: int, total_exp: int, num: int, exp: int) -> tuple[int, int]:
    """total / 2**total_exp + num / 2**exp, over the larger power of two."""
    if exp > total_exp:
        return (total << (exp - total_exp)) + num, exp
    return total + (num << (total_exp - exp)), total_exp


def _running_sums(terms: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Running sums of (numerator, exponent) terms, over their largest power
    of two: (totals, exponent)."""
    exponent = max(exp for _, exp in terms)
    return list(itertools.accumulate(num << exponent - exp for num, exp in terms)), exponent


def _tail_range(totals: list[int], exponent: int, power: int) -> float:
    """max - min of the last half of the means totals[k-1] / (k**power
    2**exponent); the extremes are found by integer cross-multiplication."""
    start = len(totals) // 2
    hi = lo = (totals[start], (start + 1) ** power)  # (total, k**power)
    for k, total in enumerate(totals[start + 1:], start=start + 2):
        den = k ** power
        if total * hi[1] > hi[0] * den:
            hi = total, den
        elif total * lo[1] < lo[0] * den:
            lo = total, den
    # int / int rounds correctly, so this is float(Fraction) of the range
    return (hi[0] * lo[1] - lo[0] * hi[1]) / (hi[1] * lo[1] << exponent)


def _first_moment_report(terms: list[tuple[int, int]], tolerance: float) -> MomentReport:
    """Per-step values, Cesaro means and verdict of rho_k = numerator /
    2**exponent, given per step."""
    rho = list(itertools.starmap(reduced, terms))
    sums, exponent = _running_sums(terms)
    tail = rho[len(rho) // 2:]
    stabilized = Dyadic(*tail[0]) if tail.count(tail[0]) == len(tail) else None
    # an eventually constant per-step sequence has that constant as its
    # Cesaro limit, no tolerance needed
    if stabilized is not None or _tail_range(sums, exponent, 1) < tolerance:
        verdict = "converged"
    else:
        verdict = "undetermined"
    # int / int rounds as float(Fraction) does
    estimate = float(stabilized) if stabilized is not None else sums[-1] / (len(terms) << exponent)
    return MomentReport(
        horizon=len(terms),
        rho_terms=rho,
        sums=sums,
        sum_exponent=exponent,
        verdict=verdict,
        tolerance=tolerance,
        stabilized=stabilized,
        rho_estimate=estimate,
    )


def _family_scan(rule: RecyclingRule, horizon: int) -> tuple[list[tuple[int, int]], list[tuple]]:
    """rho_k from the beta families as (numerator, exponent), and each step's
    (member masks, support, sign, non-empty members, plain).

    Each step's family is built and evaluated before the next is built, so
    the first step past a cap fails at once.
    """
    terms: list[tuple[int, int]] = []
    steps: list[tuple] = []
    for k in range(1, horizon + 1):
        try:
            masks = rule.step_family(k).masks
            # members are sorted and distinct: the empty set comes first, and
            # distinct singletons sum, and XOR, to their support
            sign = -1 if masks and not masks[0] else 1
            size = len(masks) - (sign < 0)
            plain = sum(map(int.bit_count, masks)) == size
            support = sum(masks) if plain else functools.reduce(operator.or_, masks, 0)
            num, exp = ((0 if support else sign), 0) if plain else _product_terms(masks)
        except CapacityError as exc:
            if str(exc).startswith(f"step {k}:"):
                raise
            raise CapacityError(f"step {k}: {exc}") from exc
        steps.append((masks, support, sign, size, plain))
        terms.append((num, exp))
    return terms, steps


def _pair_scan(report_a: MomentReport, steps: list[tuple], keep_grid: bool
               ) -> tuple[list[tuple[int, int]], bool, tuple[np.ndarray, ...] | None]:
    """Row sums sum_{k<l} theta_{k,l} of the beta families as (numerator,
    exponent), the exact-stabilization flag, and the grid cells when kept.

    Disjoint supports give theta_{k,l} = rho_k rho_l (independent products),
    from the running sum of rho; two plain families (members of size <= 1)
    give s_k s_l when their parities agree and 0 otherwise, from the plain
    steps' signs summed per parity.  The other overlapping pairs are found
    from the support spans and evaluated over their overlap components; they
    and the plain pairs of equal non-empty parity are the grid cells.
    """
    # members are sorted and distinct, so a plain family's parity is its support
    step_masks, supports, signs, sizes, plain = zip(*steps)
    horizon = len(steps)
    lo = np.array([(s & -s).bit_length() - 1 for s in supports])
    hi = np.array([s.bit_length() - 1 for s in supports])
    others = np.flatnonzero(~np.array(plain))  # the steps not plain, ascending
    seen = 0  # how many of them precede the row
    rho_num, rho_exp = zip(*report_a.rho_terms)
    cells = ([], []) if keep_grid else None  # (index, reduced (numerator, exponent))
    rows: list[tuple[int, int]] = []
    rho_sums = [(0, 0), (0, 0)]  # rho summed over the steps not plain, plain
    plain_signs: dict[int, int] = {}  # parity -> sum of the plain steps' signs
    # exact stabilization (see _second_moment_report): disjoint and plain tail
    # pairs give r**2 by construction, except plain ones of equal parity when
    # r = 0
    r_stab = report_a.stabilized
    r_sq = r_stab * r_stab if r_stab is not None else Dyadic(0)
    band = max(1, horizon // 8)
    half = horizon // 2  # index of the first tail step
    theta_stable = r_stab is not None
    first_plain = {}  # parity -> first plain tail step, checked when r = 0
    for j in range(horizon):
        l = j + 1
        supp_l, sign_l, plain_l = supports[j], signs[j], plain[j]
        num_l, exp_l = rho_num[j], rho_exp[j]
        row, row_exp = num_l * rho_sums[0][0], exp_l + rho_sums[0][1]
        if plain_l:
            row, row_exp = _add(row, row_exp, sign_l * plain_signs.get(supp_l, 0), 0)
        else:
            row, row_exp = _add(row, row_exp, num_l * rho_sums[1][0], exp_l + rho_sums[1][1])
        if not plain_l:
            near, seen = np.flatnonzero((lo[:j] <= hi[j]) & (hi[:j] >= lo[j])).tolist(), seen + 1
        elif seen:  # a plain row meets the plain steps in its parity sums
            earlier = others[:seen]
            near = earlier[(lo[earlier] <= hi[j]) & (hi[earlier] >= lo[j])].tolist()
        else:
            near = []
        for i in near:
            if not supports[i] & supp_l:
                continue
            if sizes[i] == sizes[j] == 1:
                num, exp = _component_terms(supports[i] | supp_l, [supports[i], supp_l])
                num *= signs[i] * sign_l
            else:
                try:
                    num, exp = _product_terms(step_masks[i] + step_masks[j])
                except CapacityError as exc:
                    raise CapacityError(f"pair ({i + 1},{l}): {exc}") from exc
            row, row_exp = _add(row, row_exp, num, exp)
            row, row_exp = _add(row, row_exp, -rho_num[i] * num_l, rho_exp[i] + exp_l)
            if (theta_stable and i >= half and j - i >= band
                    and num << r_sq.exponent != r_sq.numerator << exp):
                theta_stable = False
            if keep_grid:
                cells[0].append(j * l // 2 + i)
                cells[1].append(reduced(num, exp))
        rows.append((row, row_exp))
        rho_sums[plain_l] = _add(*rho_sums[plain_l], num_l, exp_l)
        if plain_l:
            plain_signs[supp_l] = plain_signs.get(supp_l, 0) + sign_l
            if theta_stable and not r_sq and j >= half:
                theta_stable = j - first_plain.setdefault(supp_l, j) < band
    if keep_grid:
        # plain pairs of one non-empty parity (-1 marks the rest): s_k s_l, not rho_k rho_l = 0
        last = {s: j for j, s in enumerate(supports)}  # one index per parity
        parity = np.array([last[s] if p and s else -1 for s, p in zip(supports, plain)])
        shared = np.flatnonzero((parity >= 0) & (np.bincount(parity + 1)[parity + 1] > 1))
        i, j = (shared[side] for side in np.triu_indices(shared.size, 1))
        same = parity[i] == parity[j]
        i, j, signs = i[same], j[same], np.array(signs)
        cells[0].extend((j * (j + 1) // 2 + i).tolist())
        cells[1].extend((s, 0) for s in (signs[i] * signs[j]).tolist())
    return rows, theta_stable, cells


def pair_steps(horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The steps k and l of the pairs k <= l <= horizon, the pair (k, l) at
    index l(l-1)/2 + k-1."""
    l = np.repeat(np.arange(1, horizon + 1), np.arange(1, horizon + 1))
    return np.arange(1, l.size + 1) - l * (l - 1) // 2, l


def _pair_grid(rho_terms: list[tuple[int, int]], cells: tuple[list, list]
               ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """theta_{k,l}, k <= l, as an id per pair (ordered as ``pair_steps``)
    into the list of its distinct reduced (numerator, exponent) values: the
    cells a scan evaluated (indices and reduced values), 1 on the
    diagonal and rho_k rho_l at every other pair.  The products are taken
    once per pair of distinct rho values some such pair has."""
    ids_of: dict[tuple[int, int], int] = {}  # value -> id, in order of first use
    rho_ids = np.array([ids_of.setdefault(term, len(ids_of)) for term in rho_terms])
    rho_values, size = list(ids_of), len(ids_of)
    k, l = pair_steps(len(rho_terms))
    bulk = k != l
    bulk[cells[0]] = False
    combos, inverse = np.unique(rho_ids[k[bulk] - 1] * size + rho_ids[l[bulk] - 1],
                                return_inverse=True)
    ids = np.full(k.size, ids_of.setdefault((1, 0), len(ids_of)))
    products = []
    for combo in combos.tolist():
        (num_k, exp_k), (num_l, exp_l) = rho_values[combo // size], rho_values[combo % size]
        products.append(ids_of.setdefault(reduced(num_k * num_l, exp_k + exp_l), len(ids_of)))
    ids[bulk] = np.array(products, dtype=np.int64)[inverse]
    ids[cells[0]] = [ids_of.setdefault(value, len(ids_of)) for value in cells[1]]
    return ids, list(ids_of)


#: Automata of at most this many states keep their counts in Python lists,
#: whose few entries cost less than numpy's per-call overhead; larger ones
#: (the walk) in one numpy object matrix.
_LIST_STATES = 16


def _push_rows(model: StateModel, rows: np.ndarray, states: np.ndarray,
               into: np.ndarray) -> np.ndarray:
    """The rows of counts over ``states`` moved one step on: each entry
    added to the columns of its two successors among ``into``."""
    new = np.zeros((len(rows), len(into)), dtype=object)
    for moves in (model.minus, model.plus):
        np.add.at(new, (slice(None), np.searchsorted(into, moves[states])), rows)
    return new


@functools.lru_cache(maxsize=4096)
def _compiled_step(push: str, signs: bytes, dtype: str):
    """(c, b) -> (c.out, b.out, push(c), push(b + c out)) for the output vector
    ``signs`` (a ``dtype`` array's bytes) of an automaton whose entries push as
    ``push``: straight-line code with the signs written in, several times faster
    than mapping over the lists and pushing in a loop.  For ``brw`` (out = [1, -1])
    it returns c0 - c1, b0 - b1, [c1+c0, c0+c1] and [d1+d0, d0+d1], with
    d = b0 + c0, b1 - c1."""
    ops = ["-" if s < 0 else "+" for s in np.frombuffer(signs, dtype).tolist()]
    names = "".join(f"{{0}}{i}, " for i in range(len(ops))).format
    dot = " ".join(f"{op} {{0}}{i}" for i, op in enumerate(ops)).removeprefix("+ ").format
    push, scope = push.format, {}
    exec(f"def advance(c, b):\n    {names('c')}= c\n    {names('b')}= b\n"
         f"    {names('d')}= {''.join(f'b{i} {op} c{i}, ' for i, op in enumerate(ops))}\n"
         f"    return {dot('c')}, {dot('b')}, [{push('c')}], [{push('d')}]", scope)
    return scope["advance"]


class _ListCounts:
    """The path counts ``c`` and the weighted counts ``b`` of a small
    automaton in Python lists, moved on by one compiled step per output
    vector, and the kept rows in an object matrix over every state."""

    def __init__(self, model: StateModel):
        self.model = model
        self.states = np.arange(model.size)
        self.c, self.b = [0] * model.size, [0] * model.size
        self.c[model.initial] = 1
        self.rows = np.zeros((0, model.size), dtype=object)
        sources = [[*np.flatnonzero(model.minus == t), *np.flatnonzero(model.plus == t)]
                   for t in range(model.size)]
        # the automaton's shape: each entry's push, given a list's letter
        self.push = ", ".join("+".join(f"{{0}}{s}" for s in src) or "0" for src in sources)

    def values(self, out: np.ndarray) -> tuple[int, int, list[int]]:
        """c.out, b.out and each kept row's dot with out; the pushed c and b
        wait for ``step``."""
        self.out = out
        advance = _compiled_step(self.push, out.tobytes(), out.dtype.str)
        num, row, self.next_c, self.next_b = advance(self.c, self.b)
        return num, row, self.rows.dot(out).tolist() if len(self.rows) else []

    def varies(self) -> bool:
        """Whether the signs differ between states some path is in."""
        return len({s for s, count in zip(self.out.tolist(), self.c) if count}) > 1

    def step(self, keep: bool, drop: int) -> None:
        """b <- push(b + c out), c <- push(c), with the first ``drop`` kept
        rows forgotten, the row c out kept if asked, and every kept row pushed."""
        if drop:
            self.rows = self.rows[drop:]
        if keep:
            self.rows = np.vstack([self.rows, np.array(self.c, dtype=object) * self.out])
        self.c, self.b = self.next_c, self.next_b
        if len(self.rows):
            self.rows = _push_rows(self.model, self.rows, self.states, self.states)


class _MatrixCounts:
    """``c``, ``b`` and the kept rows as the rows of one object matrix over
    the states some path is in, which for the walk value are far fewer than
    the states of the horizon."""

    def __init__(self, model: StateModel):
        self.model = model
        self.states = np.array([model.initial])
        self.rows = np.array([[1], [0]], dtype=object)

    def values(self, out: np.ndarray) -> tuple[int, int, list[int]]:
        self.signs = out[self.states]
        num, row, *thetas = self.rows.dot(self.signs).tolist()
        return num, row, thetas

    def varies(self) -> bool:
        return bool((self.signs != self.signs[0]).any())

    def step(self, keep: bool, drop: int) -> None:
        rows = np.delete(self.rows, np.s_[2:2 + drop], axis=0) if drop else self.rows
        rows[1] += rows[0] * self.signs
        if keep:
            rows = np.vstack([rows, rows[0] * self.signs])
        into = np.union1d(self.model.minus[self.states], self.model.plus[self.states])
        self.rows = _push_rows(self.model, rows, self.states, into)
        self.states = into


def _state_scan(model: StateModel, horizon: int, keep_grid: bool
                ) -> tuple[list[tuple[int, int]], list[tuple[int, int]], bool,
                           tuple[list[int], ...] | None]:
    """rho_k and the row sums sum_{j<k} theta_{j,k} of an automaton, as
    (numerator, exponent), the exact-stabilization flag, and the grid cells
    when kept.

    ``c`` counts the paths per state and ``b`` weights each path by the sum
    of its outputs so far: at step k, rho_k = c.out_k / 2**(k-1) and the row
    sum is b.out_k / 2**(k-1); then b <- push(b + c out_k) and c <- push(c).
    theta_{j,k} itself is the row c out_j of step j, pushed on to step k and
    dotted with out_k.  Pairs at least the model's depth apart give rho_j
    rho_k, and so do steps whose output is the same in every state some path
    is in; so a row is kept only while a later pair can differ, for the grid
    cells or for the tail pairs the stabilization check must evaluate.
    """
    counts = (_ListCounts if model.size <= _LIST_STATES else _MatrixCounts)(model)
    terms: list[tuple[int, int]] = []  # numerators over 2**(k-1), not reduced
    rows: list[tuple[int, int]] = []
    cells = ([], []) if keep_grid else None  # (index, reduced (numerator, exponent))
    band = max(1, horizon // 8)
    half = horizon // 2  # the last step before the tail
    depth = model.depth()
    span = horizon + 1 if depth is None else depth  # row j is read while k - j < span
    r_num, r_exp = 0, 0  # rho at the first tail step
    stable = True  # tail rho all r, and theta = r**2 on the tail pairs seen
    kept: list[int] = []  # the steps of the kept rows, ascending
    for k in range(1, horizon + 1):
        num, row, thetas = counts.values(model.out(k))
        terms.append((num, k - 1))
        rows.append((row, k - 1))
        if thetas:
            if stable:  # r**2 = r_num**2 / 2**(2 r_exp)
                stable = all(theta << 2 * r_exp == r_num * r_num << k - 1
                             for j, theta in zip(kept, thetas) if j > half and k - j >= band)
            if keep_grid:
                # |theta| <= 2**(k-1): reducing takes off its trailing zeros,
                # all k-1 of them for theta = 0
                shifts = [(theta & -theta or 1 << k - 1).bit_length() - 1 for theta in thetas]
                cells[0].extend(map((k * (k - 1) // 2 - 1).__add__, kept))
                cells[1].extend(zip(map(operator.rshift, thetas, shifts),
                                    map((k - 1).__sub__, shifts)))
        if k == half + 1:
            r_num, r_exp = num, k - 1
        elif k > half + 1 and stable:
            stable = num << r_exp == r_num << k - 1
        # counts.varies() last: it costs more than the other tests
        keep = (span > 1 and (keep_grid or stable and k > half and span > band)
                and counts.varies())
        drop = 0
        if kept:  # no later step reads rows j <= k + 1 - span, nor any unstable without a grid
            drop = bisect.bisect_right(kept, k + 1 - span) if keep_grid or stable else len(kept)
            del kept[:drop]
        if keep:
            kept.append(k)
        counts.step(keep, drop)
    return terms, rows, stable, cells


def _second_moment_report(report_a: MomentReport, rows: list[tuple[int, int]],
                          theta_stable: bool, grid: tuple | None) -> MomentReport:
    """Double Cesaro means and verdict from the row sums sum_{k<l} theta_{k,l}.

    Exact stabilization: if rho settles at r and theta_{k,l} = r**2 for all
    tail pairs at least a band apart (``theta_stable``), the double Cesaro
    limit is r**2 (band and head add O(1/horizon)).
    """
    # the off-diagonal pairs count twice; theta_{l,l} = E[zeta**2] = 1
    double, exponent = _running_sums([(2 * row + (1 << exp), exp) for row, exp in rows])
    tolerance = report_a.tolerance
    stable = _tail_range(double, exponent, 2) < tolerance
    # the last double mean minus the squared last Cesaro mean, as one quotient
    e1 = report_a.sum_exponent
    close = (abs((double[-1] << 2 * e1) - (report_a.sums[-1] ** 2 << exponent))
             / (report_a.horizon ** 2 << exponent + 2 * e1))
    if (report_a.stabilized is not None and theta_stable) or (stable and close < tolerance):
        verdict = "converged"
    else:
        verdict = "diverged" if stable else "undetermined"
    return replace(report_a, verdict=verdict, double_sums=double,
                   double_exponent=exponent, theta_cells=grid)


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")


def condition_A_partial(rule: RecyclingRule, horizon: int,
                        tolerance: float = DEFAULT_TOLERANCE) -> MomentReport:
    """First-moment Cesaro scan: rho_k = E[zeta_{k-1}] for k <= horizon, by
    the rule's state model where it has one, else from its beta families.

    Converged means the per-step value stabilized exactly over the last
    half, or the last half of the Cesaro sequence has range below the
    tolerance.
    """
    _check_horizon(horizon)
    model = rule.state_model(horizon)
    if model is not None:
        return _first_moment_report(_state_scan(model, horizon, False)[0], tolerance)
    return _first_moment_report(_family_scan(rule, horizon)[0], tolerance)


def condition_B_partial(rule: RecyclingRule, horizon: int = DEFAULT_B_HORIZON,
                        tolerance: float = DEFAULT_TOLERANCE,
                        keep_grid: bool = False) -> MomentReport:
    """Second-moment scan: double Cesaro means of theta_{k,l} versus rho**2.

    A rule with a state model is scanned by counting paths per state (see
    ``_state_scan``); any other from its beta families (see ``_pair_scan``),
    whose pair scan reads the first-moment scan's summary of each family.
    Either way the row sums are exact, and the double sums are held as one
    integer numerator over a power of two.  The verdict is converged when rho
    stabilizes exactly with theta_{k,l} = rho**2 on the tail pairs a band
    apart, or when the tail of the double means is stable and lands within
    the tolerance of the squared first-moment estimate; diverged when stable
    but away from it.  With ``keep_grid`` either scan also reports the cells
    it evaluated, and ``_pair_grid`` gives every theta_{k,l}, k <= l, an id
    into its distinct reduced (numerator, exponent) values (``theta_cells``).
    """
    _check_horizon(horizon)
    model = rule.state_model(horizon)
    if model is None:
        terms, steps = _family_scan(rule, horizon)
        report_a = _first_moment_report(terms, tolerance)
        rows, theta_stable, cells = _pair_scan(report_a, steps, keep_grid)
    else:
        terms, rows, theta_stable, cells = _state_scan(model, horizon, keep_grid)
        report_a = _first_moment_report(terms, tolerance)
    grid = _pair_grid(report_a.rho_terms, cells) if keep_grid else None
    return _second_moment_report(report_a, rows, theta_stable, grid)


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
    """First-occurrence and match-fraction diagnostics of a set sequence;
    the ``Fraction`` lists are built from the counts on first read."""

    horizon: int
    first_match: list[int]              # N(n) = inf{k : M_k = M_n}
    matches: list[int]                  # sum_{k<=n} 1{M_k = M_n}
    nested: bool
    independent_limit: bool
    tolerance: float

    @functools.cached_property
    def n_ratio(self) -> list[Fraction]:  # N(n) / n
        return list(map(Fraction, self.first_match, range(1, self.horizon + 1)))

    @functools.cached_property
    def match_fraction(self) -> list[Fraction]:  # (1/n) sum_{k<=n} 1{M_k = M_n}
        return list(map(Fraction, self.matches, range(1, self.horizon + 1)))


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
    matches: list[int] = []
    for n, key in enumerate(zip(lo.tolist(), hi.tolist()), start=1):
        first_match.append(first_seen.setdefault(key, n))
        counts[key] = counts.get(key, 0) + 1
        matches.append(counts[key])
    # M_n within M_{n+1}: M_n empty, or its bounds inside the next ones
    nested = bool(np.all((hi[:-1] < lo[:-1])
                         | ((lo[1:] <= lo[:-1]) & (hi[:-1] <= hi[1:]))))
    # int / int rounds as float(Fraction) does
    tail_max = max(matches[n - 1] / n for n in range(horizon // 2 + 1, horizon + 1))
    return SetSequenceReport(
        horizon=horizon,
        first_match=first_match,
        matches=matches,
        nested=nested,
        independent_limit=tail_max < tolerance,
        tolerance=tolerance,
    )


@dataclass
class IntersectionReport:
    """Mean intersection sizes with the next set, plus recurring indices;
    the ``Fraction`` list is built from the sums on first read."""

    horizon: int
    overlaps: list[int]                 # sum_{k<=N} |M_k /\ M_{N+1}|
    cardinality: int
    recurring: list[int]                # indices present in >= threshold sets
    threshold: int

    @functools.cached_property
    def mean_intersection(self) -> list[Fraction]:  # d_N = overlaps[N-1] / N
        return list(map(Fraction, self.overlaps, range(1, self.horizon + 1)))


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
    overlaps: list[int] = []
    # |M_k /\ M_{n+1}| for k <= n, from the overlap of the bounds, over
    # blocks of n that keep each matrix near 2**16 entries
    block, k = max(1, (1 << 16) // horizon), np.arange(horizon)
    for start in range(1, horizon + 1, block):
        n = np.arange(start, min(start + block, horizon + 1))[:, None]
        overlap = np.minimum(hi[:horizon], hi[n]) - np.maximum(lo[:horizon], lo[n]) + 1
        overlaps += np.where(k < n, np.maximum(overlap, 0), 0).sum(axis=1).tolist()
    # appearances of each index in M_1..M_horizon: +1 at lo, -1 past hi
    appearance = np.cumsum(np.bincount(lo[:horizon], minlength=horizon + 1)
                           - np.bincount(hi[:horizon] + 1, minlength=horizon + 1))
    recurring = np.flatnonzero(appearance >= threshold).tolist()
    return IntersectionReport(
        horizon=horizon,
        overlaps=overlaps,
        cardinality=next(iter(tail_sizes)),
        recurring=recurring,
        threshold=threshold,
    )
