import collections
import math

import numpy as np
import pytest

from gbrw.algebra import CapacityError, beta_to_truth, truth_to_beta
from gbrw.ergodic import (
    binomial_parity,
    criterion_beta,
    criterion_product,
    ergodic_repair,
    is_bijection,
    is_ergodic_up_to,
    orbit_decompose,
    rule_permutation,
    sgn_beta_array,
)
from gbrw.rules import (
    ConstantRule,
    ExplicitRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    ProductRule,
    RandomRule,
    RecyclingRule,
    WindowMaxRule,
    identity_rule,
    sgn_truth_table,
)
from gbrw.simulate import SeedSpec


# ---------------------------------------------------------------------------
# Permutations and orbits


def test_max_rule_tau2_single_cycle():
    decomposition = orbit_decompose(WindowMaxRule(None), 2)
    assert decomposition.cycles == (4,)
    assert decomposition.single_orbit
    # the explicit 4-cycle: (-1,-1) -> (+1,+1) -> (-1,+1) -> (+1,-1) -> ...
    perm = rule_permutation(WindowMaxRule(None), 2)
    path = [0b11]
    for _ in range(4):
        path.append(int(perm[path[-1]]))
    assert path == [0b11, 0b00, 0b01, 0b10, 0b11]


def test_identity_rule_fixed_points():
    decomposition = orbit_decompose(identity_rule(), 2)
    assert decomposition.cycles == (1, 1, 1, 1)
    assert not decomposition.single_orbit


def test_brw_rule_n1_fixed_points():
    decomposition = orbit_decompose(ProductRule(), 1)
    assert decomposition.cycles == (1, 1)  # psi0 = +1 fails the criterion


def test_permutations_are_bijections():
    rng = SeedSpec(99).generator()
    rules = [
        LevyRule(),
        ModifiedLevyRule(),
        WindowMaxRule(3),
        ProductRule(),
        RandomRule(int(rng.integers(0, 2**60))),
    ]
    for rule in rules:
        for n in range(1, 11):
            assert is_bijection(rule_permutation(rule, n))


def test_cycle_lengths_sum():
    decomposition = orbit_decompose(LevyRule(), 6)
    assert sum(decomposition.cycles) == 64
    assert decomposition.cycles == tuple(sorted(decomposition.cycles, reverse=True))


def _cycles_by_walk(perm):
    """Cycle lengths of a permutation, longest first, by visited-flag traversal."""
    visited = np.zeros(perm.size, dtype=bool)
    cycles = []
    for start in range(perm.size):
        length = 0
        node = start
        while not visited[node]:
            visited[node] = True
            node = int(perm[node])
            length += 1
        if length:
            cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


@pytest.mark.parametrize("rule", [
    LevyRule(), LevyRule(sgn0=1), ModifiedLevyRule(), ModifiedLevyMaxRule(),
    WindowMaxRule(None), WindowMaxRule(3), ProductRule(), identity_rule(),
    ergodic_repair(RandomRule(8, psi0=1)),
], ids=lambda r: r.name)
def test_orbit_decompose_matches_the_cycle_walk(rule):
    for n in range(13):
        assert orbit_decompose(rule, n).cycles == _cycles_by_walk(rule_permutation(rule, n))


def test_bijectivity_at_twenty():
    assert is_bijection(rule_permutation(ModifiedLevyRule(), 20))


def test_permutation_consistent_with_apply():
    # the table-built permutation and the vectorized apply fast paths agree
    n = 10
    rng = SeedSpec(13).generator()
    for rule in (LevyRule(), ModifiedLevyRule(), ModifiedLevyMaxRule(),
                 WindowMaxRule(3), ProductRule()):
        perm = rule_permutation(rule, n)
        for mask in rng.integers(0, 1 << n, size=40):
            xi = np.where((int(mask) >> np.arange(n)) & 1, -1, 1).astype(np.int8)
            eta = rule.apply(xi)
            out_mask = sum(1 << k for k in range(n) if eta[k] == -1)
            assert out_mask == int(perm[int(mask)])


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_product_modified_levy_n2():
    # four inputs: sgn(-2), sgn(0), sgn(0), sgn(2) with sgn(0) = -1
    assert criterion_product(ModifiedLevyRule(), 2) == -1


def test_criterion_product_levy_n3():
    assert criterion_product(LevyRule(), 3) == 1  # not -1: fails there


def test_criterion_product_brw_n2():
    assert criterion_product(ProductRule(), 2) == 1


def test_criterion_beta_max_rule():
    for n in range(1, 8):
        assert criterion_beta(WindowMaxRule(None), n) == 1


def test_criterion_beta_modified_levy_max():
    for n in range(1, 10):
        assert criterion_beta(ModifiedLevyMaxRule(), n) == 1


def test_criterion_beta_sgn_n3():
    assert criterion_beta(LevyRule(), 3) == 0


def test_criterion_equivalence_random_rules():
    rng = SeedSpec(123).generator()
    for i in range(60):
        rule = RandomRule(int(rng.integers(0, 2**60)), psi0=-1,
                          force_full=(True if i % 2 == 0 else False))
        for n in range(1, 8):
            beta_bit = criterion_beta(rule, n)
            product = criterion_product(rule, n)
            assert (beta_bit == 1) == (product == -1)
            if i % 2 == 0:
                assert beta_bit == 1


def test_orbit_equivalence_random_rules():
    rng = SeedSpec(54).generator()
    for i in range(24):
        rule = RandomRule(int(rng.integers(0, 2**60)), psi0=-1,
                          force_full=(i % 2 == 0))
        for n in range(1, 7):
            single = orbit_decompose(rule, n).single_orbit
            expected = all(
                criterion_product(rule, m) == -1 for m in range(1, n)
            )
            assert single == expected
            # the verdict at horizon n-1 certifies tau_n being one cycle
            verdict = is_ergodic_up_to(rule, n - 1)
            assert verdict.ergodic_so_far == single


# ---------------------------------------------------------------------------
# Verdicts


def test_levy_not_ergodic_first_failure_three():
    verdict = is_ergodic_up_to(LevyRule(), 8)
    assert not verdict.ergodic_so_far
    assert verdict.first_failure == 3
    assert verdict.failure_value == 1


def test_identity_fails_at_psi0():
    verdict = is_ergodic_up_to(identity_rule(), 4)
    assert not verdict.ergodic_so_far
    assert verdict.first_failure == 0
    assert verdict.failure_value == 1


def test_modified_levy_ergodic_to_16():
    verdict = is_ergodic_up_to(ModifiedLevyRule(), 16)
    assert verdict.ergodic_so_far
    assert verdict.closed_form


def test_modified_levy_max_ergodic_to_16():
    verdict = is_ergodic_up_to(ModifiedLevyMaxRule(), 16)
    assert verdict.ergodic_so_far
    assert verdict.closed_form


def test_single_orbit_modified_levy_tau10():
    assert orbit_decompose(ModifiedLevyRule(), 10).single_orbit


# ---------------------------------------------------------------------------
# The sign coefficient array


def test_beta_array_row_two_three():
    array = sgn_beta_array(3)
    assert array.row_levels(2) == [1, 2]  # u1 u2 max(u1,u2)
    assert array.row_levels(3) == [2]     # pairwise maxima only
    assert array.coefficient(2, 0) == 0


def test_beta_array_zero_region():
    array = sgn_beta_array(20)
    for n in range(1, 21):
        for k in range(n + 1):
            if n >= 2 * k + 1:
                assert array.coefficient(n, k) == 0


def test_beta_array_reproduces_sign_tables():
    array = sgn_beta_array(12)
    for n in range(1, 13):
        fam = array.row_family(n)
        assert beta_to_truth(fam) == sgn_truth_table(n)
        # and the generic converter recovers exactly the same family
        assert truth_to_beta(sgn_truth_table(n)) == fam


def test_beta_array_against_generic_conversion_levels():
    array = sgn_beta_array(14)
    for n in (5, 9, 14):
        fam = truth_to_beta(sgn_truth_table(n))
        sizes = {m.bit_count() for m in fam.masks}
        assert sorted(sizes) == array.row_levels(n)


def test_beta_array_matches_recurrence_with_comb():
    size = 200
    array = sgn_beta_array(size)
    for n in range(1, size + 1):
        ell = (n - 1) // 2
        beta = [0] * (n + 1)
        for m in range(ell + 1, n + 1):
            total = 1 + sum(math.comb(m, k) * beta[k] for k in range(ell + 1, m))
            beta[m] = total % 2
        assert [array.coefficient(n, k) for k in range(n + 1)] == beta, n


def pascal_parity_row(m: int) -> int:
    """Row m of Pascal's triangle mod 2, packed with bit k = C(m,k) mod 2."""
    row = 1
    shift = 1
    while m:
        if m & 1:
            row ^= row << shift
        m >>= 1
        shift <<= 1
    return row


def recurrence_matrix(size):
    """The parity recurrence on packed rows: beta_{n,m} = 1 + the parity of
    Pascal row m ANDed with the bits l+1..m-1 decided so far, as the
    (size, size+1) matrix with [n-1, m] = beta_{n,m}."""
    pascal = [pascal_parity_row(m) for m in range(size + 1)]
    matrix = np.zeros((size, size + 1), dtype=np.uint8)
    for n in range(1, size + 1):
        bits = 0
        for m in range((n - 1) // 2 + 1, n + 1):
            if not (pascal[m] & bits).bit_count() & 1:
                bits |= 1 << m
                matrix[n - 1, m] = 1
    return matrix


def test_closed_form_beta_array_matches_packed_recurrence():
    expected = recurrence_matrix(1000)
    for size in (1, 2, 3, 7, 8, 64, 333, 1000):
        array = sgn_beta_array(size)
        assert array.size == size
        assert np.array_equal(array.bits, expected[:size, :size + 1]), size


def test_beta_array_bits_and_columns():
    array = sgn_beta_array(37)
    bits = array.bits
    assert bits.shape == (37, 38) and bits.dtype == np.uint8
    assert not bits.flags.writeable
    cells = [(n, k, array.coefficient(n, k))
             for n in range(1, 38) for k in range(n + 1)]
    for n, k, beta in cells:
        assert bits[n - 1, k] == beta
    assert not np.triu(bits, 2).any()
    assert list(zip(*(c.tolist() for c in array.columns()))) == cells


@pytest.mark.parametrize("size", list(range(1, 41)) + [1000])
def test_beta_array_columns_match_broadcast_mask(size):
    array = sgn_beta_array(size)
    n, k = np.broadcast_arrays(np.arange(1, size + 1, dtype=np.int32)[:, None],
                               np.arange(size + 1, dtype=np.int32))
    lower = k <= n
    expected = (n[lower], k[lower], array.bits[lower])
    for column, want in zip(array.columns(), expected, strict=True):
        assert column.dtype == want.dtype
        assert np.array_equal(column, want)


def test_pascal_parity_row_matches_comb():
    for m in range(0, 40):
        row = pascal_parity_row(m)
        for k in range(m + 1):
            assert (row >> k) & 1 == math.comb(m, k) % 2


def test_binomial_parity_examples():
    assert binomial_parity(7, 3) == 1
    assert binomial_parity(5, 2) == 0
    for n in range(0, 30):
        assert binomial_parity(n, 0) == 1
    with pytest.raises(ValueError):
        binomial_parity(3, 5)


def test_parity_identities():
    # half sum of odd rows is a power of two
    for n in range(1, 31, 2):
        assert sum(math.comb(n, k) for k in range((n - 1) // 2 + 1)) == 2 ** (n - 1)
    # central-adjacent binomial odd exactly at powers of two
    for n in range(1, 4097):
        is_pow2 = n & (n - 1) == 0
        assert binomial_parity(2 * n - 1, n - 1) == (1 if is_pow2 else 0)


# ---------------------------------------------------------------------------
# Repair


def test_repair_levy_equals_modified_levy():
    repaired = ergodic_repair(LevyRule(), horizon=10)
    modified = ModifiedLevyRule()
    for step in range(1, 12):
        assert repaired.step_table(step) == modified.step_table(step)
    assert is_ergodic_up_to(repaired, 10).ergodic_so_far


def test_repair_of_ergodic_rule_is_unchanged():
    rule = ModifiedLevyMaxRule()
    repaired = ergodic_repair(rule, horizon=8)
    for step in range(1, 10):
        assert repaired.step_table(step) == rule.step_table(step)


def test_repair_identity_rule():
    repaired = ergodic_repair(identity_rule(), horizon=6)
    assert repaired.psi0 == -1
    verdict = is_ergodic_up_to(repaired, 6)
    assert verdict.ergodic_so_far
    # identity fails everywhere, so each multiplier becomes the prefix max
    expected = WindowMaxRule(None)
    for step in range(2, 8):
        assert repaired.step_table(step) == expected.step_table(step)


def test_repair_pointwise_consistency():
    # a path only needs the repair decisions of its leading run of -1s, so
    # long random paths are cheap
    repaired = ergodic_repair(LevyRule(), horizon=6)
    for n in (14, 100_000):
        xi = SeedSpec(31).increments(n)
        eta = repaired.apply(np.asarray(xi))
        modified = ModifiedLevyRule().apply(np.asarray(xi))
        assert np.array_equal(eta, modified)


def test_repair_builds_each_inner_table_once():
    # the tables of tau_13 record the repair decisions of arities 1..12, so
    # the decisions and the criterion scan build no inner table again
    inner = RandomRule(5, psi0=1)
    built = collections.Counter()
    step_table = inner.step_table

    def counted(step):
        built[step] += 1
        return step_table(step)

    inner.step_table = counted
    repaired = ergodic_repair(inner, horizon=12)
    assert orbit_decompose(repaired, 13).single_orbit
    assert [repaired.needs_flip(n) for n in range(1, 13)] == [
        criterion_product(RandomRule(5, psi0=1), n) == 1 for n in range(1, 13)]
    assert is_ergodic_up_to(repaired, 12).ergodic_so_far
    assert built == {step: 1 for step in range(2, 14)}


def test_repair_horizon_is_checked_before_any_table():
    # a rule whose parities are counted from its tables
    inner = RandomRule(5)
    inner.step_table = lambda step: pytest.fail("table built")
    with pytest.raises(CapacityError,
                       match="step 26: rule table arity 25 exceeds enumeration cap 24"):
        ergodic_repair(inner, horizon=25)
    ergodic_repair(inner, horizon=24)


def test_repair_of_closed_form_parities_builds_no_table():
    # levy states its parities in closed form: any horizon is accepted, and
    # the decisions of a leading run of 10^4 -1s need no table
    inner = LevyRule()
    inner.step_table = lambda step: pytest.fail("table built")
    repaired = ergodic_repair(inner, horizon=10_000)
    assert is_ergodic_up_to(repaired, 10_000).ergodic_so_far
    xi = np.concatenate([np.full(10_000, -1, dtype=np.int8), SeedSpec(3).increments(100)])
    assert np.array_equal(repaired.apply(xi), ModifiedLevyRule().apply(xi))


class _CountedIdentity(ConstantRule):
    """The identity rule with its parities counted from tables."""

    negatives_parity = RecyclingRule.negatives_parity


def test_repair_capacity_error_names_the_step():
    # the all-minus path needs the decision at every arity, up to 25 for
    # step 26; identity tables read through an explicit rule keep the
    # parities on the table route and the lower tables cheap
    repaired = ergodic_repair(ExplicitRule(+1, fallback=_CountedIdentity("identity", 1, 1)))
    with pytest.raises(CapacityError,
                       match="step 26: rule table arity 25 exceeds enumeration cap 24"):
        repaired.apply(np.full(26, -1, dtype=np.int8))


def test_repair_of_an_explicit_rule_checks_the_horizon_by_its_fallback():
    # the steps a rule lists are tables already; past them the fallback's
    # parities count tables (random) or are stated in closed form (levy)
    with pytest.raises(CapacityError, match="step 26: rule table arity 25"):
        ergodic_repair(ExplicitRule(-1, fallback=RandomRule(5)), horizon=25)
    with pytest.raises(CapacityError, match="step 26: rule table arity 25"):
        ergodic_repair(ExplicitRule(-1), horizon=25)
    repaired = ergodic_repair(ExplicitRule(-1, fallback=LevyRule()), horizon=10_000)
    assert is_ergodic_up_to(repaired, 200).ergodic_so_far


def test_repaired_psi_off_the_all_minus_prefix():
    # once an increment is +1 the prefix max is +1, so psi needs no repair
    # decision, whose arity-29 table would exceed the cap, as the kernel on
    # the same path
    repaired = ergodic_repair(LevyRule())
    u = [1] + [-1] * 29
    kernel = repaired.multipliers(np.array(u, dtype=np.int8))
    assert repaired.multiplier(30, u) == kernel[29] == LevyRule().multiplier(30, u)


@pytest.mark.parametrize("sgn0", [-1, 1])
def test_sgn_truth_table_matches_walk_sums(sgn0):
    for n in range(15):
        sums = np.array([n - 2 * bin(m).count("1") for m in range(1 << n)])
        expected = np.where(sums > 0, 1, np.where(sums < 0, -1, sgn0))
        assert np.array_equal(sgn_truth_table(n, sgn0).signs, expected)


def test_sgn_truth_table_keeps_to_the_cap():
    with pytest.raises(CapacityError,
                       match="^step 26: rule table arity 25 exceeds enumeration cap 24$"):
        sgn_truth_table(25)


def test_sgn_truth_table_rejects_bad_sgn0():
    with pytest.raises(ValueError, match="sgn0 must be -1 or"):
        sgn_truth_table(3, 0)


def test_repaired_random_rules_pass():
    rng = SeedSpec(77).generator()
    for _ in range(10):
        rule = RandomRule(int(rng.integers(0, 2**60)), psi0=1)
        repaired = ergodic_repair(rule, horizon=8)
        assert is_ergodic_up_to(repaired, 8).ergodic_so_far
        assert orbit_decompose(repaired, 9).single_orbit
