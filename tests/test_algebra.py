import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw.algebra import (
    BetaFamily,
    CapacityError,
    LinearExpansion,
    PartialOrderBasis,
    TruthTable,
    beta_to_truth,
    change_basis,
    expand_family,
    family_levels,
    level_family,
    linearize_product,
    member_strings,
    sorted_masks,
    subset_max,
    symmetric_profile_to_levels,
    truth_to_beta,
)
from gbrw.dyadic import Dyadic
from gbrw.rulespec import parse_index_set


def sgn_table(n, sgn0=-1):
    def fn(u):
        s = sum(u)
        if s == 0:
            return sgn0
        return 1 if s > 0 else -1

    return TruthTable.from_function(n, fn)


def S(*indices):
    """The mask of the index set {indices} (bit k-1 for index k)."""
    return sum({1 << (k - 1) for k in indices})


# ---------------------------------------------------------------------------
# subset_max


def test_subset_max_empty_set_convention():
    assert subset_max([1, -1], 0) == -1


def test_subset_max_all_minus():
    assert subset_max([-1, -1, -1], S(1, 2, 3)) == -1


def test_subset_max_with_plus():
    assert subset_max([-1, 1], S(1, 2)) == 1


def test_subset_max_out_of_range():
    with pytest.raises(ValueError):
        subset_max([1, 1], S(3))


def test_negative_masks_are_rejected():
    with pytest.raises(ValueError, match="^mask -1 is negative$"):
        subset_max([1, -1], -1)
    with pytest.raises(ValueError, match="^mask -2 is negative$"):
        linearize_product([S(1), -2])


# ---------------------------------------------------------------------------
# Family evaluation


def test_eval_family_majority_example():
    fam = BetaFamily(3, [S(1), S(2), S(1, 2)])
    assert fam.evaluate([1, -1]) == -1  # sgn(u1+u2) at (+1,-1) with sgn(0)=-1
    assert fam.evaluate([1, 1]) == 1
    assert fam.evaluate([-1, -1]) == -1


def test_eval_family_empty_family():
    fam = BetaFamily(4)
    for u in ([1, 1, 1], [-1, 1, -1]):
        assert fam.evaluate(u) == 1


def test_eval_family_empty_set_member():
    fam = BetaFamily(4, [0])
    for u in ([1, 1, 1], [-1, -1, -1]):
        assert fam.evaluate(u) == -1


def test_family_membership_validation():
    with pytest.raises(ValueError):
        BetaFamily(3, [S(3)])


# ---------------------------------------------------------------------------
# Truth <-> beta conversion


def test_truth_to_beta_coordinate():
    table = TruthTable.from_function(1, lambda u: u[0])
    fam = truth_to_beta(table)
    assert set(fam.masks) == {S(1)}


def test_truth_to_beta_constant_minus():
    table = TruthTable.constant(2, -1)
    fam = truth_to_beta(table)
    assert set(fam.masks) == {0}


def test_truth_to_beta_majority_of_three():
    fam = truth_to_beta(sgn_table(3))
    expected = {S(1, 2), S(1, 3), S(2, 3)}
    assert set(fam.masks) == expected


def test_beta_to_truth_majority():
    fam = BetaFamily(3, [S(1), S(2), S(1, 2)])
    assert beta_to_truth(fam) == sgn_table(2)


def test_beta_to_truth_empty_family_constant():
    assert beta_to_truth(BetaFamily(3)) == TruthTable.constant(2, 1)


def test_beta_to_truth_projection():
    fam = BetaFamily(3, [S(1)])
    table = beta_to_truth(fam)
    assert table == TruthTable.from_function(2, lambda u: u[0])


def test_beta_to_truth_capacity():
    with pytest.raises(CapacityError):
        beta_to_truth(BetaFamily(30), cap=24)


def test_roundtrip_exhaustive_small():
    for n in range(0, 4):
        for code in range(1 << (1 << n)):
            bits = np.array([(code >> i) & 1 for i in range(1 << n)], dtype=np.uint8)
            table = TruthTable.from_neg_bits(bits)
            assert beta_to_truth(truth_to_beta(table)) == table


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.randoms(use_true_random=False))
def test_roundtrip_random_both_directions(n, rnd):
    signs = np.array(
        [rnd.choice((-1, 1)) for _ in range(1 << n)], dtype=np.int8
    )
    table = TruthTable(n, signs)
    fam = truth_to_beta(table)
    assert beta_to_truth(fam) == table
    assert truth_to_beta(beta_to_truth(fam)) == fam


# ---------------------------------------------------------------------------
# Linearization


def eval_direct_product(sets, u):
    prod = 1
    for s in sets:
        prod *= subset_max(u, s)
    return prod


def all_sign_vectors(n):
    for mask in range(1 << n):
        yield [-1 if (mask >> k) & 1 else 1 for k in range(n)]


def test_linearize_single_set():
    expansion = linearize_product([S(1, 2)])
    assert expansion.constant == Dyadic(-1, 1)
    for u in all_sign_vectors(2):
        assert expansion.evaluate(u) == subset_max(u, S(1, 2))


def test_linearize_disjoint_pair():
    m1, m2 = S(1), S(2, 3)
    expansion = linearize_product([m1, m2])
    for u in all_sign_vectors(3):
        assert expansion.evaluate(u) == eval_direct_product([m1, m2], u)


def test_linearize_equal_sets_merges_to_constant():
    m = S(1, 2)
    expansion = linearize_product([m, m])
    # the coefficients on u_[M] cancel; only the deterministic blocks remain
    assert all(k == 0 for k, _ in expansion.terms)
    for u in all_sign_vectors(2):
        assert expansion.evaluate(u) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=1, max_value=8), max_size=8),
        min_size=1,
        max_size=5,
    )
)
def test_linearize_random_products(raw_sets):
    sets = [S(*s) for s in raw_sets]
    expansion = linearize_product(sets)
    nums, exp = expansion.evaluate_all(8)
    masks = np.arange(1 << 8, dtype=np.int64)
    direct = np.ones(1 << 8, dtype=np.int64)
    for s in sets:
        if s == 0:
            direct = -direct
        else:
            direct *= np.where((masks & s) == s, -1, 1)
    assert np.array_equal(nums, direct << exp)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=1, max_value=8), max_size=8),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(min_value=65, max_value=256), min_size=7, max_size=7,
             unique=True),
)
def test_linearize_wide_masks_match_relabelled_products(raw_sets, high):
    # index k of {1..8} moves to positions[k-1]: bit 0 and seven bits past
    # the first 64-bit word; relabelled back, the expansion of the wide
    # product is the product of maxima on every input of the support
    positions = [1] + high
    wide = [S(*(positions[k - 1] for k in s)) for s in raw_sets]

    def narrow(mask):
        return sum(1 << i for i, p in enumerate(positions) if mask >> (p - 1) & 1)

    expansion = linearize_product(wide)
    assert all(m & ~S(*positions) == 0 for m, _ in expansion.terms)
    relabelled = LinearExpansion(expansion.constant,
                                 tuple((narrow(m), c) for m, c in expansion.terms))
    nums, exp = relabelled.evaluate_all(8)
    masks = np.arange(1 << 8, dtype=np.int64)
    direct = np.ones(1 << 8, dtype=np.int64)
    for s in raw_sets:  # u_[K] is -1 on the supersets of K, everywhere for K empty
        direct *= np.where((masks & S(*s)) == S(*s), -1, 1)
    assert np.array_equal(nums, direct << exp)


# ---------------------------------------------------------------------------
# Family expansion


def test_expand_family_single_member():
    for m in range(1, 5):
        member = S(*range(1, m + 1))
        fam = BetaFamily(m + 1, [member])
        expansion = expand_family(fam)
        for u in all_sign_vectors(m):
            assert expansion.evaluate(u) == subset_max(u, member)


def test_expand_family_constants():
    assert expand_family(BetaFamily(3)).evaluate([1, -1]) == 1
    assert expand_family(BetaFamily(3, [0])).evaluate([1, -1]) == -1


def test_expand_family_agrees_with_evaluate():
    fam = BetaFamily(
        5, [S(1, 2), S(2, 3), S(4), 0]
    )
    expansion = expand_family(fam)
    for u in all_sign_vectors(4):
        assert expansion.evaluate(u) == fam.evaluate(u)


def test_expand_family_capacity():
    fam = BetaFamily(8, [S(k) for k in range(1, 8)])
    with pytest.raises(CapacityError):
        expand_family(fam, cap=5)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=1, max_value=6), max_size=6),
        max_size=6,
    )
)
def test_expand_family_exhaustive_agreement(raw_sets):
    fam = BetaFamily(7, {S(*s) for s in raw_sets})
    expansion = expand_family(fam)
    for u in all_sign_vectors(6):
        assert expansion.evaluate(u) == fam.evaluate(u)


# ---------------------------------------------------------------------------
# Generic bases


def test_max_basis_change_matches_truth_to_beta():
    table = sgn_table(2)
    gamma = change_basis(table, PartialOrderBasis.max_basis(2))
    ones = {k for k, bit in gamma.items() if bit}
    assert ones == set(truth_to_beta(table).masks)


def test_unordered_basis_constant():
    gamma = change_basis(TruthTable.constant(2, 1),
                         PartialOrderBasis.unordered_basis(2))
    assert all(bit == 0 for bit in gamma.values())


def test_min_basis_coordinate():
    table = TruthTable.from_function(1, lambda u: u[0])
    gamma = change_basis(table, PartialOrderBasis.min_basis(1))
    assert gamma[S(1)] == 1
    assert gamma[0] == 1


def _reconstruct(basis, gamma):
    n = basis.arity
    signs = np.ones(1 << n, dtype=np.int8)
    for k_set, bit in gamma.items():
        if bit:
            signs *= basis.block_table(k_set).signs
    return TruthTable(n, signs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
def test_change_basis_reconstructs(n, rnd):
    signs = np.array([rnd.choice((-1, 1)) for _ in range(1 << n)], dtype=np.int8)
    table = TruthTable(n, signs)
    for basis in (
        PartialOrderBasis.max_basis(n),
        PartialOrderBasis.min_basis(n),
        PartialOrderBasis.unordered_basis(n),
    ):
        gamma = change_basis(table, basis)
        assert _reconstruct(basis, gamma) == table


def test_change_basis_arity_mismatch():
    with pytest.raises(ValueError):
        change_basis(sgn_table(2), PartialOrderBasis.max_basis(3))


def test_basis_rejects_non_bijection():
    with pytest.raises(ValueError):
        PartialOrderBasis(2, [0, 0, 1, 2], lambda a, b: False)


# ---------------------------------------------------------------------------
# Symmetry and level structure


def test_symmetric_table_iff_level_constant_beta():
    table = sgn_table(4)
    assert table.is_symmetric()
    fam = truth_to_beta(table)
    levels = family_levels(fam)
    assert levels is not None
    rebuilt = level_family(fam.step, levels)
    assert rebuilt == fam


def test_asymmetric_table_not_level_constant():
    table = TruthTable.from_function(2, lambda u: u[0])
    assert not table.is_symmetric()
    assert family_levels(truth_to_beta(table)) is None


def test_level_family_round_trip_through_profile():
    profile = sgn_table(5).popcount_profile()
    levels = symmetric_profile_to_levels(list(profile))
    fam = level_family(6, levels)
    assert beta_to_truth(fam) == sgn_table(5)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_random_symmetric_profiles_reconstruct(n, rnd):
    profile = [rnd.choice((-1, 1)) for _ in range(n + 1)]
    levels = symmetric_profile_to_levels(profile)
    table = beta_to_truth(level_family(n + 1, levels))
    assert table.is_symmetric()
    assert list(table.popcount_profile()) == profile


def test_level_constant_family_yields_symmetric_table():
    fam = level_family(5, [0, 1, 0, 1, 0])
    assert beta_to_truth(fam).is_symmetric()


# ---------------------------------------------------------------------------
# The mask representation of families

family_cases = st.integers(min_value=0, max_value=8).flatmap(
    lambda arity: st.tuples(
        st.just(arity),
        st.lists(st.integers(min_value=0, max_value=(1 << arity) - 1), max_size=12),
    )
)


def _indices(mask, arity):
    return [k + 1 for k in range(arity) if mask >> k & 1]


@settings(max_examples=100, deadline=None)
@given(family_cases)
def test_family_from_index_sets_equals_family_from_masks(case):
    arity, masks = case
    fam = BetaFamily(arity + 1, masks)
    # the same sets read as a rule document writes them
    from_sets = BetaFamily(arity + 1, [
        parse_index_set("{" + ",".join(map(str, _indices(m, arity))) + "}")
        for m in masks])
    assert from_sets == fam
    assert hash(from_sets) == hash(fam)
    assert fam.masks == tuple(sorted(set(masks)))
    assert set(fam.masks) == {S(*_indices(m, arity)) for m in masks}
    assert len(fam) == len(set(masks))


@settings(max_examples=100, deadline=None)
@given(family_cases)
def test_evaluate_matches_truth_table_and_subset_maxima(case):
    arity, masks = case
    fam = BetaFamily(arity + 1, masks)
    table = beta_to_truth(fam)
    for neg in range(1 << arity):
        u = [-1 if neg >> k & 1 else 1 for k in range(arity)]
        direct = 1
        for m in fam.masks:
            direct *= subset_max(u, m)
        assert fam.evaluate(u) == table.sign(u) == direct


#: Arities up to 200, so masks far wider than 64 bits, with prefix and
#: top-bit runs among the random members.
wide_family_cases = st.integers(min_value=0, max_value=200).flatmap(
    lambda arity: st.tuples(
        st.just(arity),
        st.lists(st.one_of(st.integers(0, (1 << arity) - 1),
                           st.integers(0, arity).map(lambda k: (1 << k) - 1 >> 1),
                           st.integers(0, min(arity, 12)).map(lambda k: (1 << arity) - (1 << k))),
                 max_size=40),
    )
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(family_cases, wide_family_cases))
def test_sorted_members_by_size_then_indices(case):
    arity, masks = case
    fam = BetaFamily(arity + 1, masks)
    # the oracle: sort by (size, indices), print as "{i,j,...}"
    indices = {m: _indices(m, arity) for m in fam.masks}
    expected = sorted(fam.masks, key=lambda m: (len(indices[m]), indices[m]))
    assert sorted_masks(fam.masks) == expected
    # the mask formatter prints the same strings in the same order
    assert member_strings(fam.masks) == [
        "{" + ",".join(map(str, indices[m])) + "}" for m in expected]


def test_sorted_members_differs_from_mask_order():
    fam = BetaFamily(5, [0b1001, 0b0110, 0b0100, 0b0011])
    assert fam.masks == (0b0011, 0b0100, 0b0110, 0b1001)
    assert member_strings(fam.masks) == ["{3}", "{1,2}", "{1,4}", "{2,3}"]
    assert repr(fam) == "BetaFamily(step=5, members=[{3}, {1,2}, {1,4}, {2,3}])"
    wide = BetaFamily(80, [0, 1 << 70, (1 << 79) - 1, 0b101])
    assert member_strings(wide.masks) == [
        "{}", "{71}", "{1,3}", "{" + ",".join(map(str, range(1, 80))) + "}"]
    assert repr(BetaFamily(3, [])) == "BetaFamily(step=3, members=[])"


def test_contains_full_set():
    assert BetaFamily(4, [0b111]).contains_full_set
    assert BetaFamily(4, [0, 0b111, 0b11]).contains_full_set
    assert not BetaFamily(4, [0b011, 0b101, 0b110]).contains_full_set
    assert not BetaFamily(4).contains_full_set
    # at step 1 the full set of {} is the empty set
    assert BetaFamily(1, [0]).contains_full_set
    assert not BetaFamily(1).contains_full_set


def test_family_levels_of_masks():
    levels = [0, 1, 0, 1, 0, 1]
    fam = level_family(6, levels)
    assert list(family_levels(fam)) == levels
    assert family_levels(BetaFamily(6, fam.masks[1:])) is None
    assert list(family_levels(BetaFamily(6))) == [0] * 6


def test_family_validation_messages():
    message = re.escape("member {3} not a subset of {1,...,2}")
    with pytest.raises(ValueError, match=message):
        BetaFamily(3, [0b100])
    with pytest.raises(ValueError, match=message):
        BetaFamily(3, [S(1), S(3)])
    with pytest.raises(ValueError, match="member mask -1 is negative"):
        BetaFamily(3, [1, -1])
    with pytest.raises(ValueError, match="step must be >= 1"):
        BetaFamily(0)
    with pytest.raises(TypeError):
        BetaFamily(3, [1.0])


@pytest.mark.parametrize("values", [[1, 0], [1, 2], [-2, 1], [127, -1], [-128, 1]])
def test_truth_table_rejects_values_other_than_signs(values):
    with pytest.raises(ValueError, match="must be -1 or"):
        TruthTable(1, np.array(values, dtype=np.int8))
    with pytest.raises(ValueError, match="must be -1 or"):
        TruthTable(1, values)


def test_truth_table_owns_its_signs():
    signs = np.array([1, -1, -1, 1], dtype=np.int8)
    table = TruthTable(2, signs)
    signs[:] = -1
    assert table.signs.tolist() == [1, -1, -1, 1]
    assert not table.signs.flags.writeable
    copied = TruthTable(2, table.signs)  # a read-only input is copied too
    assert copied.signs is not table.signs and copied == table
