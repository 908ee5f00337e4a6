import csv
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw import algebra
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
    member_cells,
    member_strings,
    sorted_masks,
    subset_max,
    symmetric_profile_to_levels,
    truth_to_beta,
)
from gbrw.cli import main
from gbrw.dyadic import Dyadic
from gbrw.rulespec import load_rule, parse_index_set


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


def test_public_family_constructor_sorts_and_checks():
    assert BetaFamily(4, [0b100, 0b001, 0b100, 0, 0b001]).masks == (0, 0b001, 0b100)
    assert BetaFamily(130, [1 << 128, 1 << 70, 1 << 128]).masks == (1 << 70, 1 << 128)
    with pytest.raises(ValueError, match="^member mask -2 is negative$"):
        BetaFamily(4, [1, -2])
    with pytest.raises(ValueError, match="not a subset"):
        BetaFamily(4, [0b1000])
    with pytest.raises(ValueError, match="not a subset"):
        BetaFamily(130, [1, 1 << 129])
    with pytest.raises(ValueError, match="^step must be >= 1$"):
        BetaFamily(0)


def test_adopted_table_families_equal_the_checked_constructor():
    rng = np.random.default_rng(5)
    for arity in range(12):
        tables = [TruthTable(arity, rng.choice(np.array([-1, 1], np.int8), 1 << arity)),
                  TruthTable.constant(arity, -1), sgn_table(arity)]
        for table in tables:
            fam = truth_to_beta(table)
            assert fam == BetaFamily(arity + 1, fam.masks[::-1])
            assert all(type(m) is int for m in fam.masks)
            assert beta_to_truth(fam) == table
        for levels in ([1] * (arity + 1), [0, 1][:arity + 1], [1, 0, 0, 1][:arity + 1]):
            fam = level_family(arity + 1, levels)
            assert fam == BetaFamily(arity + 1, fam.masks[::-1])
            assert all(type(m) is int for m in fam.masks)


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
        beta_to_truth(BetaFamily(30))


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


def byte_loop_xor_transform(bits):
    """The subset transform one byte per entry: pass i XORs each entry whose
    index has bit i clear into the entry 2**i above it."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8).copy()
    n = bits.shape[-1].bit_length() - 1
    for i in range(n):
        view = bits.reshape(bits.shape[:-1] + (-1, 2, 1 << i))
        view[..., 1, :] ^= view[..., 0, :]
    return bits


@pytest.mark.parametrize("arity", range(21))
def test_packed_transform_equals_the_byte_loop(arity):
    rng = np.random.default_rng(arity)
    size = 1 << arity
    tables = [rng.integers(0, 2, size, dtype=np.uint8), np.ones(size, np.uint8),
              np.eye(1, size, size - 1, dtype=np.uint8)[0], np.eye(1, size, dtype=np.uint8)[0]]
    for bits in tables:
        out = algebra.subset_xor_transform(bits)
        assert out.dtype == np.uint8 and out.shape == bits.shape
        assert np.array_equal(out, byte_loop_xor_transform(bits))
    # stacked tables, each row on its own, and bool input
    stacked = rng.integers(0, 2, (3, 2, size), dtype=np.uint8)
    assert np.array_equal(algebra.subset_xor_transform(stacked), byte_loop_xor_transform(stacked))
    assert np.array_equal(algebra.subset_xor_transform(tables[0] == 1),
                          byte_loop_xor_transform(tables[0]))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)))
def test_packed_transform_equals_the_byte_loop_on_any_table(entries):
    bits = np.array(entries, dtype=np.uint8)
    assert np.array_equal(algebra.subset_xor_transform(bits), byte_loop_xor_transform(bits))


def test_transform_rejects_a_length_that_is_not_a_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        algebra.subset_xor_transform(np.zeros(6, np.uint8))


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


def test_expand_family_capacity(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_EXPANSION_CAP", 5)
    fam = BetaFamily(8, [S(k) for k in range(1, 8)])
    with pytest.raises(CapacityError, match="^family size 7 exceeds expansion cap 5$"):
        expand_family(fam)


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


#: Each byte value bit-reversed, then complemented: equal-size index sets
#: order lexicographically as their bit-reversed masks order descending, so
#: the little-endian bytes of a mask mapped through this table sort ascending.
_LEX_KEY = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def python_sorted_masks(masks):
    """The masks ordered by size, then lexicographically, as Python sorts keep
    them: a second oracle for the numpy encoder's lexsort."""
    width = (max(masks, default=0).bit_length() + 7) // 8
    ordered = sorted(masks, key=lambda m: m.to_bytes(width, "little").translate(_LEX_KEY))
    ordered.sort(key=int.bit_count)  # stable, so each size keeps that order
    return ordered


def python_member_strings(masks):
    """The members in python_sorted_masks order, formatted from each mask's
    bytes through a table of the fragment every byte value gives at every
    byte position."""
    width = (max(masks, default=0).bit_length() + 7) // 8
    fragments = [[",".join(str(8 * j + k + 1) for k in range(8) if b >> k & 1)
                  for b in range(256)] for j in range(width)]
    return ["{" + ",".join([f[b] for f, b in zip(fragments, m.to_bytes(width, "little"))
                            if b]) + "}"
            for m in python_sorted_masks(masks)]


#: Members around byte boundaries, where the encoder moves from one byte's
#: text table to the next: masks 8, 9, 16, 17, 24, 64 and 65 bits wide,
#: members with an empty low byte ({9}, {9,16}, {17}), {} among members of
#: several bytes, and members of 299 and 300 indices, sizes a byte cannot hold.
BYTE_BOUNDARY_CASES = [
    (8, [0, 1, 1 << 7, 0xFF, 0x81]),
    (9, [0, 1 << 8, 1 << 8 | 1, 0x1FF, 0xFF, 0x80]),
    (16, [0, 1 << 8, 1 << 8 | 1 << 15, 1 << 15, 0xFFFF, 0xFF00, 0xFF, 1 << 7 | 1 << 8]),
    (17, [0, 1 << 16, 1 << 16 | 1, 1 << 8, 1 << 8 | 1 << 15, 0x1FFFF, 0x10100, 0xFFFF]),
    (24, [0, 1 << 23, 0xFFFFFF, 0xFF0000, 1 << 8, 1 << 16, 1 << 16 | 1 << 8, 0xFF]),
    (64, [0, 1 << 63, (1 << 64) - 1, 1 << 8, 1 << 63 | 1, 0xFF << 56, 1 << 56 | 1 << 55]),
    (65, [0, 1 << 64, (1 << 65) - 1, 1 << 8, 1 << 64 | 1 << 63, 1 << 16, (1 << 64) - 1]),
    (300, [0, (1 << 300) - 1, (1 << 300) - 2, 1 << 299, 1, 1 << 8, 1 << 296]),
]


@settings(max_examples=200, deadline=None)
@given(st.one_of(family_cases, wide_family_cases))
def test_sorted_members_by_size_then_indices(case):
    check_member_encoding(*case)


@pytest.mark.parametrize("arity, masks", BYTE_BOUNDARY_CASES)
def test_sorted_members_at_byte_boundaries(arity, masks):
    check_member_encoding(arity, masks)


def check_member_encoding(arity, masks):
    fam = BetaFamily(arity + 1, masks)
    # the oracle: sort by (size, indices), print as "{i,j,...}"
    indices = {m: _indices(m, arity) for m in fam.masks}
    expected = sorted(fam.masks, key=lambda m: (len(indices[m]), indices[m]))
    assert sorted_masks(fam.masks) == expected == python_sorted_masks(fam.masks)
    # the numpy encoder prints the same strings in the same order
    strings = ["{" + ",".join(map(str, indices[m])) + "}" for m in expected]
    assert member_strings(fam.masks) == strings == python_member_strings(fam.masks)
    cells = member_cells(fam.masks)
    assert cells.dtype.kind == "S" and cells.tolist() == [t.encode() for t in strings]
    # no wider than the longest cell, the width a writer pads every cell to
    assert cells.dtype.itemsize == max(map(len, strings), default=1)
    # and so in any order of the masks given
    shuffled = list(fam.masks[1::2]) + list(fam.masks[::2])
    assert sorted_masks(shuffled) == expected
    assert member_cells(shuffled).tolist() == cells.tolist()


@pytest.mark.parametrize("rule", ["levy", "modified-levy"])
def test_convert_member_file_matches_the_python_oracle(tmp_path, capsys, rule):
    # the benchmark's convert tasks: 12,871 members, 2 bytes a mask
    assert main(["convert", "--rule", f"builtin:{rule}", "--step", "16",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(
        [("multiplier", "member"),
         *((16, m) for m in python_member_strings(load_rule(f"builtin:{rule}").step_family(17).masks))])
    assert (tmp_path / "beta_members.csv").read_bytes() == expected.getvalue().encode()


CONVERT_RULES = ["builtin:levy", "builtin:modified-levy", "builtin:modified-levy-max",
                 "builtin:brw", "builtin:window-max:3",
                 str(Path(__file__).resolve().parents[1] / "examples" / "beta-window.rule")]


@pytest.mark.parametrize("step", [0, 1, 7, 8, 9, 16])
@pytest.mark.parametrize("spec", CONVERT_RULES, ids=lambda spec: Path(spec).name)
def test_convert_matches_the_csv_writer_oracle(tmp_path, capsys, spec, step):
    # stdout and both files, byte for byte, from the rule's own family and
    # table through csv.writer and the Python member strings
    rule = load_rule(spec)
    members = python_member_strings(rule.step_family(step + 1).masks)
    signs = rule.step_table(step + 1).signs.tolist()
    assert main(["convert", "--rule", spec, "--step", str(step), "--out", str(tmp_path)]) == 0
    lines = [f"rule {rule.name}, multiplier {step} (a function of {step} increments)",
             "beta members: " + (", ".join(members) or "(empty)" if len(members) <= 64
                                 else f"{len(members)} (see beta_members.csv)")]
    if len(signs) <= 64:
        lines.append("truth table:  " + "".join("+" if s > 0 else "-" for s in signs))
    assert capsys.readouterr().out == "\n".join([*lines, "round-trip exact: True", ""])
    for name, rows in (("beta_members.csv", [("multiplier", "member"),
                                             *((step, m) for m in members)]),
                       ("truth_table.csv", [("mask", "sign"), *enumerate(signs)])):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert (tmp_path / name).read_bytes() == expected.getvalue().encode()


def test_sorted_members_differs_from_mask_order():
    fam = BetaFamily(5, [0b1001, 0b0110, 0b0100, 0b0011])
    assert fam.masks == (0b0011, 0b0100, 0b0110, 0b1001)
    assert member_strings(fam.masks) == ["{3}", "{1,2}", "{1,4}", "{2,3}"]
    assert repr(fam) == "BetaFamily(step=5, members=[{3}, {1,2}, {1,4}, {2,3}])"
    wide = BetaFamily(80, [0, 1 << 70, (1 << 79) - 1, 0b101])
    assert member_strings(wide.masks) == [
        "{}", "{71}", "{1,3}", "{" + ",".join(map(str, range(1, 80))) + "}"]
    assert repr(BetaFamily(3, [])) == "BetaFamily(step=3, members=[])"
    assert member_cells([]).size == 0 and member_cells([0]).tolist() == [b"{}"]


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
