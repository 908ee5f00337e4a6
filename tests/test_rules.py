import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw.algebra import (
    BetaFamily,
    CapacityError,
    TruthTable,
    beta_to_truth,
    truth_to_beta,
)
from gbrw.ergodic import RepairedRule, criterion_beta, criterion_product, ergodic_repair
from gbrw.rules import (
    ExplicitRule,
    ExtendedBrwRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    ProductRule,
    RandomRule,
    RecyclingRule,
    SignFlipRule,
    StepFunction,
    SymmetricRule,
    WindowMaxRule,
    identity_rule,
    negation_rule,
    sign_step,
)
from gbrw import rules, setseq
from gbrw.rulespec import make_builtin
from gbrw.simulate import SeedSpec

ALL_BUILTINS = [
    identity_rule(),
    negation_rule(),
    ProductRule(),
    WindowMaxRule(None),
    WindowMaxRule(1),
    WindowMaxRule(3),
    LevyRule(),
    LevyRule(sgn0=1),
    ModifiedLevyRule(),
    ModifiedLevyMaxRule(),
    ExtendedBrwRule(setseq.prefix_fraction(0.5)),
    ExtendedBrwRule(setseq.sliding_window(2)),
    SignFlipRule(0.25),
    SymmetricRule(StepFunction((1.0,), (-1, 1), "right"), name="threshold"),
    # a profile that turns up to three times within the first steps
    SymmetricRule(StepFunction((-1.0, 0.0, 1.0), (1, -1, 1, -1), "right"),
                  name="three-breaks"),
]


#: psi0 = +1, then -1 at every step of the paths drawn here, at most 300 long
PLUS_MINUS = SignFlipRule(range(2, 301), name="plus-minus")


def signs(*values):
    return np.array(values, dtype=np.int8)


def enumerate_inputs(n):
    for mask in range(1 << n):
        yield [-1 if (mask >> k) & 1 else 1 for k in range(n)]


# ---------------------------------------------------------------------------
# Hand-checked increments


def test_identity_increment():
    rule = identity_rule()
    assert rule.increment([-1, 1, 1]) == 1
    assert np.array_equal(rule.apply(signs(-1, 1, 1)), signs(-1, 1, 1))


def test_negation_apply():
    rule = negation_rule()
    assert np.array_equal(rule.apply(signs(1, -1)), signs(-1, 1))


# Rules whose multipliers read no past, against a constant oracle: psi0 at
# step 1, then one value at every step
CONSTANT_RULES = [(identity_rule(), 1, 1), (negation_rule(), -1, -1), (PLUS_MINUS, 1, -1)]


@pytest.mark.parametrize("rule, psi0, value", CONSTANT_RULES,
                         ids=[rule.name for rule, _, _ in CONSTANT_RULES])
def test_constant_rules_match_a_constant_oracle(rule, psi0, value):
    def sign(step):
        return psi0 if step == 1 else value

    assert rule.psi0 == psi0
    for step in range(1, 13):
        size = 1 << (step - 1)
        table = rule.step_table(step)
        assert table.arity == step - 1 and table.signs.tolist() == [sign(step)] * size
        assert rule.step_family(step) == BetaFamily(step, [0] if sign(step) == -1 else [])
        assert rule.negatives_parity(step) == (size if sign(step) == -1 else 0) & 1
        for u in enumerate_inputs(step - 1) if step <= 6 else ():
            assert rule.multiplier(step, u) == sign(step)
    model = rule.state_model(16)
    for k in range(1, 17):
        assert model.out(k)[model.initial] == sign(k)
        assert set(model.out(k).tolist()) == {sign(k)}
    block = 2 * np.random.default_rng(30).integers(0, 2, (3, 2, 150), dtype=np.int8) - 1
    expected = np.full(block.shape, value, dtype=np.int8)
    expected[..., 0] = psi0
    assert np.array_equal(rule.multipliers(block), expected)
    words = rules.pack_minus(block)
    assert np.array_equal(rule.minus_words(words, 150), rules.pack_minus(expected))


@pytest.mark.parametrize("spec, density, psi0", [("identity", 0, 1), ("negation", 1, -1)])
def test_identity_and_negation_are_sign_flip_densities(spec, density, psi0):
    rule = make_builtin(spec)
    assert isinstance(rule, SignFlipRule) and rule.density == density
    assert rule.psi0 == psi0 and rule.describe() == f"{spec} (psi0={psi0:+d})"


def test_brw_increment():
    rule = ProductRule()
    assert rule.increment([-1, -1]) == 1
    assert np.array_equal(rule.apply(signs(1, -1, -1, 1)), signs(1, -1, 1, 1))


def test_levy_increment_and_path():
    rule = LevyRule()
    assert rule.increment([1, -1]) == -1  # sgn(+1) * (-1)
    assert np.array_equal(rule.apply(signs(1, 1, -1)), signs(-1, 1, -1))


def test_max_rule_apply():
    rule = WindowMaxRule(None)
    assert np.array_equal(rule.apply(signs(-1, -1)), signs(1, 1))


def test_window_max_one_is_lagged_product():
    rule = WindowMaxRule(1)
    xi = signs(1, -1, -1, 1, 1)
    eta = rule.apply(xi)
    # eta_1 = -xi_1, eta_k = xi_{k-1} xi_k for k >= 2
    assert eta[0] == -xi[0]
    for k in range(1, xi.size):
        assert eta[k] == xi[k - 1] * xi[k]


def test_modified_levy_max_small():
    rule = ModifiedLevyMaxRule()
    # psi_1(u1) = max(u1) * sgn(0) = -u1
    assert rule.psi(1, [1]) == -1
    assert rule.psi(1, [-1]) == 1
    # psi_2(u1,u2) = max(u1,u2) * sgn(u1)
    assert rule.psi(2, [1, -1]) == 1
    assert rule.psi(2, [-1, -1]) == 1


def test_sign_flip_density_quarter():
    rule = SignFlipRule(0.25)
    flips = [k for k in range(1, 13) if rule.epsilon(k) == -1]
    assert flips == [4, 8, 12]


def test_sign_flip_density_is_exact_rational():
    # 29/100 has no exact float; floor(k * 0.29) in floating point misplaces
    # hundreds of the first 1e5 flips
    rule = SignFlipRule(0.29)
    assert rule.density == Fraction(29, 100)
    assert rule.name == "sign-flips:0.29"
    n = 100_000
    eps = rule.apply(np.ones(n, dtype=np.int8))
    k = np.arange(1, n + 1)
    assert np.array_equal(np.cumsum(eps < 0), 29 * k // 100)
    assert [rule.epsilon(j) for j in range(1, 200)] == list(eps[:199])
    # numpy floats are floats too, and read the same way
    same = SignFlipRule(np.float64(0.29))
    assert same.density == Fraction(29, 100)
    assert same.name == "sign-flips:0.29"
    assert np.array_equal(same.apply(np.ones(n, dtype=np.int8)), eps)


def test_sign_flip_quarter_unchanged():
    rule = SignFlipRule(0.25)
    assert rule.name == "sign-flips:0.25"
    n = 100_000
    xi = SeedSpec(5).increments(n)
    legacy = np.array(
        [-1 if math.floor(j * 0.25) > math.floor((j - 1) * 0.25) else 1
         for j in range(1, n + 1)], dtype=np.int8,
    )
    assert np.array_equal(rule.apply(xi), legacy * xi)
    assert rule.apply(xi).dtype == np.int8


def test_sign_flip_density_names():
    assert SignFlipRule(Fraction(1, 3)).name == "sign-flips:1/3"
    ones = np.ones(7, dtype=np.int8)
    assert SignFlipRule(Fraction(1, 3)).apply(ones).tolist() == [1, 1, -1, 1, 1, -1, 1]
    assert SignFlipRule(1.0).apply(ones).tolist() == [-1] * 7
    # k * numerator overflows int64 here
    rule = SignFlipRule(Fraction(123456789012345678, 10**18))
    assert rule.apply(np.ones(100, dtype=np.int8)).tolist() == [
        rule.epsilon(k) for k in range(1, 101)
    ]
    with pytest.raises(ValueError):
        SignFlipRule(Fraction(3, 2))


def test_sign_flip_explicit():
    rule = SignFlipRule([2, 3])
    assert rule.psi0 == 1
    assert np.array_equal(rule.apply(signs(1, 1, 1)), signs(1, -1, -1))


def test_extended_brw_prefix():
    rule = ExtendedBrwRule(setseq.capped_prefix(2))
    xi = signs(1, -1, -1, 1)
    eta = rule.apply(xi)
    # M_1 = {}, M_2 = {1}, M_3 = M_4 = {1,2}
    assert eta[0] == xi[0]
    assert eta[1] == xi[0] * xi[1]
    assert eta[2] == xi[0] * xi[1] * xi[2]
    assert eta[3] == xi[0] * xi[1] * xi[3]


# ---------------------------------------------------------------------------
# Cross-representation agreement


@pytest.mark.parametrize("rule", ALL_BUILTINS, ids=lambda r: r.name)
def test_apply_matches_scanner_and_pointwise(rule):
    rng = np.random.Generator(np.random.Philox(key=[7, 11]))
    xi = (2 * rng.integers(0, 2, size=40, dtype=np.int8) - 1).astype(np.int8)
    eta_vec = rule.apply(xi)
    for k in (1, 2, 3, 11, 40):
        assert eta_vec[k - 1] == rule.increment(list(xi[:k]))
        assert eta_vec[k - 1] == rule.multiplier(k, list(xi)) * xi[k - 1]


@pytest.mark.parametrize("rule", ALL_BUILTINS, ids=lambda r: r.name)
def test_step_table_matches_pointwise(rule):
    for step in range(1, 7):
        table = rule.step_table(step)
        assert table.arity == step - 1
        for u in enumerate_inputs(step - 1):
            assert table.sign(u) == rule.multiplier(step, u + [1])


@pytest.mark.parametrize("width", [None, 1, 2, 3, 5])
def test_window_max_tables_match_mask_formula(width):
    rule = WindowMaxRule(width)
    for step in range(1, 15):
        wmask = rule.window_mask(step)
        masks = np.arange(1 << (step - 1), dtype=np.int64)
        expected = np.where((masks & wmask) == wmask, -1, 1).astype(np.int8)
        table = rule.step_table(step)
        assert table.arity == step - 1
        assert np.array_equal(table.signs, expected), step


@pytest.mark.parametrize("rule", ALL_BUILTINS, ids=lambda r: r.name)
def test_step_family_matches_table(rule):
    for step in range(1, 7):
        fam = rule.step_family(step)
        assert fam.step == step
        assert beta_to_truth(fam) == rule.step_table(step)


@pytest.mark.parametrize("rule", ALL_BUILTINS, ids=lambda r: r.name)
def test_apply_is_bijection_small(rule):
    for n in (1, 2, 5):
        images = set()
        for u in enumerate_inputs(n):
            images.add(tuple(int(v) for v in rule.apply(np.array(u, dtype=np.int8))))
        assert len(images) == 1 << n


#: Every rule class: the builtins and the table-backed rules.
VIEW_RULES = [*ALL_BUILTINS,
              ExplicitRule(+1, families={2: BetaFamily(2, [0])}, fallback=ProductRule()),
              RandomRule(5, psi0=+1), ergodic_repair(ProductRule())]


@pytest.mark.parametrize("rule", VIEW_RULES, ids=lambda r: r.name)
def test_step_one_table_is_the_psi0_constant(rule):
    assert rule.step_table(1) == TruthTable.constant(0, rule.psi0)


@pytest.mark.parametrize("rule", VIEW_RULES, ids=lambda r: r.name)
def test_step_table_rejects_steps_below_one(rule):
    for step in (0, -1):
        with pytest.raises(ValueError, match="^step must be >= 1$"):
            rule.step_table(step)


@pytest.mark.parametrize("rule", VIEW_RULES, ids=lambda r: r.name)
def test_step_table_checks_the_cap_before_any_table(rule, monkeypatch):
    monkeypatch.setattr(rule, "table_signs", lambda step: pytest.fail("table built"))
    with pytest.raises(CapacityError,
                       match="^step 26: rule table arity 25 exceeds enumeration cap 24$"):
        rule.step_table(26)


@pytest.mark.parametrize("rule", ALL_BUILTINS, ids=lambda r: r.name)
def test_step_table_adopts_the_array_its_rule_built(rule, monkeypatch):
    built = np.array([1, -1, -1, 1, -1, 1, 1, -1], dtype=np.int8)
    monkeypatch.setattr(rule, "table_signs", lambda step: built)
    table = rule.step_table(4)
    assert table.arity == 3 and np.shares_memory(table.signs, built)
    with pytest.raises(ValueError, match="read-only"):
        table.signs[0] = -1
    assert table.signs.tolist() == [1, -1, -1, 1, -1, 1, 1, -1]


def test_builtin_table_families_known():
    assert set(ProductRule().step_family(4).masks) == {0b001, 0b010, 0b100}
    assert set(WindowMaxRule(2).step_family(5).masks) == {0b1100}
    assert set(SignFlipRule(1.0).step_family(3).masks) == {0}
    assert set(identity_rule().step_family(3).masks) == set()


@pytest.mark.parametrize("spec", [
    "brw", "extended-brw:window:3", "extended-brw:prefix:0.5", "extended-brw:prefix-log",
    "extended-brw:prefix-pow:0.5", "extended-brw:capped:4"])
def test_singleton_families_equal_the_checked_constructor(spec):
    # adopted slices of one shared tuple of masks, across the 64-bit width
    rule = make_builtin(spec)
    lo, hi = (np.ones(130, int), np.arange(130)) if spec == "brw" else rule.seq.bounds(130)
    for step in range(1, 131):
        fam = rule.step_family(step)
        members = [1 << (j - 1) for j in range(lo[step - 1], hi[step - 1] + 1)]
        assert fam == BetaFamily(step, members[::-1]) == BetaFamily(step, fam.masks)
        assert type(fam.masks) is tuple and all(type(m) is int for m in fam.masks)
    assert max(ProductRule().step_family(130).masks) == 1 << 128


def test_levy_family_is_level_constant():
    fam = LevyRule().step_family(4)  # multiplier sgn(u1+u2+u3)
    expected = {0b011, 0b101, 0b110}
    assert set(fam.masks) == expected


def test_modified_levy_equals_levy_at_powers_of_two():
    modified = ModifiedLevyRule()
    levy = LevyRule()
    for n in range(1, 17):
        t_mod = modified.step_table(n + 1)
        t_levy = levy.step_table(n + 1)
        if n & (n - 1) == 0:
            assert t_mod == t_levy
        else:
            # prefix max times sgn of the full sum
            signs_arr = t_levy.signs.copy()
            signs_arr[-1] = -signs_arr[-1]
            assert t_mod == TruthTable(n, signs_arr)


@pytest.mark.parametrize("sgn0", [-1, 1])
def test_modified_levy_is_the_ergodic_repair_of_levy(sgn0):
    # Dubins and Smorodinsky's modification takes the prefix-max factor at
    # exactly the arities where the sign rule fails the single-orbit criterion
    modified = ModifiedLevyRule(sgn0)
    repaired = ergodic_repair(LevyRule(sgn0))
    for step in range(1, 18):
        assert modified.step_table(step) == repaired.step_table(step), step
    rng = np.random.default_rng(17)
    paths = [2 * rng.integers(0, 2, 5000, dtype=np.int8) - 1,
             *(np.full(n, -1, dtype=np.int8) for n in (1, 2, 9, 17))]
    for xi in paths:
        assert np.array_equal(modified.multipliers(xi), repaired.multipliers(xi))


def test_threshold_rule_tables_are_symmetric():
    from gbrw.algebra import family_levels, truth_to_beta

    rule = SymmetricRule(StepFunction((1.0,), (-1, 1), "right"))
    for step in range(2, 8):
        table = rule.step_table(step)
        assert table.is_symmetric()
        # equivalently: the converted family is constant on each size level
        assert family_levels(truth_to_beta(table)) is not None


# ---------------------------------------------------------------------------
# Multiplier kernels against the pointwise oracle

# breaks that s/sqrt(k) hits exactly (1 = 2/sqrt(4), 0.5 = 1/sqrt(4), ...),
# so both jump sides are exercised at ties
BREAK_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


@st.composite
def step_functions(draw, max_breaks=6):
    breaks = sorted(draw(st.sets(st.sampled_from(BREAK_GRID), max_size=max_breaks)))
    first = draw(st.sampled_from((-1, 1)))
    values = tuple(first * (-1) ** i for i in range(len(breaks) + 1))
    side = draw(st.sampled_from(("left", "right")))
    return StepFunction(tuple(breaks), values, side)


def explicit_rule(seed, fallback):
    """Random tables and families at up to five steps <= 12 over a fallback,
    or at every step up to a random last one without a fallback.  A second
    stream adds families of at most three indices, so that paths hold them:
    at up to two steps in 65..200 over a fallback, and without one at every
    step on to one past 128 for even seeds."""
    rng, far = np.random.default_rng(seed), np.random.default_rng([seed, 64])
    if fallback is None:
        last = int(rng.integers(1, 13))
        steps = range(2, last + 1)
        far_steps = range(last + 1, int(far.integers(129, 160)) + 1 if seed % 2 == 0 else 0)
    else:
        steps = rng.choice(np.arange(2, 13), size=int(rng.integers(0, 6)), replace=False)
        far_steps = far.choice(np.arange(65, 201), size=int(far.integers(0, 3)), replace=False)
    tables, families = {}, {}
    for step in map(int, steps):
        if rng.random() < 0.5:
            tables[step] = TruthTable.from_neg_bits(rng.integers(0, 2, 1 << (step - 1)))
        else:
            families[step] = BetaFamily(step, [
                sum(1 << k for k in np.flatnonzero(rng.random(step - 1) < 0.5).tolist())
                for _ in range(int(rng.integers(0, 4)))])
    for step in map(int, far_steps):
        sizes = far.integers(0, 4, size=int(far.integers(0, 4))).tolist()
        families[step] = BetaFamily(step, [
            sum(1 << int(k) for k in far.choice(step - 1, min(size, step - 1), replace=False))
            for size in sizes])
    name = f"explicit:{seed}+{fallback.name if fallback else 'none'}"
    return ExplicitRule(int(rng.choice([-1, 1])), tables, families, fallback, name)


# shared, so that their lazily built tables and repair decisions are reused
TABLE_RULES = [RandomRule(21), RandomRule(22, psi0=1), ergodic_repair(LevyRule()),
               ergodic_repair(RandomRule(23, psi0=1))]


@pytest.mark.parametrize("rule", [
    *ALL_BUILTINS, SignFlipRule(1.0), ExtendedBrwRule(setseq.prefix_fraction(0.4)),
    ergodic_repair(LevyRule()), ergodic_repair(explicit_rule(3, ProductRule())),
    explicit_rule(4, LevyRule()), explicit_rule(5, WindowMaxRule(2)),
], ids=lambda r: r.name)
def test_negatives_parity_is_the_table_parity(rule):
    for step in range(1, 20):
        assert rule.negatives_parity(step) == rule.step_table(step).negatives_parity()


@st.composite
def set_sequences(draw):
    fraction = st.floats(0.001, 0.999)
    length = st.one_of(st.integers(1, 6), st.integers(7, 400))
    return draw(st.one_of(
        fraction.map(setseq.prefix_fraction), st.just(setseq.prefix_log()),
        fraction.map(setseq.prefix_power), length.map(setseq.capped_prefix),
        length.map(setseq.sliding_window)))


@st.composite
def kernel_rules(draw):
    kind = draw(st.sampled_from(("constant", "brw", "window", "levy", "modified",
                                 "modified-max", "symmetric", "flips", "flip-steps",
                                 "explicit", "tables", "extended")))
    sgn0 = draw(st.sampled_from((-1, 1)))
    if kind == "constant":
        return draw(st.sampled_from((identity_rule(), negation_rule(), PLUS_MINUS)))
    if kind == "brw":
        return ProductRule()
    if kind == "window":
        width = draw(st.one_of(st.integers(1, 6), st.integers(7, 400), st.none()))
        return WindowMaxRule(width)
    if kind == "levy":
        return LevyRule(sgn0)
    if kind == "modified":
        return ModifiedLevyRule(sgn0)
    if kind == "modified-max":
        return ModifiedLevyMaxRule(sgn0)
    if kind == "symmetric":
        return SymmetricRule(draw(step_functions()))
    if kind == "flips":
        return SignFlipRule(draw(st.sampled_from(
            (Fraction(0), Fraction(1, 3), 0.25, 0.29, Fraction(2, 7), Fraction(1)))))
    if kind == "flip-steps":
        return SignFlipRule(draw(st.sets(st.integers(1, 320), max_size=40)))
    if kind == "explicit":
        fallback = draw(st.sampled_from((ProductRule(), WindowMaxRule(3), None)))
        return explicit_rule(draw(st.integers(0, 2**32)), fallback)
    if kind == "extended":
        return ExtendedBrwRule(draw(set_sequences()))
    return draw(st.sampled_from(TABLE_RULES))


def max_length(rule):
    """Longest path a rule is checked on: an explicit rule without a fallback
    ends at its last listed step, and random and repaired rules build a
    table of 2^(k-1) entries at each step k, so they stop at 20 steps."""
    if isinstance(rule, ExplicitRule) and rule.fallback is None:
        return max(rule.families)
    if isinstance(rule, (RandomRule, RepairedRule)):
        return 20
    return None


def assert_kernel_matches_oracle(rule, xi):
    xi = xi[:max_length(rule)]
    mult = rule.multipliers(xi)
    assert mult.dtype == np.int8 and mult.shape == xi.shape
    u = xi.tolist()
    assert mult.tolist() == [rule.multiplier(k, u) for k in range(1, len(u) + 1)]
    assert np.array_equal(rule.apply(xi), mult * xi)


sign_paths = st.lists(st.sampled_from((-1, 1)), max_size=300).map(
    lambda u: np.array(u, dtype=np.int8))


@settings(max_examples=400, deadline=None)
@given(kernel_rules(), sign_paths)
def test_multipliers_match_pointwise(rule, xi):
    assert_kernel_matches_oracle(rule, xi)


# every set-sequence kind, with lengths and fractions that put the interval
# ends before, at and past the short paths
EXTENDED_SEQUENCES = [
    setseq.prefix_fraction(0.5), setseq.prefix_fraction(0.05),
    setseq.prefix_fraction(0.95), setseq.prefix_log(), setseq.prefix_power(0.5),
    setseq.prefix_power(0.2), setseq.prefix_power(0.9), setseq.capped_prefix(1),
    setseq.capped_prefix(2), setseq.capped_prefix(50), setseq.sliding_window(1),
    setseq.sliding_window(2), setseq.sliding_window(7), setseq.sliding_window(500),
]


def _rule_id(rule):
    sgn0 = getattr(rule, "sgn0", None)
    return rule.describe() + ("" if sgn0 is None else f" sgn0={sgn0:+d}")


RULES_AT_SHORT_LENGTHS = [
    PLUS_MINUS, ProductRule(), WindowMaxRule(None),
    *(WindowMaxRule(w) for w in range(1, 7)), WindowMaxRule(500),
    *(cls(sgn0) for cls in (LevyRule, ModifiedLevyRule, ModifiedLevyMaxRule)
      for sgn0 in (-1, 1)),
    SymmetricRule(StepFunction((), (1,))),
    SymmetricRule(StepFunction((-1.0, 0.0, 1.0), (1, -1, 1, -1), "right")),
    SignFlipRule(Fraction(1, 3)), SignFlipRule([1, 2, 5]),
    explicit_rule(1, ProductRule()), explicit_rule(2, WindowMaxRule(2)),
    explicit_rule(3, None), *TABLE_RULES,
    *(ExtendedBrwRule(seq) for seq in EXTENDED_SEQUENCES),
]


EXPLICIT_RULES = [
    *(explicit_rule(seed, fallback) for seed in range(6)
      for fallback in (None, ProductRule(), WindowMaxRule(3), LevyRule())),
    # members across the first and second word boundaries
    ExplicitRule(-1, families={70: BetaFamily(70, [1 << 68 | 1, 1 << 63]),
                               140: BetaFamily(140, [1 << 130 | 1 << 64, 1 << 127 | 1 << 128])},
                 fallback=ProductRule(), name="explicit:words+brw"),
]


@pytest.mark.parametrize("rule", EXPLICIT_RULES, ids=lambda r: r.name)
def test_explicit_kernel_matches_psi_across_words(rule):
    # members past bit 64 and bit 128 of the packed paths, read for a block
    # of paths at once and, as Monte Carlo reads them, from packed words
    steps = sorted(rule.families)
    assert rule.fallback is not None or steps == list(range(1, steps[-1] + 1))
    lengths = [63, 64, 65, 129, 200, 256] if rule.fallback else [steps[-1]]
    for n in lengths:
        xi = 2 * np.random.default_rng(n).integers(0, 2, (40, n), dtype=np.int8) - 1
        xi[:4, :] = -1  # where every member lies inside
        xi[4, :] = 1
        mult = rule.multipliers(xi)
        assert mult.tolist() == [[rule.multiplier(k, u) for k in range(1, n + 1)]
                                 for u in xi.tolist()]
        words = rules.pack_minus(xi)
        assert np.array_equal(rule.minus_words(words, n), rules.pack_minus(mult))


def test_explicit_kernel_without_fallback_stops_at_the_first_unlisted_step():
    for rule in (rule for rule in EXPLICIT_RULES if rule.fallback is None):
        last = max(rule.families)
        xi = np.ones((3, last + 5), dtype=np.int8)
        with pytest.raises(ValueError, match=f"^rule has no definition at step {last + 1} "):
            rule.multipliers(xi)
        assert rule.multipliers(xi[:, :last]).shape == (3, last)
    gap = ExplicitRule(1, families={2: BetaFamily(2, [1]), 4: BetaFamily(4, [0])})
    with pytest.raises(ValueError, match="^rule has no definition at step 3 "):
        gap.multipliers(np.ones((2, 4), dtype=np.int8))


@pytest.mark.parametrize("rule", [EXPLICIT_RULES[1], RandomRule(9)], ids=lambda r: r.name)
def test_table_backed_kernels_do_not_call_psi(rule, monkeypatch):
    xi = 2 * np.random.default_rng(0).integers(0, 2, (50, 20), dtype=np.int8) - 1
    expected = [[rule.multiplier(k, u) for k in range(1, 21)] for u in xi.tolist()]
    monkeypatch.setattr(rule, "psi", lambda n, u: pytest.fail("psi called"))
    assert rule.multipliers(xi).tolist() == expected


@pytest.mark.parametrize("rule", RULES_AT_SHORT_LENGTHS, ids=_rule_id)
def test_multipliers_on_all_short_paths(rule):
    for n in (0, 1, 2, 3):
        for u in enumerate_inputs(n):
            assert_kernel_matches_oracle(rule, np.array(u, dtype=np.int8))


@pytest.mark.parametrize("rule", RULES_AT_SHORT_LENGTHS, ids=_rule_id)
def test_multipliers_on_constant_paths(rule):
    # the all-minus prefix is where the max factors and the empty window act
    for n in (1, 2, 7, 64, 300):
        for value in (-1, 1):
            assert_kernel_matches_oracle(rule, np.full(n, value, dtype=np.int8))


@pytest.mark.parametrize("seq", EXTENDED_SEQUENCES, ids=lambda s: s.name)
def test_extended_brw_kernel_matches_pointwise_to_2000(seq):
    # multipliers are adapted, so one path checks every prefix length
    rng = np.random.default_rng(2000)
    for xi in (2 * rng.integers(0, 2, 2000, dtype=np.int8) - 1,
               np.full(2000, -1, dtype=np.int8)):
        assert_kernel_matches_oracle(ExtendedBrwRule(seq), xi)


# the scalar prefix length each prefix kind had before its bounds were vectorized
SCALAR_LENGTHS = [
    *((setseq.prefix_fraction(lam), lambda k, lam=lam: int(lam * k))
      for lam in (0.5, 1 / 3, 0.999)),
    (setseq.prefix_log(), lambda k: int(math.log(k))),
    *((setseq.prefix_power(a), lambda k, a=a: int(k ** a)) for a in (0.5, 1 / 3, 0.75)),
    (setseq.capped_prefix(7), lambda k: 7),
    (setseq.capped_prefix(10 ** 30), lambda k: 10 ** 30),
]


@pytest.mark.parametrize("seq, length", SCALAR_LENGTHS,
                         ids=[seq.name for seq, _ in SCALAR_LENGTHS])
def test_prefix_bounds_match_scalar_lengths(seq, length):
    horizon = 10 ** 6
    lengths = np.fromiter((min(length(k), k - 1) for k in range(1, horizon + 1)),
                          np.int64, horizon)
    lo, hi = seq.bounds(horizon)
    assert np.all(lo == 1)  # the empty M_1 included
    assert np.array_equal(hi, lengths)


@pytest.mark.parametrize("seq", [seq for seq, _ in SCALAR_LENGTHS] + [
    setseq.sliding_window(m) for m in (1, 5, 10 ** 30)], ids=lambda s: s.name)
def test_bounds_are_int32_with_the_int64_sets(seq):
    lo, hi = seq.bounds(5000)
    assert lo.dtype == hi.dtype == np.int32
    # the bound functions keep int64 steps, as bounds past 2**31 steps take
    k = np.arange(1, 5001, dtype=np.int64)
    lo64, hi64 = seq.lo(k), seq.hi(k)
    assert lo64.dtype == hi64.dtype == np.int64
    empty = hi64 < lo64
    assert np.array_equal(np.where(empty, 1, lo64), lo)
    assert np.array_equal(np.where(empty, 0, hi64), hi)


def test_extended_brw_apply_peak_memory():
    # int32 bounds: a peak of 20.0 bytes per step at n = 1e6 (numpy 2.4,
    # x86-64), of which the float64 prefix lengths take 8; int64 bounds and
    # temporaries took 40.0
    n = 10 ** 6
    xi = np.where(np.random.default_rng(5).random(n) < 0.5, -1, 1).astype(np.int8)
    rule = ExtendedBrwRule(setseq.prefix_fraction(0.5))
    tracemalloc.start()
    try:
        out = rule.apply(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n
    odd = np.concatenate(([0], np.cumsum(xi < 0) & 1))
    half = np.arange(1, n + 1) // 2
    assert np.array_equal(out, xi * np.where(odd[np.minimum(half, np.arange(n))], -1, 1))


def test_prefix_power_bounds_peak_memory():
    # a peak of 21.0 bytes per step at n = 1e6 (numpy 2.4, x86-64): the int32
    # steps and bounds and one float64 array of powers; the float64
    # temporaries of the rounding check took 33.0
    n = 10 ** 6
    seq = setseq.prefix_power(1 / 3)
    tracemalloc.start()
    try:
        lo, hi = seq.bounds(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * n
    assert np.all(lo == 1) and hi[26] == 3 and hi[63] == 3


@pytest.mark.parametrize("alpha", [1 / 3, 0.5, 0.25, 0.2, 0.75])
def test_floor_power_is_the_scalar_pow_next_to_integers(alpha):
    # the steps around every exact power, where the last place decides the
    # floor: scalar pow gives 27 ** (1/3) = 3.0 and 64 ** (1/3) =
    # 3.9999999999999996, numpy's pow over an array 3.0 and 4.0
    roots = np.arange(1, 400, dtype=np.float64) ** (1 / alpha)
    k = np.unique(np.rint(roots).astype(np.int64)[:, None] + np.arange(-2, 3))
    k = k[(k >= 1) & (k < 2 ** 31)].astype(np.int32)
    assert setseq._floor_power(k, alpha).tolist() == [int(int(j) ** alpha) for j in k]


@pytest.mark.parametrize("m", [1, 5, 10 ** 30])
def test_window_bounds_match_scalar_formula(m):
    lo, hi = setseq.sliding_window(m).bounds(1000)
    assert lo.tolist() == [max(1, k - m) for k in range(1, 1001)]
    assert hi.tolist() == [k - 1 for k in range(1, 1001)]


@pytest.mark.parametrize("seq", EXTENDED_SEQUENCES, ids=lambda s: s.name)
def test_extended_brw_tables_match_popcount_formula(seq):
    rule = ExtendedBrwRule(seq)
    bounds = zip(*seq.bounds(15))
    for step, (lo, hi) in enumerate(bounds, start=1):
        arity = step - 1
        singletons = [1 << (j - 1) for j in range(lo, hi + 1)]
        assert rule.step_family(step).masks == tuple(singletons)
        masks = np.arange(1 << arity, dtype=np.uint64)
        parity = np.bitwise_count(masks & np.uint64(sum(singletons))) & 1
        expected = np.where(parity, -1, 1).astype(np.int8)
        table = rule.step_table(step)
        assert table.arity == arity
        assert np.array_equal(table.signs, expected), step


# ---------------------------------------------------------------------------
# Step functions


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction((0.0, 0.0), (-1, 1, -1))  # zero gap
    with pytest.raises(ValueError):
        StepFunction((0.0,), (-1, -1))  # not a jump
    with pytest.raises(ValueError):
        StepFunction((0.0,), (-1, 2))  # not a sign


def test_sign_step_conventions():
    left = sign_step(-1)
    right = sign_step(+1)
    assert left(0.0) == -1
    assert right(0.0) == 1
    assert left(-0.5) == right(-0.5) == -1
    assert left(0.5) == right(0.5) == 1


def test_step_function_vectorized_matches_scalar():
    f = StepFunction((-0.5, 0.25), (1, -1, 1), "right")
    grid = np.linspace(-1, 1, 33)
    vec = f.vectorized(grid)
    assert list(vec) == [f(float(z)) for z in grid]


# ---------------------------------------------------------------------------
# Explicit and random rules


def test_explicit_rule_with_fallback():
    table = TruthTable.from_function(2, lambda u: u[1])
    rule = ExplicitRule(
        -1, tables={3: table}, fallback=identity_rule(), name="patched"
    )
    assert rule.multiplier(1, []) == -1
    assert rule.multiplier(3, [1, -1]) == -1
    assert rule.multiplier(4, [1, -1, 1]) == 1  # fallback
    assert set(rule.step_family(1).masks) == {0}


def test_explicit_rule_without_fallback_errors():
    rule = ExplicitRule(1, families={2: BetaFamily(2, [0b1])})
    assert rule.multiplier(2, [-1]) == -1
    assert rule.apply(signs(-1, 1)).tolist() == [-1, -1]
    message = "rule has no definition at step 3 and no fallback"
    with pytest.raises(ValueError, match=message):
        rule.multiplier(3, [1, 1])
    with pytest.raises(ValueError, match=message):
        rule.apply(signs(1, 1, 1))


def test_explicit_rule_validates_steps():
    with pytest.raises(ValueError):
        ExplicitRule(1, tables={1: TruthTable.constant(0, 1)})
    with pytest.raises(ValueError):
        ExplicitRule(1, tables={3: TruthTable.constant(1, 1)})


def test_explicit_rule_rejects_a_step_given_both_ways():
    # a table and a family at one step could disagree; the rule holds one
    with pytest.raises(ValueError, match="^step 2 is given both as a table and as a family$"):
        ExplicitRule(-1, tables={2: TruthTable(1, [1, -1])}, families={2: BetaFamily(2, [])})


def test_explicit_rule_states_each_step_once():
    tables = {3: TruthTable(2, [1, -1, -1, -1]), 5: TruthTable.constant(4, -1)}
    families = {4: BetaFamily(4, [0b101, 0b11])}
    fallback = WindowMaxRule(2)
    rule = ExplicitRule(-1, tables, families, fallback)
    assert not hasattr(rule, "tables")
    assert rule.families == {1: BetaFamily(1, [0]), 3: truth_to_beta(tables[3]),
                             4: families[4], 5: BetaFamily(5, [0])}
    for step, table in tables.items():
        assert rule.step_table(step) == table
    for step in range(1, 9):
        family = rule.families[step] if step in rule.families else fallback.step_family(step)
        assert rule.step_family(step) == family
        assert rule.step_table(step) == beta_to_truth(family)
        assert rule.negatives_parity(step) == rule.step_table(step).negatives_parity()


def test_explicit_parities_are_the_given_tables_parities():
    # the criterion reads each listed step's full-set coefficient, which is
    # the parity of the -1s of the table it came from
    rng = np.random.default_rng(11)
    for psi0 in (-1, 1):
        tables = {step: TruthTable.from_neg_bits(rng.integers(0, 2, 1 << (step - 1)))
                  for step in range(2, 14)}
        rule = ExplicitRule(psi0, tables=tables, fallback=LevyRule())
        for step, table in tables.items():
            assert rule.negatives_parity(step) == table.negatives_parity()
        for n in range(1, 16):
            assert (criterion_product(rule, n) == -1) == (criterion_beta(rule, n) == 1)


def test_random_rule_deterministic_and_forced():
    a = RandomRule(123, force_full=True)
    b = RandomRule(123, force_full=True)
    for step in (2, 3, 5):
        assert a.step_table(step) == b.step_table(step)
        assert a.step_family(step).contains_full_set
    c = RandomRule(123, force_full=False)
    for step in (2, 3, 5):
        assert not c.step_family(step).contains_full_set


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6))
def test_random_rule_bijective(seed, n):
    rule = RandomRule(seed)
    images = set()
    for u in enumerate_inputs(n):
        images.add(tuple(int(v) for v in rule.apply(np.array(u, dtype=np.int8))))
    assert len(images) == 1 << n


def test_rule_rejects_bad_psi0():
    with pytest.raises(ValueError, match=r"psi0 must be -1 or \+1"):
        ExplicitRule(0)


@pytest.mark.parametrize("cls", [ModifiedLevyRule, ModifiedLevyMaxRule])
@pytest.mark.parametrize("sgn0", [0, 3])
def test_modified_levy_rules_reject_bad_sgn0(cls, sgn0):
    with pytest.raises(ValueError, match=r"sgn0 must be -1 or \+1"):
        cls(sgn0=sgn0)


# ---------------------------------------------------------------------------
# Word kernels of the prefix scans against the int8 accumulates

#: Lengths at and around byte and word boundaries, and long paths.
SCAN_LENGTHS = (0, 1, 7, 8, 9, 63, 64, 65, 5999, 6000, 6001, 100_000)

# the rules whose word kernels scan prefixes (the running -1 parity, the
# sign of the walk), both sign conventions of the sign rule and both first
# values of the sign-of-the-walk step function, so that all four
# comparisons of the walk with 0 are scanned
PACKED_RULES = [
    ProductRule(), ExtendedBrwRule(setseq.sliding_window(3)),
    ExtendedBrwRule(setseq.prefix_fraction(0.5)),
    *(cls(sgn0) for cls in (LevyRule, ModifiedLevyRule, ModifiedLevyMaxRule)
      for sgn0 in (-1, 1)),
    SymmetricRule(StepFunction((0.0,), (-1, 1), "right"), name="symmetric:-1:0:1"),
    SymmetricRule(StepFunction((0.0,), (1, -1), "right"), name="symmetric:1:0:-1"),
    SymmetricRule(StepFunction((0.0,), (1, -1), "left")),
]


def scan_paths(n):
    """Constant, alternating and random paths of n steps, paths whose walk
    sits at +-8 and +-9, where the packed walk clips, across byte starts,
    and paths that climb to +-64 and beyond, where it clips word starts,
    and run straight back."""
    rng = np.random.default_rng(n)
    paths = [np.full(n, -1, dtype=np.int8), np.full(n, 1, dtype=np.int8),
             np.resize(signs(1, -1), n), np.resize(signs(-1, 1), n),
             (2 * rng.integers(0, 2, n, dtype=np.int8) - 1)]
    for sign in (-1, 1):
        for lead in range(6, 12):
            for wobble in (signs(1, -1), signs(-1, 1), signs(1, 1, -1, -1)):
                path = np.resize(wobble, n)
                path[:lead] = sign
                paths.append(path)
        for climb in (63, 64, 65, 128):
            path = np.full(n, -sign, dtype=np.int8)
            path[:climb] = sign
            paths.append(path)
    return paths


def assert_scans_match(xi):
    # minus_words runs the word kernels (_parity_words, _walk_words) and
    # multipliers the int8 accumulates
    n, words = xi.shape[-1], rules.pack_minus(xi)
    for rule in PACKED_RULES:
        got = rule.minus_words(words, n)
        assert got.dtype == np.uint64 and got.shape == words.shape
        assert np.array_equal(got, rules.pack_minus(rule.multipliers(xi)))


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_packed_scans_match_accumulates(n):
    for xi in scan_paths(n):
        assert_scans_match(xi)


@st.composite
def long_paths(draw):
    """Paths of 6,000 to 18,000 steps, built from runs so that the walk
    returns to 0 and dwells near the clip at +-8."""
    n = draw(st.integers(6000, 18_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    runs = rng.integers(1, draw(st.integers(2, 20)), n)
    steps = np.repeat(np.resize(signs(1, -1), n), runs)[:n]
    flips = rng.random(n) < draw(st.floats(0.0, 0.5))
    return np.where(flips, -steps, steps).astype(np.int8)


@settings(max_examples=40, deadline=None)
@given(long_paths())
def test_packed_scans_match_accumulates_on_long_paths(xi):
    assert_scans_match(xi)


@pytest.mark.parametrize("rule", [r for r in PACKED_RULES if isinstance(r, SymmetricRule)],
                         ids=_rule_id)
def test_sign_of_walk_kernels_match_the_step_function(rule):
    # f(X_{k-1} / sqrt(k)) straight from its definition
    for xi in scan_paths(100_000):
        walk = np.concatenate(([0], np.cumsum(xi[:-1], dtype=np.int64)))
        expected = rule.f.vectorized(walk / np.sqrt(np.arange(1, xi.size + 1)))
        assert np.array_equal(rule.multipliers(xi), expected)


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_scans_of_a_block_are_the_scans_of_its_rows(n):
    block = np.stack(scan_paths(n))
    assert_scans_match(block)
    words = rules.pack_minus(block)
    for rule in PACKED_RULES:
        got, got_words = rule.multipliers(block), rule.minus_words(words, n)
        assert got.shape == block.shape and got_words.shape == words.shape
        for xi, row, row_words in zip(block, got, got_words):
            assert np.array_equal(row, rule.multipliers(xi))
            assert np.array_equal(row_words, rule.minus_words(rules.pack_minus(xi), n))


# ---------------------------------------------------------------------------
# Word kernels against pointwise psi and the definitions

WORD_LENGTHS = (1, 2, 63, 64, 65, 127, 128, 129, 6001)
WORD_ROWS = (1, 3, 70)
#: Paths up to this length are checked against pointwise psi as well.
POINTWISE_MAX = 129
WORD_RULES = [
    ProductRule(), LevyRule(), LevyRule(1),
    SymmetricRule(StepFunction((0.0,), (1, -1), "left"), name="symmetric:1:0:-1 left"),
    SymmetricRule(StepFunction((0.0,), (1, -1), "right"), name="symmetric:1:0:-1"),
    *(WindowMaxRule(w) for w in (1, 2, 3, 64, 65)), WindowMaxRule(None),
    ModifiedLevyRule(), ModifiedLevyRule(1), ModifiedLevyMaxRule(), ModifiedLevyMaxRule(1),
    rules._OneStepLate(LevyRule(1)), ergodic_repair(LevyRule()),
]


def word_paths(n, repaired):
    """70 random paths of n steps, packed; all but the first and the last
    lead with a run of -1 steps (at most 16 long for a repaired rule, whose
    tables grow as 2^run) and carry a run of 60 to 69 -1 steps inside, the
    last is all -1 (all +1 for a repaired rule), and every bit past n is
    random.  Returns the int8 paths and the words."""
    rng = np.random.default_rng(n)
    xi = 2 * rng.integers(0, 2, (70, n), dtype=np.int8) - 1
    for i, row in enumerate(xi[1:-1], start=1):
        run = i % 17 if repaired else 7 * i % 140
        inside = 60 + i % 10
        row[100 + i:100 + i + inside] = -1
        row[:run] = -1
        row[run:run + 1] = 1
    xi[-1] = 1 if repaired else -1
    width = -(-n // 64)
    packed = np.zeros((70, 64 * width), dtype=bool)
    packed[:, :n] = xi < 0
    packed[:, n:] = rng.integers(0, 2, (70, 64 * width - n), dtype=bool)
    words = np.packbits(packed, axis=-1, bitorder="little").view("<u8").astype(np.uint64)
    return xi, words


def definition_multipliers(rule, xi):
    """int8 multipliers of a block from each rule's definition: the int8
    accumulates, the step function of the walk, counts of -1 steps in a
    window, and the prefix-max factor where the prefix is all -1."""
    n = xi.shape[-1]
    arity = np.arange(n)
    minus_before = np.zeros(xi.shape[:-1] + (n + 1,), dtype=np.int64)
    np.cumsum(xi < 0, axis=-1, out=minus_before[..., 1:])
    if isinstance(rule, ProductRule):
        return 1 - 2 * rules.minus_parity(xi)[..., :-1].astype(np.int8)
    if isinstance(rule, SymmetricRule):
        walk = arity - 2 * minus_before[..., :-1]
        return rule.f.vectorized(walk / np.sqrt(arity + 1.0))
    if isinstance(rule, WindowMaxRule):
        lo = np.maximum(arity - (n if rule.width is None else rule.width), 0)
        all_minus = minus_before[..., :-1] - minus_before[..., lo] == arity - lo
        return np.where(all_minus, -1, 1).astype(np.int8)
    inner = definition_multipliers(rule.inner, xi)
    if isinstance(rule, rules._OneStepLate):
        out = np.roll(inner, 1, axis=-1)
        out[..., 0] = rule.psi0
        return out
    out = inner.copy()
    out[..., 0] = -1
    all_minus = minus_before[..., :-1] == arity
    longest = int(np.max(np.where(all_minus, arity, 0)))
    flips = np.zeros(n, dtype=bool)
    flips[1:longest + 1] = rule.flips(np.arange(1, longest + 1))
    return np.where(all_minus & flips, -out, out)


def pointwise_multipliers(rule, xi):
    return np.array([[rule.multiplier(k, row.tolist()) for k in range(1, xi.shape[-1] + 1)]
                     for row in xi], dtype=np.int8)


def minus_bits(words, n):
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1,
                         bitorder="little")[..., :n]


@pytest.mark.parametrize("rule", WORD_RULES, ids=_rule_id)
def test_word_kernels_match_pointwise_psi_and_the_definitions(rule):
    repaired = isinstance(rule, RepairedRule)
    for n in WORD_LENGTHS:
        xi, words = word_paths(n, repaired)
        expected = definition_multipliers(rule, xi)
        if n <= POINTWISE_MAX:
            assert np.array_equal(expected, pointwise_multipliers(rule, xi))
        for rows in WORD_ROWS:
            block = words[:rows].copy()
            got = rule.minus_words(block, n)
            assert np.array_equal(block, words[:rows])  # the input is not written
            assert got.dtype == np.uint64 and got.shape == block.shape
            assert np.array_equal(minus_bits(got, n), expected[:rows] < 0)
            # every bit past n is clear, so a popcount counts the -1s
            assert np.array_equal(np.bitwise_count(got).sum(axis=-1),
                                  np.count_nonzero(expected[:rows] < 0, axis=-1))
        assert np.array_equal(rule.multipliers(xi), expected)


@pytest.mark.parametrize("rule", [ExtendedBrwRule(setseq.sliding_window(3)),
                                  SymmetricRule(StepFunction((-1.0, 0.0, 1.0), (1, -1, 1, -1))),
                                  explicit_rule(4, ProductRule()), RandomRule(5)],
                         ids=_rule_id)
def test_default_word_kernel_packs_the_multipliers(rule, monkeypatch):
    default = RecyclingRule.minus_words
    calls = []

    def spy(self, words, n):
        calls.append(n)
        return default(self, words, n)

    # a rule with its own word kernel would bypass the route under test
    monkeypatch.setattr(RecyclingRule, "minus_words", spy)
    for n in (1, 63, 64, 65, 129, 6001):
        n = min(n, max_length(rule) or n)
        xi, words = word_paths(n, repaired=True)
        calls.clear()
        got = rule.minus_words(words, n)
        assert calls == [n]
        assert got.shape == words.shape
        assert np.array_equal(minus_bits(got, n), rule.multipliers(xi) < 0)
        assert np.array_equal(np.bitwise_count(got).sum(axis=-1),
                              np.count_nonzero(rule.multipliers(xi) < 0, axis=-1))


@pytest.mark.parametrize("rule", [SignFlipRule(0.25), SignFlipRule(Fraction(1, 3)),
                                  SignFlipRule([1, 2, 5, 64, 6000])], ids=_rule_id)
def test_sign_flip_word_kernel_matches_the_default_route(rule):
    rng = np.random.default_rng(3)
    for n in (1, 63, 64, 65, 1000, 115000):
        for rows in (1, 3, 70):
            words = rng.integers(0, 2**64, (rows, -(-n // 64)), dtype=np.uint64)
            given = words.copy()  # random bits past n included
            got = rule.minus_words(words, n)
            assert np.array_equal(words, given)
            assert got.dtype == np.uint64 and got.shape == words.shape
            assert np.array_equal(got, RecyclingRule.minus_words(rule, words, n))
            assert not (got[:, -1] & ~rules._LOW_BITS[(n - 1) % 64 + 1]).any()


# ---------------------------------------------------------------------------
# A block of paths, shape (..., n), is one kernel call

BLOCK_RULES = [*ALL_BUILTINS, SignFlipRule([1, 2, 5, 64, 6000]),
               explicit_rule(4, ProductRule()), explicit_rule(5, WindowMaxRule(None)),
               explicit_rule(6, None), *TABLE_RULES]
BLOCK_LENGTHS = (1, 2, 63, 64, 65, 5999, 6001)


def block_paths(shape, n):
    """Random paths, all but the first and last with a leading run of -1
    steps of its own length, where the prefix-max factors act, and the
    last all -1."""
    rng = np.random.default_rng(n)
    block = 2 * rng.integers(0, 2, (*shape, n), dtype=np.int8) - 1
    rows = block.reshape(-1, n)
    for i, row in enumerate(rows[1:-1], start=1):
        row[:3 * i] = -1
        row[3 * i:3 * i + 1] = 1
    if len(rows) > 1:
        rows[-1] = -1
    return block


@pytest.mark.parametrize("rule", BLOCK_RULES, ids=_rule_id)
def test_block_multipliers_are_the_multipliers_of_each_row(rule):
    for n in {min(n, max_length(rule) or n) for n in BLOCK_LENGTHS}:
        for shape in ((1,), (2,), (7,), (2, 3)):
            block = block_paths(shape, n)
            got = rule.multipliers(block)
            assert got.dtype == np.int8 and got.shape == block.shape
            for row in np.ndindex(shape):
                assert np.array_equal(got[row], rule.multipliers(block[row]))


def test_kernels_need_a_time_axis():
    for rule in (ProductRule(), LevyRule(), RandomRule(1)):
        with pytest.raises(ValueError, match="^increments need a time axis$"):
            rule.multipliers(np.int8(1))


# ---------------------------------------------------------------------------
# apply leaves validation to the kernels


@pytest.mark.parametrize("rule", [*ALL_BUILTINS, *PACKED_RULES], ids=_rule_id)
def test_apply_rejects_bad_increments(rule):
    for bad in (signs(1, 0, -1), signs(1, 2)):
        with pytest.raises(ValueError, match=r"^increments must be -1 or \+1$"):
            rule.apply(bad)
    with pytest.raises(ValueError, match="^increment sequence must be one-dimensional$"):
        rule.apply(np.ones((2, 3), dtype=np.int8))
