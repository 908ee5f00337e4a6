import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw.algebra import (
    BetaFamily,
    TruthTable,
    beta_to_truth,
)
from gbrw.ergodic import RepairedRule, ergodic_repair
from gbrw.rules import (
    ConstantRule,
    ExplicitRule,
    ExtendedBrwRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    ProductRule,
    RandomRule,
    SignFlipRule,
    StepFunction,
    SymmetricRule,
    WindowMaxRule,
    identity_rule,
    negation_rule,
    sign_step,
)
from gbrw import rules, setseq
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


def test_builtin_table_families_known():
    assert set(ProductRule().step_family(4).masks) == {0b001, 0b010, 0b100}
    assert set(WindowMaxRule(2).step_family(5).masks) == {0b1100}
    assert set(SignFlipRule(1.0).step_family(3).masks) == {0}
    assert set(identity_rule().step_family(3).masks) == set()


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
    or at every step up to a random last one without a fallback."""
    rng = np.random.default_rng(seed)
    if fallback is None:
        steps = range(2, int(rng.integers(1, 13)) + 1)
    else:
        steps = rng.choice(np.arange(2, 13), size=int(rng.integers(0, 6)), replace=False)
    tables, families = {}, {}
    for step in map(int, steps):
        if rng.random() < 0.5:
            tables[step] = TruthTable.from_neg_bits(rng.integers(0, 2, 1 << (step - 1)))
        else:
            families[step] = BetaFamily(step, [
                sum(1 << k for k in np.flatnonzero(rng.random(step - 1) < 0.5).tolist())
                for _ in range(int(rng.integers(0, 4)))])
    name = f"explicit:{seed}+{fallback.name if fallback else 'none'}"
    return ExplicitRule(int(rng.choice([-1, 1])), tables, families, fallback, name)


# shared, so that their lazily built tables and repair decisions are reused
TABLE_RULES = [RandomRule(21), RandomRule(22, psi0=1), ergodic_repair(LevyRule()),
               ergodic_repair(RandomRule(23, psi0=1))]


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
        return draw(st.sampled_from((identity_rule(), negation_rule(),
                                     ConstantRule("plus-minus", 1, -1))))
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
        return max((*rule.tables, *rule.families), default=1)
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
    ConstantRule("plus-minus", 1, -1), ProductRule(), WindowMaxRule(None),
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


def test_constant_rule_rejects_bad_psi0():
    with pytest.raises(ValueError):
        ConstantRule("bad", 0, 1)


@pytest.mark.parametrize("cls", [ModifiedLevyRule, ModifiedLevyMaxRule])
@pytest.mark.parametrize("sgn0", [0, 3])
def test_modified_levy_rules_reject_bad_sgn0(cls, sgn0):
    with pytest.raises(ValueError, match=r"sgn0 must be -1 or \+1"):
        cls(sgn0=sgn0)


# ---------------------------------------------------------------------------
# Bit-packed prefix scans against the plain accumulates

CUTOFF = rules.PACKED_MIN_LENGTH
SCAN_LENGTHS = (0, 1, 7, 8, 9, 63, 64, 65, CUTOFF - 1, CUTOFF, CUTOFF + 1, 100_000)
COMPARISONS = (np.less_equal, np.less, np.greater, np.greater_equal)


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
    assert np.array_equal(rules._packed_parity(xi), rules._accumulated_parity(xi))
    for op in COMPARISONS:
        packed = rules._packed_walk_flags(xi, op)
        assert packed.dtype == bool and packed.shape == xi.shape
        assert np.array_equal(packed, rules._summed_walk_flags(xi, op))


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_packed_scans_match_accumulates(n):
    for xi in scan_paths(n):
        assert_scans_match(xi)


@st.composite
def long_paths(draw):
    """Paths past the cutoff, built from runs so that the walk returns to 0
    and dwells near the clip at +-8."""
    n = draw(st.integers(CUTOFF, 3 * CUTOFF))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    runs = rng.integers(1, draw(st.integers(2, 20)), n)
    steps = np.repeat(np.resize(signs(1, -1), n), runs)[:n]
    flips = rng.random(n) < draw(st.floats(0.0, 0.5))
    return np.where(flips, -steps, steps).astype(np.int8)


@settings(max_examples=40, deadline=None)
@given(long_paths())
def test_packed_scans_match_accumulates_on_long_paths(xi):
    assert_scans_match(xi)


# the rules whose kernels run the packed scans, both sign conventions of the
# sign rule and both first values of the sign-of-the-walk step function
PACKED_RULES = [
    ProductRule(), ExtendedBrwRule(setseq.sliding_window(3)),
    ExtendedBrwRule(setseq.prefix_fraction(0.5)),
    *(cls(sgn0) for cls in (LevyRule, ModifiedLevyRule, ModifiedLevyMaxRule)
      for sgn0 in (-1, 1)),
    SymmetricRule(StepFunction((0.0,), (-1, 1), "right"), name="symmetric:-1:0:1"),
    SymmetricRule(StepFunction((0.0,), (1, -1), "right"), name="symmetric:1:0:-1"),
    SymmetricRule(StepFunction((0.0,), (1, -1), "left")),
]


@pytest.mark.parametrize("rule", PACKED_RULES, ids=_rule_id)
def test_packed_rules_scan_packed_bits_from_the_cutoff(rule, monkeypatch):
    calls = []
    for name in ("_packed_parity", "_packed_walk_flags"):
        monkeypatch.setattr(rules, name, lambda xi, *args, f=getattr(rules, name):
                            calls.append(xi.size) or f(xi, *args))
    for n in (CUTOFF - 1, CUTOFF):
        rule.multipliers(np.ones(n, dtype=np.int8))
    assert calls == [CUTOFF]


@pytest.mark.parametrize("rule", PACKED_RULES, ids=_rule_id)
def test_packed_kernels_match_plain_kernels(rule, monkeypatch):
    for n in (CUTOFF, CUTOFF + 1, 100_000):
        paths = scan_paths(n)
        packed = [rule.multipliers(xi) for xi in paths]
        with monkeypatch.context() as m:
            m.setattr(rules, "PACKED_MIN_LENGTH", 1 << 62)
            plain = [rule.multipliers(xi) for xi in paths]
        for a, b in zip(packed, plain):
            assert a.dtype == np.int8 and np.array_equal(a, b)


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
    for parity in (rules._packed_parity, rules._accumulated_parity):
        got = parity(block)
        assert got.shape == (len(block), n + 1)
        for row, xi in zip(got, block):
            assert np.array_equal(row, parity(xi))
    for flags in (rules._packed_walk_flags, rules._summed_walk_flags):
        for op in COMPARISONS:
            got = flags(block, op)
            assert got.shape == block.shape
            for row, xi in zip(got, block):
                assert np.array_equal(row, flags(xi, op))


# ---------------------------------------------------------------------------
# A block of paths, shape (..., n), is one kernel call

BLOCK_RULES = [*ALL_BUILTINS, SignFlipRule([1, 2, 5, 64, CUTOFF]),
               explicit_rule(4, ProductRule()), explicit_rule(5, WindowMaxRule(None)),
               explicit_rule(6, None), *TABLE_RULES]
BLOCK_LENGTHS = (1, 2, 63, 64, 65, CUTOFF - 1, CUTOFF + 1)


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
