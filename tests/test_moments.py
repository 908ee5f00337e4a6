import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw.algebra import BetaFamily, CapacityError
from gbrw.dyadic import Dyadic
from gbrw.moments import (
    DEFAULT_TOLERANCE,
    _product_terms,
    _tail_range,
    analyze_set_sequence,
    brute_force_expect,
    closed_form_disjoint,
    condition_A_partial,
    condition_B_partial,
    expected_product,
    expected_zeta,
    expected_zeta_pair,
    intersection_diagnostic,
    q,
    sign_flip_rho,
    window_rho,
)
from gbrw.ergodic import ergodic_repair
from gbrw.rules import (
    ExtendedBrwRule,
    ExplicitRule,
    LevyRule,
    ModifiedLevyRule,
    ProductRule,
    SignFlipRule,
    WindowMaxRule,
    identity_rule,
)
from gbrw.rulespec import load_rule, make_builtin
from gbrw import algebra, moments, setseq
from gbrw import rules as rules_module

def S(*indices):
    """The mask of the index set {indices} (bit k-1 for index k)."""
    return sum({1 << (k - 1) for k in indices})


index_sets = st.sets(st.integers(min_value=1, max_value=12), max_size=6).map(
    lambda s: S(*s))


def family(*sets, step=13):
    return BetaFamily(step, [S(*s) for s in sets])


# ---------------------------------------------------------------------------
# q and single-family expectations


def test_q_values():
    assert q(S(1, 2, 3)) == Fraction(1, 8)
    assert q(0) == 1
    assert q(S(5)) == Fraction(1, 2)


def test_negative_masks_are_rejected():
    with pytest.raises(ValueError, match="^mask -1 is negative$"):
        q(-1)
    with pytest.raises(ValueError, match="^mask -1 is negative$"):
        expected_product([-1])
    with pytest.raises(ValueError, match="^mask -3 is negative$"):
        expected_product([-3, 5, 6])


@given(index_sets, index_sets)
def test_q_multiplicativity(m1, m2):
    assert q(m1 | m2) * q(m1 & m2) == q(m1) * q(m2)


def test_expected_zeta_single_set():
    for m in range(1, 6):
        fam = family(range(1, m + 1))
        assert expected_zeta(fam) == 1 - Fraction(2, 2**m)


def test_expected_zeta_constants():
    assert expected_zeta(family(())) == -1  # the empty set member
    assert expected_zeta(BetaFamily(5)) == 1


def test_expected_zeta_pair_same_family():
    fam = family([1, 2, 3])
    assert expected_zeta_pair(fam, fam) == 1


def test_expected_zeta_pair_disjoint():
    fam_a = family([1, 2, 3])
    fam_b = family([4, 5])
    expect = (1 - Fraction(2, 8)) * (1 - Fraction(2, 4))
    assert expected_zeta_pair(fam_a, fam_b) == expect
    assert brute_force_expect([fam_a, fam_b]) == expect


def test_expected_zeta_pair_with_empty_family():
    fam = family([1, 3])
    assert expected_zeta_pair(BetaFamily(5), fam) == expected_zeta(fam)


def test_brute_force_examples():
    assert brute_force_expect([family([1, 2, 3])]) == Fraction(3, 4)
    assert brute_force_expect([family(())]) == -1
    assert brute_force_expect([family([1]), family([1])]) == 1


def test_brute_force_capacity():
    fam = BetaFamily(30, [S(*range(1, 29))])
    with pytest.raises(CapacityError, match="^joint support 28 exceeds enumeration cap 24$"):
        brute_force_expect([fam])


def test_expected_product_component_cap(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_EXPANSION_CAP", 4)
    sets = [S(k, k + 1) for k in range(1, 9)]  # one chained component
    with pytest.raises(CapacityError,
                       match="^overlap component of size 8 exceeds expansion cap 4$"):
        expected_product(sets)


families = st.lists(index_sets, max_size=5).map(
    lambda sets: BetaFamily(13, set(sets))
)


@settings(max_examples=120, deadline=None)
@given(families)
def test_oracle_equality_single(fam):
    assert expected_zeta(fam) == brute_force_expect([fam])


@settings(max_examples=120, deadline=None)
@given(families, families)
def test_oracle_equality_pair(fam_a, fam_b):
    assert expected_zeta_pair(fam_a, fam_b) == brute_force_expect([fam_a, fam_b])


@settings(max_examples=60, deadline=None)
@given(families)
def test_expectations_bounded(fam):
    value = expected_zeta(fam)
    assert -1 <= value <= 1


# index sets over 1..6 (empty allowed), with repeats and translated copies
# far enough apart to form separate overlap components of one structure
base_sets = st.lists(
    st.sets(st.integers(min_value=1, max_value=6), max_size=4).map(lambda s: S(*s)),
    min_size=1, max_size=5,
)


def _translate(s, shift):
    return s << shift


@settings(max_examples=80, deadline=None)
@given(base_sets, st.lists(st.integers(min_value=0, max_value=4), max_size=3),
       st.lists(st.integers(min_value=1, max_value=8), max_size=2))
def test_expected_product_duplicates_and_translates_match_oracle(sets, repeats,
                                                                  shifts):
    members = list(sets)
    members += [sets[i % len(sets)] for i in repeats]
    for shift in shifts:
        members += [_translate(s, shift) for s in sets]
    # one single-member family per set keeps the repeats in the oracle
    oracle = brute_force_expect([BetaFamily(20, [s]) for s in members])
    assert expected_product(members) == oracle


@settings(max_examples=40, deadline=None)
@given(base_sets, st.integers(min_value=1, max_value=12))
def test_expected_product_translation_invariant(sets, shift):
    moved = [_translate(s, shift) for s in sets]
    assert expected_product(moved) == expected_product(sets)


def test_expected_product_components_of_three_or_more():
    # two translated chains of three sets, and one chain shifted by a gap
    chain = [S(1, 2), S(2, 3), S(3, 4, 5)]
    sets = chain + [_translate(s, 10) for s in chain] + [S(30, 40),
                                                         S(40, 50),
                                                         S(30, 50)]
    one = expected_product(chain)
    assert one == brute_force_expect([BetaFamily(6, [s]) for s in chain])
    triangle = brute_force_expect(
        [BetaFamily(4, [S(*s)]) for s in ([1, 2], [2, 3], [1, 3])]
    )
    assert expected_product(sets) == one * one * triangle


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=(1 << 200) - 1), min_size=3,
                max_size=7))
def test_wide_component_matches_direct_subset_sum(raw):
    # every member holds index 151, so the members form one overlap
    # component whose support runs past the first 64-bit word
    members = [m | 1 << 150 for m in raw]
    direct = Fraction(0)
    for h in range(1 << len(members)):
        union = 0
        for j, m in enumerate(members):
            if h >> j & 1:
                union |= m
        direct += Fraction((-2) ** h.bit_count(), 2 ** union.bit_count())
    assert expected_product(members) == direct


# ---------------------------------------------------------------------------
# Condition scans


def test_condition_a_constant_window():
    report = condition_A_partial(WindowMaxRule(3), horizon=40)
    # per-step value stabilizes at 1 - 2^(1-3) once the window is full
    for k in range(5, 41):
        assert report.rho[k - 1] == Fraction(3, 4)
    assert report.stabilized == Fraction(3, 4)
    assert all(-1 <= r <= 1 for r in report.rho)
    assert all(-1 <= c <= 1 for c in report.cesaro)


def test_condition_a_identity():
    report = condition_A_partial(identity_rule(), horizon=16)
    assert all(r == 1 for r in report.rho)
    assert all(c == 1 for c in report.cesaro)
    assert report.verdict == "converged"
    assert report.stabilized == 1


def test_condition_a_lagged_product_rule():
    # eta_k = xi_{k-1} xi_k has mean-zero covariation increments
    report = condition_A_partial(WindowMaxRule(1), horizon=32)
    assert all(r == 0 for r in report.rho[1:])
    assert report.rho[0] == -1  # psi0 for the empty window
    assert abs(float(report.cesaro[-1])) <= Fraction(1, 32)


def test_condition_a_capacity_reports_step():
    rule = ExtendedBrwRule(setseq.capped_prefix(64))
    # components are singletons, so no capacity issue even at large sizes
    report = condition_A_partial(rule, horizon=80)
    assert report.rho[0] == 1  # empty product at step 1
    assert all(r == 0 for r in report.rho[1:])


def test_condition_b_lagged_product():
    report = condition_B_partial(WindowMaxRule(1), horizon=256)
    for n in (16, 64, 256):
        assert report.double_cesaro[n - 1] == Fraction(1, n)
    assert report.verdict == "converged"


def test_condition_b_identity():
    report = condition_B_partial(identity_rule(), horizon=16)
    assert all(v == 1 for v in report.double_cesaro)
    assert report.verdict == "converged"


def test_condition_b_extended_brw_prefix():
    rule = ExtendedBrwRule(setseq.prefix_fraction(0.5))
    report = condition_B_partial(rule, horizon=320)
    assert report.verdict == "converged"
    assert abs(float(report.double_cesaro[-1])) < 1e-2
    assert float(report.cesaro[-1]) == pytest.approx(0.0, abs=1e-2)


def _grid(report):
    """(k, l, theta) per grid row; asserts the columns are reduced."""
    rows = []
    for k, l, num, exp in zip(*report.theta_grid):
        theta = Dyadic(num, exp)
        assert (theta.numerator, theta.exponent) == (num, exp), (k, l)
        rows.append((k, l, theta))
    return rows


def test_condition_b_grid_rows():
    report = condition_B_partial(WindowMaxRule(2), horizon=6, keep_grid=True)
    grid = {(k, l): v for k, l, v in _grid(report)}
    assert grid[(3, 3)] == 1
    # windows {1,2} and {2,3} overlap on one component
    assert grid[(3, 4)] == brute_force_expect(
        [WindowMaxRule(2).step_family(3), WindowMaxRule(2).step_family(4)]
    )
    assert len(grid) == 6 * 7 // 2


def test_condition_b_theta_matches_oracle_window():
    rule = WindowMaxRule(2)
    report = condition_B_partial(rule, horizon=8, keep_grid=True)
    for k, l, theta in _grid(report):
        oracle = brute_force_expect([rule.step_family(k), rule.step_family(l)])
        assert theta == oracle


def test_sign_flip_rule_condition_a():
    rule = SignFlipRule(0.5)
    report = condition_A_partial(rule, horizon=64)
    assert float(report.cesaro[-1]) == pytest.approx(0.0, abs=1e-9)


def _on_families(rule):
    """The same multipliers with no state model: the beta-family engine."""
    return ExplicitRule(rule.psi0, fallback=rule)


def test_condition_a_capacity_error_names_the_step():
    with pytest.raises(CapacityError) as err:
        condition_A_partial(_on_families(LevyRule()), horizon=10)
    assert "step 7" in str(err.value)


def test_bounded_rule_two_moving_sets_with_sign():
    # zeta_{k-1} = eps xi_[{k-4,k-3}] xi_[{k-2,k-1}] with eps = -1 throughout:
    # a fixed number of sets per step, all sliding, so pairs decorrelate
    def fam_at(step):
        return BetaFamily(
            step, [0, S(step - 4, step - 3),
                   S(step - 2, step - 1)]
        )

    fams = {step: fam_at(step) for step in range(6, 81)}
    rule = ExplicitRule(+1, families=fams, fallback=identity_rule())
    report = condition_B_partial(rule, horizon=80)
    assert report.stabilized == -expected_zeta(family([1, 2])) * expected_zeta(
        family([3, 4])
    )
    assert report.stabilized == Fraction(-1, 4)
    assert report.verdict == "converged"


def test_bounded_rule_constant_sets_fails_condition_b():
    # constant sets repeat the same covariation increment forever, so the
    # double mean tends to 1 instead of rho**2
    sets = [0, S(1, 2), S(3, 4, 5)]
    fams = {step: BetaFamily(step, sets) for step in range(6, 61)}
    rule = ExplicitRule(+1, families=fams, fallback=identity_rule())
    report = condition_B_partial(rule, horizon=60)
    assert report.stabilized == Fraction(-3, 8)
    assert report.verdict != "converged"
    assert report.double_cesaro[-1] > float(report.stabilized) ** 2 + 0.5


def _lagged_table(inner_signs, arity):
    # multiplier psi(u) = inner(u_1..u_{arity-1}) * u_{arity}
    import numpy as np

    head = (1 << (arity - 1)) - 1
    masks = np.arange(1 << arity)
    last = np.where((masks >> (arity - 1)) & 1, -1, 1).astype(np.int8)
    return inner_signs[masks & head] * last


def test_lagged_rules_have_zero_moments():
    # any multiplier of the form psi'(u_1..u_{n-2}) u_{n-1} has E[zeta] = 0,
    # and two of them at different steps are uncorrelated
    import numpy as np
    from gbrw.algebra import TruthTable, truth_to_beta
    from gbrw.simulate import SeedSpec

    rng = SeedSpec(1234).generator()
    # random lagged tables convert to dense families, so keep arities small
    for arity_k, arity_l in [(2, 3), (2, 4), (3, 4)]:
        fams = []
        for arity in (arity_k, arity_l):
            inner = (2 * rng.integers(0, 2, size=1 << (arity - 1), dtype=np.int8) - 1)
            table = TruthTable(arity, _lagged_table(inner, arity))
            fams.append(truth_to_beta(table))
        fam_k, fam_l = fams
        assert expected_zeta(fam_k) == 0
        assert expected_zeta(fam_l) == 0
        assert brute_force_expect([fam_k, fam_l]) == 0
        assert expected_zeta_pair(fam_k, fam_l) == 0


def _assert_grid_matches_pairs(rule, horizon, oracle_horizon=0):
    report = condition_B_partial(rule, horizon=horizon, keep_grid=True)
    fams = [rule.step_family(k) for k in range(1, horizon + 1)]
    assert report.rho == [expected_zeta(f) for f in fams]
    total = Fraction(0)
    for k, l, theta in _grid(report):
        assert theta == expected_zeta_pair(fams[k - 1], fams[l - 1]), (k, l)
        if l <= oracle_horizon:
            assert theta == brute_force_expect([fams[k - 1], fams[l - 1]])
        total += theta.as_fraction() * (1 if k == l else 2)
    assert all(len(column) == horizon * (horizon + 1) // 2 for column in report.theta_grid)
    assert report.double_cesaro[-1] == total / horizon**2


@pytest.mark.parametrize("rule", [
    WindowMaxRule(2),
    WindowMaxRule(3),
    WindowMaxRule(None),
    ExtendedBrwRule(setseq.sliding_window(3)),
], ids=lambda r: r.name)
def test_condition_b_grid_matches_per_pair_engine(rule):
    _assert_grid_matches_pairs(rule, 24, oracle_horizon=10)


step_members = st.lists(
    st.lists(st.sets(st.integers(min_value=0, max_value=5), max_size=3),
             max_size=4),
    min_size=10, max_size=10,
)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([-1, 1]), step_members)
def test_condition_b_grid_matches_per_pair_engine_explicit(psi0, per_step):
    # members at step s sit in the last six indices before s, so families
    # overlap their neighbours and leave distant steps disjoint
    fams = {}
    for step, members in enumerate(per_step, start=2):
        sets = [S(*(step - 1 - j for j in m if step - 1 - j >= 1))
                for m in members]
        fams[step] = BetaFamily(step, sets)
    rule = ExplicitRule(psi0, families=fams, fallback=identity_rule())
    _assert_grid_matches_pairs(rule, 14, oracle_horizon=14)


def test_levy_capacity_message_unchanged():
    # the sign rule's families stop at step 7; its state model does not
    message = "step 7: overlap component of size 35 exceeds expansion cap 20"
    for scan in (condition_A_partial, condition_B_partial):
        with pytest.raises(CapacityError) as err:
            scan(_on_families(LevyRule()), horizon=16)
        assert str(err.value) == message
        assert len(scan(LevyRule(), horizon=16).rho) == 16


def test_table_capacity_message_names_the_step_once(monkeypatch):
    # the table cap error already names its step; the scan adds no prefix
    monkeypatch.setattr(algebra, "DEFAULT_ENUM_CAP", 3)
    for scan in (condition_A_partial, condition_B_partial):
        with pytest.raises(CapacityError) as err:
            scan(_on_families(ModifiedLevyRule()), 8)
        assert str(err.value) == "step 5: rule table arity 4 exceeds enumeration cap 3"


def test_levy_scan_fails_at_the_first_blocked_step():
    # step 7 is the first family past the expansion cap; the scan builds no
    # later family, so a long horizon fails as fast and names the same step
    rule = _on_families(LevyRule())
    built = []
    step_family = rule.step_family

    def recording(step):
        built.append(step)
        return step_family(step)

    rule.step_family = recording
    with pytest.raises(CapacityError) as err:
        condition_A_partial(rule, horizon=64)
    assert str(err.value) == (
        "step 7: overlap component of size 35 exceeds expansion cap 20"
    )
    assert built == list(range(1, 8))


def test_condition_b_pair_capacity_names_the_pair(monkeypatch):
    # each family fits the cap alone; their chains join into one component
    monkeypatch.setattr(algebra, "DEFAULT_EXPANSION_CAP", 4)
    fams = {
        5: BetaFamily(5, [S(1, 2), S(2, 3), S(3, 4)]),
        8: BetaFamily(8, [S(4, 5), S(5, 6), S(6, 7)]),
    }
    rule = ExplicitRule(+1, families=fams, fallback=identity_rule())
    condition_A_partial(rule, horizon=8)
    with pytest.raises(CapacityError) as err:
        condition_B_partial(rule, horizon=8)
    assert str(err.value) == (
        "pair (5,8): overlap component of size 6 exceeds expansion cap 4"
    )


# ---------------------------------------------------------------------------
# The second-moment scan against the per-pair loop


def _condition_b_loop(rule, horizon, tolerance=DEFAULT_TOLERANCE):
    """Oracle: the scan visiting every pair k < l, as (double Cesaro means,
    verdict, stabilized value, reduced (k, l, numerator, exponent) rows)."""
    report_a = condition_A_partial(_on_families(rule), horizon, tolerance)
    step_masks = [rule.step_family(k).masks for k in range(1, horizon + 1)]
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
    rows, double = [], []
    total, total_exp = 0, 0
    r_stab = report_a.stabilized
    r_sq = r_stab * r_stab if r_stab is not None else Dyadic(0)
    band = max(1, horizon // 8)
    tail_start = horizon // 2 + 1
    theta_stable = r_stab is not None
    for l in range(1, horizon + 1):
        j = l - 1
        for k in range(1, l):
            i = k - 1
            if not supports[i] & supports[j]:
                num, exp = rho_num[i] * rho_num[j], rho_exp[i] + rho_exp[j]
            elif plain[i] and plain[j]:
                num = signs[i] * signs[j] if parities[i] == parities[j] else 0
                exp = 0
            else:
                try:
                    num, exp = _product_terms(step_masks[i] + step_masks[j])
                except CapacityError as exc:
                    raise CapacityError(f"pair ({k},{l}): {exc}") from exc
            if exp > total_exp:
                total <<= exp - total_exp
                total_exp = exp
            total += num << (total_exp - exp + 1)
            if (theta_stable and k >= tail_start and l - k >= band
                    and num << r_sq.exponent != r_sq.numerator << exp):
                theta_stable = False
            theta = Dyadic(num, exp)
            rows.append((k, l, theta.numerator, theta.exponent))
        total += 1 << total_exp
        rows.append((l, l, 1, 0))
        double.append(Fraction(total, (l * l) << total_exp))
    rho_sq = Fraction(report_a.final_cesaro()) ** 2
    tail = double[len(double) // 2:]
    stable = float(max(tail) - min(tail)) < tolerance
    close = abs(float(double[-1] - rho_sq)) < tolerance
    if r_stab is not None and theta_stable:
        verdict = "converged"
    elif stable and close:
        verdict = "converged"
    elif stable:
        verdict = "diverged"
    else:
        verdict = "undetermined"
    return double, verdict, r_stab, rows


def _assert_scan_matches_loop(rule, horizon):
    try:
        expected = _condition_b_loop(rule, horizon)
    except CapacityError as exc:
        if rule.state_model(horizon) is not None:
            # the state scan runs past the families' caps: it matches the
            # loop on every step the loop reaches
            while True:
                blocked = re.match(r"step (\d+):|pair \(\d+,(\d+)\):", str(exc))
                reach = int(blocked.group(1) or blocked.group(2)) - 1
                try:
                    double, _, _, rows = _condition_b_loop(rule, reach)
                    break
                except CapacityError as closer:
                    exc = closer
            report = condition_B_partial(rule, horizon, keep_grid=True)
            assert report.double_cesaro[:reach] == double
            assert list(zip(*report.theta_grid))[:len(rows)] == rows
            return
        with pytest.raises(CapacityError) as err:
            condition_B_partial(rule, horizon, keep_grid=True)
        assert str(err.value) == str(exc)
        return
    double, verdict, stabilized, rows = expected
    report = condition_B_partial(rule, horizon, keep_grid=True)
    assert report.double_cesaro == double
    assert report.verdict == verdict
    assert report.stabilized == stabilized
    assert list(zip(*report.theta_grid)) == rows
    plain_report = condition_B_partial(rule, horizon)
    assert plain_report.theta_grid is None
    assert (plain_report.double_cesaro, plain_report.verdict) == (double, verdict)


SCAN_BUILTINS = [
    "identity", "negation", "brw", "max", "window-max:1", "window-max:2",
    "window-max:3", "window-max:7", "levy", "modified-levy", "modified-levy-max",
    "extended-brw:window:3", "extended-brw:prefix:0.5", "extended-brw:prefix-log",
    "extended-brw:prefix-pow:0.5", "extended-brw:capped:4", "sign-flips:0.25",
    "sign-flips:0.5", "symmetric:-1:0:1", "symmetric:1", "symmetric:-1",
]


@pytest.mark.parametrize("horizon", [1, 2, 5, 64])
@pytest.mark.parametrize("spec", SCAN_BUILTINS)
def test_condition_b_matches_the_pair_loop_on_builtins(spec, horizon):
    _assert_scan_matches_loop(make_builtin(spec), horizon)


def test_condition_b_matches_the_pair_loop_on_max_at_136():
    _assert_scan_matches_loop(make_builtin("max"), 136)


def _explicit(families, fallback=None):
    fams = {step: BetaFamily(step, sets) for step, sets in families.items()}
    return ExplicitRule(+1, families=fams, fallback=fallback or identity_rule())


def P(a):
    """The prefix {1,...,a}."""
    return S(*range(1, a + 1))


def _prefix_length(s):
    # growing, repeated, shrinking and growing again
    return s - 1 if s < 8 else 7 if s < 14 else 20 - s if s < 19 else s - 17


def _tail_prefixes(steps):
    # rho = 3/4 from step 4 on: windows of three, prefixes {1,2,3} at the steps
    return _explicit({s: [P(3)] if s in steps else [S(s - 3, s - 2, s - 1)]
                      for s in range(4, 31)})


@pytest.mark.parametrize("horizon", [1, 2, 5, 30])
@pytest.mark.parametrize("rule", [
    # plain and non-plain members mixed, with sign flips (the empty set)
    _explicit({s: ([0] if s % 3 else []) + [S(s - 1)] + ([S(s - 2, s - 1)] if s % 2 else [])
               for s in range(3, 31)}),
    _explicit({s: [0, S(s - 1)] if s % 2 else [S(s - 2), S(s - 1)] for s in range(3, 31)},
              fallback=WindowMaxRule(2)),
    # one-member families against plain ones of equal parity
    _explicit({s: [S(1)] if s % 4 == 0 else [0, S(1, 2)] if s % 4 == 1 else [S(s - 1)]
               for s in range(3, 31)}),
    # the constant sets of test_bounded_rule_constant_sets_fails_condition_b
    _explicit({s: [0, S(1, 2), S(3, 4, 5)] for s in range(6, 31)}),
    # plain steps with rho = 0 whose parities repeat far apart, or only next door
    _explicit({s: [S(1)] for s in range(3, 31)}),
    _explicit({s: [S(s - 1 - s % 2)] for s in range(3, 31)}),
    # nested prefix members, with and without the empty set (sign -1)
    _explicit({s: [P(_prefix_length(s))] for s in range(3, 31)}),
    _explicit({s: ([0] if s % 3 else []) + [P(_prefix_length(s))] for s in range(3, 31)}),
    # prefix members among other one-member families and plain steps
    _explicit({s: [[S(2, 3)], [S(s - 2, s - 1)], [S(s - 1)], [0, S(1), S(3)], [S(1)],
                   [0, P(s - 1)], [P(s // 2)]][s % 7] for s in range(4, 31)},
              fallback=WindowMaxRule(None)),
    # rho stabilizes: tail prefix pairs closer than the band, then at the band
    _tail_prefixes({16, 18}),
    _tail_prefixes({16, 19}),
], ids=["mixed", "mixed-window", "one-member", "constant-sets", "repeated-parity",
        "adjacent-parity", "prefix-nested", "prefix-signs", "prefix-mixed",
        "prefix-tail-near", "prefix-tail-band"])
def test_condition_b_matches_the_pair_loop_on_explicit_families(rule, horizon):
    _assert_scan_matches_loop(rule, horizon)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([-1, 1]), st.lists(
    st.lists(st.sets(st.integers(min_value=0, max_value=7), max_size=2), max_size=4),
    min_size=20, max_size=20))
def test_condition_b_matches_the_pair_loop_on_random_families(psi0, per_step):
    # small members, many of them singletons or empty, near each step
    fams = {}
    for step, members in enumerate(per_step, start=2):
        fams[step] = BetaFamily(step, [S(*(step - 1 - j for j in m if step - 1 - j >= 1))
                                       for m in members])
    rule = ExplicitRule(psi0, families=fams, fallback=identity_rule())
    _assert_scan_matches_loop(rule, 24)


def test_condition_b_pair_capacity_matches_the_pair_loop(monkeypatch):
    monkeypatch.setattr(algebra, "DEFAULT_EXPANSION_CAP", 4)
    rule = _explicit({5: [S(1, 2), S(2, 3), S(3, 4)], 8: [S(4, 5), S(5, 6), S(6, 7)]})
    with pytest.raises(CapacityError) as err:
        _condition_b_loop(rule, 8)
    assert str(err.value) == "pair (5,8): overlap component of size 6 exceeds expansion cap 4"
    _assert_scan_matches_loop(rule, 8)


def test_max_scan_evaluates_no_pair(monkeypatch):
    # the all-minus flag: every row comes from the state counts, with no
    # family built and no pair evaluated
    calls = []
    for name in ("_component_terms", "_product_terms"):
        monkeypatch.setattr(moments, name, lambda *args: calls.append(args))
    monkeypatch.setattr(WindowMaxRule, "step_family", lambda *args: calls.append(args))
    report = condition_B_partial(make_builtin("max"), 512)
    assert not calls
    assert report.verdict == "undetermined"


def test_brw_scan_adopts_its_families(monkeypatch):
    # the parity's state model builds no family at all, at any horizon
    def init(*args):
        raise AssertionError("BetaFamily.__init__ entered")

    def step_family(self, step):
        raise AssertionError("step_family called")

    monkeypatch.setattr(BetaFamily, "__init__", init)
    monkeypatch.setattr(ProductRule, "step_family", step_family)
    for horizon in (256, 4096):
        report = condition_B_partial(make_builtin("brw"), horizon)
        assert report.stabilized == 0 and report.verdict == "converged"


# ---------------------------------------------------------------------------
# Reports held as integer sums against lists rebuilt from rho and theta


#: condition_B_partial's (verdict, stabilized as (numerator, exponent),
#: rho_estimate), as the reports built from per-step Dyadic and Fraction
#: lists gave them
REPORT_VERDICTS = {
    ("brw", 16): ("converged", (0, 0), 0.0),
    ("brw", 64): ("converged", (0, 0), 0.0),
    ("max", 16): ("undetermined", None, 0.7500038146972656),
    ("max", 64): ("undetermined", None, 0.9375),
    ("window-max:3", 16): ("undetermined", (3, 2), 0.75),
    ("window-max:3", 64): ("converged", (3, 2), 0.75),
    ("sign-flips:0.25", 16): ("undetermined", None, 0.5),
    ("sign-flips:0.25", 64): ("undetermined", None, 0.5),
    ("identity", 16): ("converged", (1, 0), 1.0),
    ("identity", 64): ("converged", (1, 0), 1.0),
    ("levy", 16): ("diverged", None, -0.196380615234375),
    ("levy", 64): ("diverged", None, -0.09934675374796689),
    ("extended-brw:window:3", 16): ("converged", (0, 0), 0.0),
    ("extended-brw:window:3", 64): ("converged", (0, 0), 0.0),
    ("extended-brw:prefix:0.5", 16): ("converged", (0, 0), 0.0),
    ("extended-brw:prefix:0.5", 64): ("converged", (0, 0), 0.0),
}


@pytest.mark.parametrize("spec, horizon", list(REPORT_VERDICTS))
def test_report_lists_match_the_eager_lists(spec, horizon):
    report = condition_B_partial(make_builtin(spec), horizon, keep_grid=True)
    rho = [r.as_fraction() for r in report.rho]
    assert all(type(r) is Dyadic for r in report.rho)
    assert [(r.numerator, r.exponent) for r in report.rho] == report.rho_terms
    assert report.cesaro == [sum(rho[:k]) / k for k in range(1, horizon + 1)]
    # row sums sum_{k<l} theta_{k,l} from the grid, then the double means
    rows = [Fraction(0)] * horizon
    for k, l, num, exp in zip(*report.theta_grid):
        if k < l:
            rows[l - 1] += Fraction(num, 1 << exp)
    double = [sum(2 * row + 1 for row in rows[:l]) / l ** 2 for l in range(1, horizon + 1)]
    assert report.double_cesaro == double
    assert all(type(v) is Fraction for v in report.cesaro + report.double_cesaro)
    assert report.final_cesaro() == report.cesaro[-1]
    assert report.final_double_cesaro() == report.double_cesaro[-1]
    verdict, stabilized, estimate = REPORT_VERDICTS[spec, horizon]
    assert report.verdict == verdict
    assert report.stabilized == (None if stabilized is None else Dyadic(*stabilized))
    assert report.rho_estimate == estimate
    first = condition_A_partial(make_builtin(spec), horizon)
    assert (first.rho, first.cesaro, first.rho_estimate) == (report.rho, report.cesaro,
                                                             estimate)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-(1 << 90), 1 << 90), min_size=1, max_size=40),
       st.integers(0, 100), st.sampled_from([1, 2]))
def test_tail_range_matches_the_fraction_range(totals, exponent, power):
    means = [Fraction(t, k ** power << exponent) for k, t in enumerate(totals, start=1)]
    tail = means[len(means) // 2:]
    assert _tail_range(totals, exponent, power) == float(max(tail) - min(tail))


# ---------------------------------------------------------------------------
# State models against the beta-family engine and path enumeration


MODELLED = ["identity", "negation", "brw", "max", "window-max:1", "window-max:2",
            "window-max:3", "window-max:7", "sign-flips:0.25", "sign-flips:0.5",
            "sign-flips:1/3"]
#: walk-value models, whose families pass the expansion cap after step 6
WALK_MODELLED = ["symmetric:1", "symmetric:-1", "levy", "symmetric:-1:0:1",
                 "symmetric:-1:0.5:1", "symmetric:1:-0.3:-1:0.7:1", "modified-levy",
                 "modified-levy-max"]


def _walk_rules():
    rules = [make_builtin(spec, sgn0) for spec in WALK_MODELLED for sgn0 in (-1, 1)]
    return rules + [ergodic_repair(LevyRule()), rules_module._OneStepLate(LevyRule(1)),
                    rules_module._OneStepLate(WindowMaxRule(2))]


def _assert_same_report(rule, horizon, keep_grid):
    ours = condition_B_partial(rule, horizon, keep_grid=keep_grid)
    theirs = condition_B_partial(_on_families(rule), horizon, keep_grid=keep_grid)
    assert ours.rho == theirs.rho
    assert ours.cesaro == theirs.cesaro
    assert ours.double_cesaro == theirs.double_cesaro
    assert ours.stabilized == theirs.stabilized
    assert ours.verdict == theirs.verdict
    if keep_grid:
        assert [list(column) for column in ours.theta_grid] == [
            list(column) for column in theirs.theta_grid]
    else:
        assert ours.theta_grid is theirs.theta_grid is None
    first = condition_A_partial(rule, horizon)
    assert (first.rho, first.cesaro, first.verdict) == (theirs.rho, theirs.cesaro,
                                                        condition_A_partial(
                                                            _on_families(rule), horizon).verdict)


@pytest.mark.parametrize("horizon", [1, 8, 16, 64, 256])
@pytest.mark.parametrize("spec", MODELLED)
def test_state_scan_matches_the_family_engine(spec, horizon):
    rule = make_builtin(spec)
    assert rule.state_model(horizon) is not None
    _assert_same_report(rule, horizon, keep_grid=horizon <= 64)


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rule", _walk_rules(), ids=lambda r: f"{r.name}{r.psi0:+d}")
def test_walk_state_scan_matches_the_family_engine(rule, horizon):
    # the families' pair scan stops at pair (5,6) for the sign rule
    assert rule.state_model(horizon) is not None
    _assert_same_report(rule, horizon, keep_grid=True)


def test_family_grid_keeps_numerators_past_64_bits():
    # theta_{k,l} of max has exponents up to 2l - 2: the cells stay Python ints
    rule = make_builtin("max")
    _assert_same_report(rule, 100, keep_grid=True)
    grid = condition_B_partial(_on_families(rule), 100, keep_grid=True).theta_grid
    assert max(map(int.bit_length, grid[2])) > 64


def _repaired_rules():
    # prefix-max wrappers of automata where other paths share the all-minus
    # prefix's inner state
    return [ergodic_repair(make_builtin(spec))
            for spec in ["brw", "max", "window-max:3", "sign-flips:0.25", "identity"]]


@pytest.mark.parametrize("horizon", [1, 2, 5, 8])
@pytest.mark.parametrize("rule", _repaired_rules(), ids=lambda r: r.name)
def test_repaired_state_scan_matches_the_family_engine(rule, horizon):
    # the families' pair scan stops at pair (10,11) for repair(brw)
    assert rule.state_model(horizon) is not None
    _assert_same_report(rule, horizon, keep_grid=True)


@pytest.mark.parametrize("horizon", [8, 16])
@pytest.mark.parametrize("spec", ["symmetric:1", "symmetric:-1"])
def test_constant_symmetric_scan_matches_the_family_engine(spec, horizon):
    _assert_same_report(make_builtin(spec), horizon, keep_grid=True)


WINDOW_SCANS = [(width, keep_grid) for keep_grid in (False, True) for width in (2, 3, 7)]


@pytest.mark.parametrize("horizon", range(1, 41))
@pytest.mark.parametrize("width, keep_grid", WINDOW_SCANS,
                         ids=[f"{w}-grid" if grid else str(w) for w, grid in WINDOW_SCANS])
def test_window_scan_keeps_the_verdict_where_the_depth_passes_the_band(width, keep_grid,
                                                                       horizon):
    # a window of width w has depth w, more than the band h // 8 up to h < 8 w:
    # tail pairs closer than w are evaluated, the others give rho_k rho_l
    _assert_same_report(WindowMaxRule(width), horizon, keep_grid=keep_grid)


@pytest.mark.parametrize("spec, most", [("window-max:2", 1), ("window-max:3", 2),
                                        ("window-max:7", 6), ("brw", 0),
                                        ("sign-flips:0.25", 0)])
def test_grid_scan_holds_no_row_past_the_depth(monkeypatch, spec, most):
    # pairs at least the depth w apart, or after a step whose sign is the same
    # in every state, are rho_k rho_l: after step k only the rows of steps
    # k+2-w..k are held
    held = []
    step = moments._ListCounts.step

    def spy(counts, *args):
        step(counts, *args)
        held.append(len(counts.rows))

    monkeypatch.setattr(moments._ListCounts, "step", spy)
    report = condition_B_partial(make_builtin(spec), 64, keep_grid=True)
    assert len(held) == 64 and max(held) == most
    assert len(report.theta_grid[0]) == 64 * 65 // 2


def _list_count_rules():
    # every modelled rule at the largest horizon up to 10 whose automaton
    # keeps its counts in lists, where that horizon is 3 or more
    rules = [make_builtin(spec) for spec in MODELLED] + _walk_rules() + _repaired_rules()
    sized = [(rule, max(h for h in range(1, 11)
                        if rule.state_model(h).size <= moments._LIST_STATES))
             for rule in rules]
    return [(rule, horizon) for rule, horizon in sized if horizon >= 3]


@pytest.mark.parametrize("rule, horizon", _list_count_rules(),
                         ids=lambda v: f"{v.name}{v.psi0:+d}" if hasattr(v, "name") else str(v))
def test_compiled_step_matches_path_enumeration(rule, horizon):
    # c.out_k and b.out_k against the path sums of psi_{k-1} and of psi_{k-1}
    # (psi_0 + ... + psi_{k-2}) over all 2^horizon paths, each prefix of k-1
    # steps counted 2^(horizon-k+1) times; one compiled step per output vector
    model = rule.state_model(horizon)
    counts = moments._ListCounts(model)
    moments._compiled_step.cache_clear()
    masks = np.arange(1 << horizon)
    psi = rule.multipliers(1 - 2 * ((masks[:, None] >> np.arange(horizon)) & 1)).astype(np.int64)
    before = np.cumsum(psi, axis=1) - psi
    for k in range(1, horizon + 1):
        num, row, thetas = counts.values(model.out(k))
        assert thetas == []
        assert (num << horizon - k + 1, row << horizon - k + 1) == (
            int(psi[:, k - 1].sum()), int((psi[:, k - 1] * before[:, k - 1]).sum()))
        counts.step(False, 0)
    assert moments._compiled_step.cache_info().currsize == len(
        {model.out(k).tobytes() for k in range(1, horizon + 1)})


@pytest.mark.parametrize("rule, variants", [
    (make_builtin("sign-flips:0.25"), 2), (ergodic_repair(ProductRule()), 3),
    (ergodic_repair(WindowMaxRule(3)), 2)], ids=lambda v: getattr(v, "name", str(v)))
def test_compiled_step_follows_signs_that_change_with_the_step(rule, variants):
    # the single state's sign flips at some steps; the repairs' flagged half
    # flips at the flip steps: each output vector gets its own compiled step
    model = rule.state_model(10)
    counts = moments._ListCounts(model)
    moments._compiled_step.cache_clear()
    for k in range(1, 11):
        counts.values(model.out(k))
        counts.step(False, 0)
    assert moments._compiled_step.cache_info().currsize == variants
    _assert_same_report(rule, 10, keep_grid=True)


def test_a_second_scan_of_an_automaton_compiles_nothing(monkeypatch):
    # compiled steps are kept per automaton shape and output vector for the
    # process, so a new rule object with the same automaton reuses them
    compiled = []
    monkeypatch.setattr(moments, "exec", lambda *args: compiled.append(args) or exec(*args),
                        raising=False)
    moments._compiled_step.cache_clear()
    first = condition_B_partial(make_builtin("window-max:3"), 256)
    assert compiled
    compiled.clear()
    assert condition_B_partial(make_builtin("window-max:3"), 256) == first
    assert compiled == []


BRW_DOCUMENT = """psi0: -1
generator: beta {
  2: [{}, {1}]
  3: [{1,2}]
  4: [{1,3}, {2}]
  5: [{1,2}, {3,4}]
  6: [{1}]
  7: [{}, {2,5}]
  8: [{}, {1}, {2}]
  9: [{2,5,8}]
  fallback: brw
}
"""


def _brw_document(tmp_path):
    path = tmp_path / "brw.rule"
    path.write_text(BRW_DOCUMENT)
    return load_rule(str(path))


@pytest.mark.parametrize("horizon", [1, 4, 5, 9, 12])
def test_plain_rows_meet_the_listed_steps_of_a_brw_document(tmp_path, horizon):
    # plain rows (the fallback's and steps 2, 6 and 8) meet earlier plain
    # rows through their parity sums and the listed steps that are not plain
    # through the pair search, which consults those steps alone: theta_{3,6}
    # = E[max(u_1, u_2) u_1] = 1/2, where rho_3 rho_6 = 0
    rule = _brw_document(tmp_path)
    _assert_scan_matches_loop(rule, horizon)
    masks = np.arange(1 << horizon)
    psi = rule.multipliers(1 - 2 * ((masks[:, None] >> np.arange(horizon)) & 1)).astype(np.int64)
    products = psi.T @ psi  # path sums of psi_{k-1} psi_{l-1}
    ks, ls, nums, exps = condition_B_partial(rule, horizon, keep_grid=True).theta_grid
    assert list(map(Fraction, nums, [1 << e for e in exps])) == [
        Fraction(int(products[k - 1, l - 1]), 1 << horizon) for k, l in zip(ks, ls)]


def _grid_pair_by_pair(report, cells):
    """Oracle: the (k, l, numerator, exponent) rows built one pair at a time
    from the cells a scan evaluated, 1 on the diagonal and the reduced
    rho_k rho_l elsewhere."""
    evaluated = dict(zip(*cells))
    rows = []
    for l in range(1, report.horizon + 1):
        for k in range(1, l + 1):
            product = report.rho[k - 1] * report.rho[l - 1]
            rows.append((k, l, *evaluated.get(l * (l - 1) // 2 + k - 1, (
                (1, 0) if k == l else (product.numerator, product.exponent)))))
    return rows


@pytest.mark.parametrize("spec, horizon", [("max", 64), ("window-max:3", 128),
                                           ("extended-brw:window:3", 128), ("document", 40)])
def test_indexed_grid_matches_the_pair_by_pair_grid(tmp_path, spec, horizon):
    rule = _brw_document(tmp_path) if spec == "document" else make_builtin(spec)
    report = condition_B_partial(rule, horizon, keep_grid=True)
    model = rule.state_model(horizon)
    if model is None:
        _, steps = moments._family_scan(rule, horizon)
        cells = moments._pair_scan(report, steps, True)[2]
    else:
        cells = moments._state_scan(model, horizon, True)[3]
    assert list(zip(*report.theta_grid)) == _grid_pair_by_pair(report, cells)
    ids, values = report.theta_cells
    assert len(set(values)) == len(values) and set(ids.tolist()) <= set(range(len(values)))
    # exponents reach 2 horizon - 2: Python ints, never int64
    assert all(type(num) is int and type(exp) is int for num, exp in values)


def test_state_model_depths():
    depths = {spec: make_builtin(spec).state_model(64).depth()
              for spec in ["identity", "sign-flips:0.25", "symmetric:1", "brw", "max",
                           "window-max:1", "window-max:3", "window-max:7", "levy",
                           "modified-levy", "modified-levy-max"]}
    assert depths == {"identity": 0, "sign-flips:0.25": 0, "symmetric:1": 0, "brw": 1,
                      "max": None, "window-max:1": 1, "window-max:3": 3,
                      "window-max:7": 7, "levy": None, "modified-levy": None,
                      "modified-levy-max": None}
    assert make_builtin("levy").state_model(10).depth() is None  # 21 states, searched


PATHS = 14


@pytest.fixture(scope="module")
def all_paths():
    masks = np.arange(1 << PATHS)
    return (1 - 2 * ((masks[:, None] >> np.arange(PATHS)) & 1)).astype(np.int8)


@pytest.mark.parametrize("rule", [make_builtin(spec) for spec in MODELLED] + _walk_rules()
                         + _repaired_rules(), ids=lambda r: f"{r.name}{r.psi0:+d}")
def test_state_scan_matches_path_enumeration(rule, all_paths):
    # rho_k and every row sum sum_{j<k} theta_{j,k} over all 2^14 paths
    psi = rule.multipliers(all_paths).astype(np.int64)
    report = condition_B_partial(rule, PATHS)
    assert [r.as_fraction() for r in report.rho] == [
        Fraction(int(column.sum()), 1 << PATHS) for column in psi.T]
    products = psi.T @ psi  # path sums of psi_{k-1} psi_{l-1}
    total, double = 0, []
    for l in range(PATHS):
        total += 2 * int(products[:l, l].sum()) + int(products[l, l])
        double.append(Fraction(total, (l + 1) ** 2 << PATHS))
    assert report.double_cesaro == double


@pytest.mark.parametrize("sgn0", [-1, 1])
def test_levy_first_moments_are_the_return_probabilities(sgn0):
    # rho_k = E[sgn(S_{k-1})] = sgn0 P(S_{k-1} = 0), zero at odd k - 1
    report = condition_A_partial(LevyRule(sgn0), 200)
    assert report.rho == [Dyadic(sgn0 * math.comb(n, n // 2) if n % 2 == 0 else 0, n)
                          for n in range(200)]


def test_levy_double_cesaro_mean_is_one_half():
    # E[(2A - 1)^2] = 1/2 for A arcsine-distributed (Levy), reached exactly
    report = condition_B_partial(LevyRule(), 256)
    assert report.double_cesaro[-1] == Fraction(1, 2)
    assert report.verdict != "converged"


def test_prefix_max_model_flags_the_all_minus_path():
    # the inner automaton twice over: the flagged copy holds the all-minus
    # path alone, even where other paths share its inner state (brw's parity)
    model = ergodic_repair(ProductRule()).state_model(8)
    assert model.size == 4 and model.initial == 2
    assert model.minus.tolist() == [1, 0, 3, 2]
    assert model.plus.tolist() == [0, 1, 0, 1]
    assert model.depth() is None
    assert ergodic_repair(LevyRule()).state_model(8) is not None
    assert ExplicitRule(-1, fallback=LevyRule()).state_model(8) is None


def test_condition_b_memory_is_linear_in_the_horizon():
    # candidate pairs are streamed row by row, never held as an h x h matrix
    import tracemalloc

    tracemalloc.start()
    try:
        report = condition_B_partial(WindowMaxRule(3), 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "converged"
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# Closed forms


def test_closed_form_disjoint_values():
    assert closed_form_disjoint(1, 5) == 0
    assert closed_form_disjoint(3, 2) == Fraction(9, 16)
    assert closed_form_disjoint(2, 0) == 1
    assert closed_form_disjoint(4, None) == 0


def test_closed_form_matches_condition_a_exactly():
    # family of two disjoint sets of size 3, constant from the first full step
    for kappa, m in [(2, 2), (3, 2), (4, 1), (5, 3)]:
        sets = [
            S(*range(1 + i * kappa, 1 + (i + 1) * kappa)) for i in range(m)
        ]
        start = kappa * m + 1
        horizon = 4 * start
        fams = {
            step: BetaFamily(step, sets) for step in range(start, horizon + 1)
        }
        rule = ExplicitRule(+1, families=fams, fallback=identity_rule())
        report = condition_A_partial(rule, horizon=horizon)
        expected = closed_form_disjoint(kappa, m)
        for step in range(start, horizon + 1):
            assert report.rho[step - 1] == expected
        assert report.stabilized == expected


def test_window_rho():
    assert window_rho(1) == 0
    assert window_rho(2) == Fraction(1, 2)
    assert window_rho(None) == 1
    with pytest.raises(ValueError):
        window_rho(0)


def test_sign_flip_rho():
    assert sign_flip_rho(0) == 1
    assert sign_flip_rho(Fraction(1, 2)) == 0
    assert sign_flip_rho(1) == -1
    with pytest.raises(ValueError):
        sign_flip_rho(2)


# ---------------------------------------------------------------------------
# Set-sequence diagnostics


def test_analyze_prefix_half():
    report = analyze_set_sequence(setseq.prefix_fraction(0.5), horizon=400)
    assert float(report.n_ratio[-1]) > 0.95
    assert report.nested
    assert report.independent_limit
    # nested identity: match fraction equals (n - N(n) + 1)/n exactly
    for n in range(1, 401):
        assert report.match_fraction[n - 1] == Fraction(
            n - report.first_match[n - 1] + 1, n
        )


def test_analyze_prefix_log_oscillates():
    report = analyze_set_sequence(setseq.prefix_log(), horizon=1200)
    ratios = [float(r) for r in report.n_ratio[600:]]
    assert max(ratios) - min(ratios) > 0.3  # no convergence of N(n)/n
    assert not report.independent_limit


def test_analyze_capped_prefix_all_equal():
    report = analyze_set_sequence(setseq.capped_prefix(3), horizon=200)
    assert float(report.match_fraction[-1]) > 0.9
    assert not report.independent_limit


def test_analyze_sliding_window_first_match_is_self():
    report = analyze_set_sequence(setseq.sliding_window(3), horizon=250)
    for n in range(5, 251):
        assert report.first_match[n - 1] == n
        assert report.n_ratio[n - 1] == 1
    assert report.independent_limit


def test_prefix_power_ratio_tends_to_one():
    # the match fraction decays like 2/sqrt(n); size the tolerance accordingly
    report = analyze_set_sequence(setseq.prefix_power(0.5), horizon=3000,
                                  tolerance=0.06)
    assert float(report.n_ratio[-1]) > 0.9
    assert report.independent_limit


def test_intersection_diagnostic_sliding_window():
    report = intersection_diagnostic(setseq.sliding_window(3), horizon=300)
    assert float(report.mean_intersection[-1]) < 0.1
    assert report.cardinality == 3
    assert not report.recurring


def test_intersection_diagnostic_constant_sets():
    # M_k = {1,...,min(2, k-1)}
    seq = setseq.SetSequence("const", np.ones_like, lambda k: np.minimum(k - 1, 2))
    report = intersection_diagnostic(seq, horizon=200)
    assert report.mean_intersection[-1] == pytest.approx(2, abs=0.1)
    assert report.recurring == [1, 2]


def test_intersection_diagnostic_disjoint_singletons():
    # M_k = {k-1}, empty at k = 1
    seq = setseq.SetSequence("last", lambda k: np.maximum(k - 1, 1), lambda k: k - 1)
    report = intersection_diagnostic(seq, horizon=100)
    assert all(v == 0 for v in report.mean_intersection)


def test_intersection_diagnostic_rejects_growing_sets():
    with pytest.raises(ValueError):
        intersection_diagnostic(setseq.prefix_fraction(0.5), horizon=60)


def test_set_sequence_validation():
    # M_k = {k} reaches past k - 1
    bad = setseq.SetSequence("bad", lambda k: k.copy(), lambda k: k.copy())
    with pytest.raises(ValueError, match="not a subset"):
        bad.bounds(3)


# the set-based diagnostics over explicit sets, the oracle of the interval
# arithmetic in analyze_set_sequence and intersection_diagnostic


def interval_sets(seq, horizon):
    return [set(range(lo, hi + 1)) for lo, hi in zip(*seq.bounds(horizon))]


def analyze_sets(sets, tolerance):
    keys = [tuple(sorted(s)) for s in sets]
    first_seen, counts = {}, {}
    first_match, n_ratio, match_fraction = [], [], []
    for n, key in enumerate(keys, start=1):
        first_seen.setdefault(key, n)
        counts[key] = counts.get(key, 0) + 1
        first_match.append(first_seen[key])
        n_ratio.append(Fraction(first_seen[key], n))
        match_fraction.append(Fraction(counts[key], n))
    nested = all(set(a).issubset(set(b)) for a, b in zip(keys, keys[1:]))
    tail = match_fraction[len(sets) // 2:]
    independent = max(float(f) for f in tail) < tolerance
    return first_match, n_ratio, match_fraction, nested, independent


def intersect_sets(sets, threshold):
    horizon = len(sets) - 1
    tail_sizes = {len(s) for s in sets[horizon // 2:]}
    if len(tail_sizes) != 1:
        return None
    mean_intersection = [
        Fraction(sum(len(sets[k] & sets[n]) for k in range(n)), n)
        for n in range(1, horizon + 1)
    ]
    appearance = {}
    for s in sets[:horizon]:
        for k in s:
            appearance[k] = appearance.get(k, 0) + 1
    recurring = sorted(k for k, cnt in appearance.items() if cnt >= threshold)
    return mean_intersection, next(iter(tail_sizes)), recurring


DIAGNOSTIC_SEQUENCES = [
    setseq.prefix_fraction(0.5), setseq.prefix_fraction(0.1),
    setseq.prefix_fraction(0.9), setseq.prefix_log(), setseq.prefix_power(0.5),
    setseq.prefix_power(0.3), setseq.capped_prefix(1), setseq.capped_prefix(3),
    setseq.capped_prefix(40), setseq.sliding_window(1), setseq.sliding_window(3),
    setseq.sliding_window(17),
    # gaps and repeats that the builtin kinds do not produce
    setseq.SetSequence("alternating", lambda k: np.maximum(k % 3, 1),
                       lambda k: np.minimum(k // 2, k - 1)),
    setseq.SetSequence("sparse", lambda k: k // 2 + 1, lambda k: (k - 1) * (k % 2)),
]


@pytest.mark.parametrize("seq", DIAGNOSTIC_SEQUENCES, ids=lambda s: s.name)
@pytest.mark.parametrize("horizon", [2, 3, 7, 64, 257])
def test_set_diagnostics_match_set_oracle(seq, horizon):
    report = analyze_set_sequence(seq, horizon, tolerance=0.3)
    assert (report.first_match, report.n_ratio, report.match_fraction, report.nested,
            report.independent_limit) == analyze_sets(interval_sets(seq, horizon), 0.3)
    threshold = max(2, horizon // 3)
    expected = intersect_sets(interval_sets(seq, horizon + 1), threshold)
    if expected is None:
        with pytest.raises(ValueError, match="does not settle"):
            intersection_diagnostic(seq, horizon, threshold)
    else:
        report = intersection_diagnostic(seq, horizon, threshold)
        assert (report.mean_intersection, report.cardinality,
                report.recurring) == expected
