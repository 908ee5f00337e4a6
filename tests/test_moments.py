from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbrw.algebra import BetaFamily, CapacityError
from gbrw.moments import (
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
from gbrw.rules import (
    ExtendedBrwRule,
    ExplicitRule,
    LevyRule,
    ModifiedLevyRule,
    SignFlipRule,
    WindowMaxRule,
    identity_rule,
)
from gbrw import setseq

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
    with pytest.raises(CapacityError):
        brute_force_expect([fam], cap=24)


def test_expected_product_component_cap():
    sets = [S(k, k + 1) for k in range(1, 9)]  # one chained component
    with pytest.raises(CapacityError):
        expected_product(sets, cap=4)


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


def test_condition_b_grid_rows():
    report = condition_B_partial(WindowMaxRule(2), horizon=6, keep_grid=True)
    grid = {(k, l): v for k, l, v in report.theta_rows}
    assert grid[(3, 3)] == 1
    # windows {1,2} and {2,3} overlap on one component
    assert grid[(3, 4)] == brute_force_expect(
        [WindowMaxRule(2).step_family(3), WindowMaxRule(2).step_family(4)]
    )
    assert len(grid) == 6 * 7 // 2


def test_condition_b_theta_matches_oracle_window():
    rule = WindowMaxRule(2)
    report = condition_B_partial(rule, horizon=8, keep_grid=True)
    for k, l, theta in report.theta_rows:
        oracle = brute_force_expect([rule.step_family(k), rule.step_family(l)])
        assert theta == oracle


def test_sign_flip_rule_condition_a():
    rule = SignFlipRule(0.5)
    report = condition_A_partial(rule, horizon=64)
    assert float(report.cesaro[-1]) == pytest.approx(0.0, abs=1e-9)


def test_condition_a_capacity_error_names_the_step():
    from gbrw.rules import LevyRule

    with pytest.raises(CapacityError) as err:
        condition_A_partial(LevyRule(), horizon=10)
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
        assert expected_zeta(fam_k, cap=24) == 0
        assert expected_zeta(fam_l, cap=24) == 0
        assert brute_force_expect([fam_k, fam_l]) == 0
        assert expected_zeta_pair(fam_k, fam_l, cap=24) == 0


def _assert_grid_matches_pairs(rule, horizon, oracle_horizon=0):
    report = condition_B_partial(rule, horizon=horizon, keep_grid=True)
    fams = [rule.step_family(k) for k in range(1, horizon + 1)]
    assert report.rho == [expected_zeta(f) for f in fams]
    total = Fraction(0)
    for k, l, theta in report.theta_rows:
        assert theta == expected_zeta_pair(fams[k - 1], fams[l - 1]), (k, l)
        if l <= oracle_horizon:
            assert theta == brute_force_expect([fams[k - 1], fams[l - 1]])
        total += theta.as_fraction() * (1 if k == l else 2)
    assert len(report.theta_rows) == horizon * (horizon + 1) // 2
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
    message = "step 7: overlap component of size 35 exceeds expansion cap 20"
    for scan in (condition_A_partial, condition_B_partial):
        with pytest.raises(CapacityError) as err:
            scan(LevyRule(), horizon=16)
        assert str(err.value) == message


def test_table_capacity_message_names_the_step_once():
    # the table cap error already names its step; the scan adds no prefix
    for scan in (condition_A_partial, condition_B_partial):
        with pytest.raises(CapacityError) as err:
            scan(ModifiedLevyRule(), 8, cap=3)
        assert str(err.value) == "step 5: rule table arity 4 exceeds enumeration cap 3"


def test_levy_scan_fails_at_the_first_blocked_step():
    # step 7 is the first family past the expansion cap; the scan builds no
    # later family, so a long horizon fails as fast and names the same step
    rule = LevyRule()
    built = []
    step_family = rule.step_family

    def recording(step, cap):
        built.append(step)
        return step_family(step, cap)

    rule.step_family = recording
    with pytest.raises(CapacityError) as err:
        condition_A_partial(rule, horizon=64)
    assert str(err.value) == (
        "step 7: overlap component of size 35 exceeds expansion cap 20"
    )
    assert built == list(range(1, 8))


def test_condition_b_pair_capacity_names_the_pair():
    # each family fits the cap alone; their chains join into one component
    fams = {
        5: BetaFamily(5, [S(1, 2), S(2, 3), S(3, 4)]),
        8: BetaFamily(8, [S(4, 5), S(5, 6), S(6, 7)]),
    }
    rule = ExplicitRule(+1, families=fams, fallback=identity_rule())
    condition_A_partial(rule, horizon=8, expansion_cap=4)
    with pytest.raises(CapacityError) as err:
        condition_B_partial(rule, horizon=8, expansion_cap=4)
    assert str(err.value) == (
        "pair (5,8): overlap component of size 6 exceeds expansion cap 4"
    )


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
