import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gbrw import setseq, simulate
from gbrw.algebra import BetaFamily
from gbrw.dyadic import Dyadic
from gbrw.ergodic import ergodic_repair
from gbrw.moments import expected_zeta
from gbrw.rules import (
    ExplicitRule,
    ExtendedBrwRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    ProductRule,
    RandomRule,
    StepFunction,
    SymmetricRule,
    WindowMaxRule,
    identity_rule,
    negation_rule,
)
from gbrw.rulespec import load_rule
from gbrw.simulate import (
    SeedSpec,
    arcsine_test,
    covariation,
    default_grid,
    exact_sign_sum_distribution,
    final_covariation,
    ks_critical_value,
    ks_statistic,
    kolmogorov_pvalue,
    mc_covariation,
    reference_arcsine_cdf,
    sample_path,
    sup_distance_discrete,
)


def test_seed_determinism():
    a = SeedSpec(42, 3).increments(1000)
    b = SeedSpec(42, 3).increments(1000)
    assert np.array_equal(a, b)
    c = SeedSpec(42, 4).increments(1000)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {-1, 1}


def test_seed_bits_follow_the_documented_draw():
    # bit b of raw word j of the replicate's Philox stream is increment
    # 64 j + b, least significant bit first; a set bit is -1
    for master, replicate in ((42, 3), (2**70 + 5, 0)):
        seed = SeedSpec(master, replicate)
        xi = seed.increments(200)
        words = np.random.Philox(key=[master % 2**64, replicate]).random_raw(4)
        expected = [-1 if (int(words[k // 64]) >> (k % 64)) & 1 else 1
                    for k in range(200)]
        assert xi.dtype == np.int8 and xi.tolist() == expected


def test_seed_draws_are_prefixes_and_streams_differ():
    seed = SeedSpec(9, 1)
    for n in (0, 1, 63, 64, 65, 1000):
        longer = seed.increments(n + 64)
        assert np.array_equal(seed.increments(n), longer[:n])
    draws = [SeedSpec(9, r).increments(256) for r in range(4)]
    assert len({d.tobytes() for d in draws}) == 4
    assert not np.array_equal(SeedSpec(10, 1).increments(256), draws[1])
    with pytest.raises(ValueError):
        seed.increments(-1)


def test_sample_path_invariants():
    rule = LevyRule()
    path = sample_path(rule, 500, SeedSpec(7))
    assert path.n == 500
    assert np.array_equal(np.diff(path.x), path.xi)
    assert np.array_equal(np.diff(path.y), path.eta)
    assert path.x[0] == 0 and path.y[0] == 0
    assert np.array_equal(path.eta, rule.apply(path.xi))


def test_identity_and_negation_paths():
    path = sample_path(identity_rule(), 100, SeedSpec(1))
    assert np.array_equal(path.y, path.x)
    path = sample_path(negation_rule(), 100, SeedSpec(1))
    assert np.array_equal(path.y, -path.x)


def test_covariation_identity_grid():
    path = sample_path(identity_rule(), 64, SeedSpec(5))
    series = covariation(path)
    assert len(series.values) == len(default_grid())
    for t, v in zip(series.grid, series.values):
        assert v == Fraction(int(64 * t), 64)


def test_covariation_negation():
    path = sample_path(negation_rule(), 50, SeedSpec(5))
    series = covariation(path, grid=[0.0, 0.5, 1.0])
    assert series.values == [0, Fraction(-25, 50), -1]


def test_covariation_brw_hand_example():
    rule = ProductRule()
    xi = np.array([1, -1, -1, 1], dtype=np.int8)
    eta = rule.apply(xi)
    assert list(eta) == [1, -1, 1, 1]
    zeta = xi * eta
    assert list(zeta) == [1, 1, -1, 1]
    assert sum(zeta) / 4 == 0.5


def test_covariation_bound_on_paths():
    path = sample_path(LevyRule(), 200, SeedSpec(9))
    series = covariation(path)
    for t, v in zip(series.grid, series.values):
        assert abs(v) <= Fraction(int(200 * t), 200)


def test_final_covariation_matches_series():
    path = sample_path(WindowMaxRule(2), 123, SeedSpec(11))
    assert covariation(path, grid=[1.0]).values[0] == final_covariation(path)


def test_exact_mean_covariation_matches_moment_engine():
    # levy only up to n=6: beyond that its families exceed the expansion cap
    for rule, n in ((WindowMaxRule(2), 10), (ProductRule(), 10), (LevyRule(), 6)):
        total = 0
        for mask in range(1 << n):
            xi = np.where((mask >> np.arange(n)) & 1, -1, 1).astype(np.int8)
            eta = rule.apply(xi)
            total += int((xi * eta).sum())
        enumerated = Dyadic(total, n)
        formula = Dyadic(0)
        for k in range(1, n + 1):
            formula = formula + expected_zeta(rule.step_family(k))
        assert enumerated == formula


def test_mc_identity_degenerate():
    summary = mc_covariation(identity_rule(), 1000, 20, SeedSpec(3))
    assert summary.mean == 1.0
    assert summary.variance == 0.0


def test_mc_determinism():
    a = mc_covariation(WindowMaxRule(2), 2000, 50, SeedSpec(21))
    b = mc_covariation(WindowMaxRule(2), 2000, 50, SeedSpec(21))
    assert np.array_equal(a.finals, b.finals)


@pytest.mark.parametrize("rule", [
    ExplicitRule(-1, families={2: BetaFamily(2, [0, 0b1]),
                               4: BetaFamily(4, [0b101])},
                 fallback=ProductRule()),
    RandomRule(5),
    ergodic_repair(LevyRule()),
    ExtendedBrwRule(setseq.prefix_fraction(0.5)),
    ExtendedBrwRule(setseq.sliding_window(3)),
], ids=lambda r: r.name)
def test_mc_sums_match_applied_paths(rule):
    # mc_covariation sums multipliers; the covariation is sum(xi * eta)
    n, reps, seed = 14, 6, SeedSpec(77)
    summary = mc_covariation(rule, n, reps, seed)
    for r in range(reps):
        xi = seed.with_replicate(r).increments(n)
        assert summary.finals[r] == int((xi * rule.apply(xi)).sum()) / n


def per_replicate_sums(rule, n, reps, seed):
    """The Monte Carlo loop one replicate at a time: the blocks' oracle."""
    sums = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        xi = seed.with_replicate(seed.replicate + r).increments(n)
        sums[r] = n - 2 * np.count_nonzero(rule.multipliers(xi) < 0)
    return sums


BLOCK_ORACLE_RULES = [
    ProductRule(), LevyRule(), LevyRule(1), ModifiedLevyRule(), ModifiedLevyMaxRule(),
    SymmetricRule(StepFunction((0.0,), (-1, 1), "right")),
    SymmetricRule(StepFunction((0.0,), (1, -1), "right")),
    WindowMaxRule(None), WindowMaxRule(3), ExtendedBrwRule(setseq.prefix_fraction(0.5)),
    ExtendedBrwRule(setseq.sliding_window(3)),
    ExplicitRule(-1, families={2: BetaFamily(2, [0, 0b1]), 4: BetaFamily(4, [0b101])},
                 fallback=ProductRule()),
    RandomRule(5), ergodic_repair(LevyRule()),
]


@pytest.mark.parametrize("rule", BLOCK_ORACLE_RULES, ids=lambda r: r.describe())
@pytest.mark.parametrize("n, reps, block_steps", [
    (20, 23, 100),        # blocks of 5 rows, the last of 3
    (20, 550, None),      # one block; the vectorized draw
    (1000, 150, None),    # one block, unpacked 65, 65 and 20 rows at a time
    (5000, 30, None),     # one block, unpacked 13 rows at a time
    (10_000, 15, None),   # word kernels against the int8 accumulates at length
])
def test_mc_blocks_match_the_per_replicate_loop(rule, n, reps, block_steps, monkeypatch):
    if isinstance(rule, RandomRule) or rule.name.startswith("repair"):
        n = min(n, 20)  # tables of 2^(k-1) entries at step k
    if block_steps is not None:
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block_steps)
    for seed in (SeedSpec(8), SeedSpec(2**63 + 8)):
        summary = mc_covariation(rule, n, reps, seed)
        assert np.array_equal(summary.finals, per_replicate_sums(rule, n, reps, seed) / n)


@pytest.mark.parametrize("block_steps", [100, None])
def test_mc_draws_from_the_seed_replicate_onward(block_steps, monkeypatch):
    # every block draws from seed.replicate on, so two replicates of one
    # master give two runs on distinct streams
    if block_steps is not None:
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block_steps)
    rule, n, reps = LevyRule(), 20, 12
    finals = mc_covariation(rule, n, reps, SeedSpec(7, 11)).finals
    paths = [SeedSpec(7, 11 + r).increments(n) for r in range(reps)]
    assert np.array_equal(finals, [(xi * rule.apply(xi)).sum() / n for xi in paths])
    assert not np.array_equal(finals, mc_covariation(rule, n, reps, SeedSpec(7, 0)).finals)


def test_mc_blocks_keep_long_paths_one_per_call(monkeypatch):
    # a path longer than a block is a block of its own; each block is one
    # call of the packed kernel on its (rows, ceil(n/64)) words
    calls = []
    rule = LevyRule()
    monkeypatch.setattr(rule, "minus_words", lambda words, n, f=rule.minus_words:
                        calls.append((words.shape, n)) or f(words, n))
    mc_covariation(rule, simulate.BLOCK_STEPS + 1, 3, SeedSpec(1))
    mc_covariation(rule, simulate.BLOCK_STEPS // 2, 5, SeedSpec(1))
    half = simulate.BLOCK_STEPS // 2
    assert calls == ([((1, -(-(2 * half + 1) // 64)), 2 * half + 1)] * 3
                     + [((2, half // 64), half)] * 2 + [((1, half // 64), half)])


def test_default_word_route_bounds_its_block_peak():
    # a rule without a word kernel unpacks at most UNPACKED_STEPS steps of a
    # block at a time: a peak of 1.21 MB here (numpy 2.4, x86-64), where the
    # whole 2^20-step block unpacked at once took 14.1 MB
    rule = load_rule("builtin:symmetric:-1:0.5:1")
    tracemalloc.start()
    try:
        summary = mc_covariation(rule, 1000, 2000, SeedSpec(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert np.array_equal(summary.finals[:20],
                          per_replicate_sums(rule, 1000, 20, SeedSpec(3)) / 1000)


def test_extended_brw_computes_its_bounds_once_per_length(monkeypatch):
    # the default word route runs the int8 kernel once per chunk of rows (32
    # chunks here); every chunk reads the bounds the first one computed
    rule = load_rule("builtin:extended-brw:prefix:0.5")
    calls, bounds = [], rule.seq.bounds

    def spy(horizon):
        calls.append(horizon)
        return bounds(horizon)

    monkeypatch.setattr(rule.seq, "bounds", spy)
    summary = mc_covariation(rule, 1000, 2000, SeedSpec(3))
    assert calls == [1000]
    assert np.array_equal(summary.finals[:20],
                          per_replicate_sums(rule, 1000, 20, SeedSpec(3)) / 1000)


def test_mc_window_two_close_to_half():
    summary = mc_covariation(WindowMaxRule(2), 20000, 80, SeedSpec(33))
    assert abs(summary.mean - 0.5) < 4 * summary.stderr + 1e-3


def test_marginal_variance_proxy():
    # Y is itself a simple walk: Var(Y_n / sqrt(n)) = 1
    rule = LevyRule()
    n, reps = 4000, 250
    finals = np.array(
        [sample_path(rule, n, SeedSpec(17, r)).y[-1] for r in range(reps)],
        dtype=np.float64,
    )
    sample_var = (finals / math.sqrt(n)).var(ddof=1)
    stderr = math.sqrt(2.0 / (reps - 1))  # SE of unit-variance normal variance
    assert abs(sample_var - 1.0) < 5 * stderr


# ---------------------------------------------------------------------------
# Arcsine reference law


def test_reference_cdf_endpoints():
    assert reference_arcsine_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert reference_arcsine_cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert reference_arcsine_cdf(-1.0) == pytest.approx(0.0, abs=1e-15)


def levy_sum(xi, sgn0=-1):
    """sum_{k=1..n} sgn(X_{k-1}), the sum of the Levy rule's multipliers."""
    return int(LevyRule(sgn0).multipliers(xi).sum(dtype=np.int64))


def test_sign_sum_final_matches_rule():
    xi = SeedSpec(2).increments(200)
    for sgn0 in (-1, 1):
        walk = np.concatenate([[0], np.cumsum(xi[:-1], dtype=np.int64)])
        signs = np.where(walk > 0, 1, np.where(walk < 0, -1, sgn0))
        assert levy_sum(xi, sgn0) == int(signs.sum())
        eta = LevyRule(sgn0).apply(xi)
        assert levy_sum(xi, sgn0) == int((xi * eta).sum())


@pytest.mark.parametrize("sgn0", [-1, 1])
def test_sign_sum_final_over_all_paths_matches_exact_law(sgn0):
    for n in range(1, 13):
        counts = {}
        for mask in range(1 << n):
            xi = np.where((mask >> np.arange(n)) & 1, -1, 1).astype(np.int8)
            total = levy_sum(xi, sgn0)
            counts[total] = counts.get(total, 0) + 1
        law = [(Fraction(t, n), Fraction(c, 1 << n)) for t, c in sorted(counts.items())]
        assert law == exact_sign_sum_distribution(n, sgn0)


def test_exact_distribution_probabilities_sum_to_one():
    atoms = exact_sign_sum_distribution(10)
    assert sum(p for _, p in atoms) == 1
    assert all(Fraction(-1) <= v <= 1 for v, _ in atoms)


def _sign_sum_law_walk(n, sgn0):
    # independent oracle: every one of the 2**n paths walked one step at a
    # time, in chunks of 2**20 paths
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    chunk = 1 << min(n, 20)
    for start in range(0, 1 << n, chunk):
        paths = np.arange(start, start + chunk, dtype=np.uint32)
        walk = np.zeros(chunk, dtype=np.int8)  # X_{k-1}, |X| <= n
        totals = np.zeros(chunk, dtype=np.int8)
        for j in range(n):
            totals += np.sign(walk)
            totals += (walk == 0).astype(np.int8) * np.int8(sgn0)
            walk += 1 - 2 * ((paths >> j) & 1).astype(np.int8)
        counts += np.bincount(totals.astype(np.int64) + n, minlength=2 * n + 1)
    return [(Fraction(i - n, n), Fraction(int(c), 1 << n))
            for i, c in enumerate(counts) if c]


@pytest.mark.parametrize("n", [1, 2, 7, 13, 21])
@pytest.mark.parametrize("sgn0", [-1, 0, 1])
def test_exact_law_matches_path_count_recursion(n, sgn0):
    # the count recursion against the 2**n walk; n = 21 walks two chunks
    assert exact_sign_sum_distribution(n, sgn0) == _sign_sum_law_walk(n, sgn0)


@pytest.mark.parametrize("n", [25, 200])
def test_exact_law_runs_past_the_enumeration_cap(n):
    atoms = exact_sign_sum_distribution(n, 1)
    assert sum(p for _, p in atoms) == 1
    # the total is n when X_1, ..., X_{n-1} >= 0, as likely as X_1, ...,
    # X_{2m} >= 0 for m = n // 2: C(2m, m) / 2**(2m) (Feller, Vol. I, ch. III)
    m = n // 2
    assert atoms[-1] == (1, Fraction(math.comb(2 * m, m), 1 << 2 * m))
    for bad in ((0, -1), (-3, 1), (5, 2)):
        with pytest.raises(ValueError):
            exact_sign_sum_distribution(*bad)


def test_exact_law_validates_reference_cdf():
    # sup distance to the limiting CDF decreases along n = 4, 8, ..., 20
    distances = []
    for n in (4, 8, 12, 16, 20):
        atoms = exact_sign_sum_distribution(n)
        distances.append(
            sup_distance_discrete(atoms, lambda x: float(reference_arcsine_cdf(x)))
        )
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[0] == pytest.approx(0.375, abs=1e-12)
    assert distances[-1] == pytest.approx(0.17619705200195312, abs=1e-9)


def test_exact_law_approaches_reference_cdf_at_large_n():
    # the count recursion reaches n = 200; the sup distance to the arcsine
    # limit keeps falling, at about n ** -0.5
    sizes = (16, 20, 32, 64, 128, 200)
    cdf = lambda x: float(reference_arcsine_cdf(x))
    distances = [sup_distance_discrete(exact_sign_sum_distribution(n), cdf)
                 for n in sizes]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances == pytest.approx([0.1964, 0.1762, 0.1399, 0.0993, 0.0704, 0.0563],
                                      abs=1e-4)


def test_ks_statistic_hand_case():
    # two points at the median of U(0,1): ECDF jumps 0 -> 1 at 0.5
    stat = ks_statistic(np.array([0.5, 0.5]), lambda x: np.asarray(x))
    assert stat == pytest.approx(0.5)


def test_kolmogorov_pvalue_monotone():
    assert kolmogorov_pvalue(0.001, 100) > 0.99
    assert kolmogorov_pvalue(0.5, 100) < 1e-10


def test_ks_critical_value():
    # classic 5 percent asymptotic constant 1.3581 / sqrt(N)
    assert ks_critical_value(0.05, 10000) == pytest.approx(0.013581, rel=1e-3)


def test_arcsine_test_smoke():
    report = arcsine_test(5000, 400, SeedSpec(8))
    assert report.ks_stat < 0.12
    assert report.summary.replicates == 400
    a = arcsine_test(5000, 400, SeedSpec(8))
    assert a.ks_stat == report.ks_stat


def test_arcsine_test_rejects_tiny_reps():
    with pytest.raises(ValueError):
        arcsine_test(100, 10, SeedSpec(0))


# ---------------------------------------------------------------------------
# Symmetric rule construction


def test_symmetric_rule_sign_matches_levy():
    rule = SymmetricRule(StepFunction((0.0,), (-1, 1), jump_side="left"))
    levy = LevyRule()
    xi = SeedSpec(4).increments(300)
    assert np.array_equal(rule.apply(xi), levy.apply(xi))


def test_symmetric_rule_constant_plus_is_identity():
    rule = SymmetricRule(StepFunction((), (1,)))
    xi = SeedSpec(4).increments(50)
    assert np.array_equal(rule.apply(xi), xi)
    assert rule.psi0 == 1


def test_symmetric_threshold_rule_symmetric_tables():
    rule = SymmetricRule(StepFunction((1.0,), (-1, 1), jump_side="right"))
    for step in (3, 5, 8):
        table = rule.step_table(step)
        assert table.is_symmetric()
