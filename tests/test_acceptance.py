"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every check is exact (dyadic or integer equality) except the
Monte Carlo criteria, which carry their stated statistical tolerances, and
each criterion asserts its stated wall-clock budget.
"""

import math
import time

import numpy as np

from gbrw.algebra import (
    BetaFamily,
    TruthTable,
    beta_to_truth,
    linearize_product,
    subset_xor_transform,
    truth_to_beta,
)
from gbrw.ergodic import (
    binomial_parity,
    criterion_beta,
    criterion_product,
    is_bijection,
    is_ergodic_up_to,
    orbit_decompose,
    rule_permutation,
    sgn_beta_array,
)
from gbrw.moments import (
    brute_force_expect,
    closed_form_disjoint,
    condition_A_partial,
    expected_zeta,
    expected_zeta_pair,
    window_rho,
)
from gbrw.rules import (
    ExplicitRule,
    LevyRule,
    ModifiedLevyMaxRule,
    ModifiedLevyRule,
    RandomRule,
    WindowMaxRule,
    identity_rule,
    sgn_truth_table,
)
from gbrw.simulate import (
    SeedSpec,
    arcsine_test,
    exact_sign_sum_distribution,
    mc_covariation,
    reference_arcsine_cdf,
    sup_distance_discrete,
)

MASTER_SEED = 20260809


def _mask(bits):
    """The mask with the given bit positions set (bit k-1 for index k)."""
    return sum(1 << int(b) for b in bits)


class _Budget:
    def __init__(self, number: int, label: str, seconds: float):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.seconds else "FAIL"
        extra = f" [{detail}]" if detail else ""
        print(
            f"criterion {self.number:2d} {self.label}: {status} "
            f"({elapsed:.2f}s of {self.seconds:g}s budget){extra}"
        )
        assert ok, f"criterion {self.number} failed{extra}"
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded budget: {elapsed:.2f}s"
        )


def test_criterion_01_representation_roundtrip():
    budget = _Budget(1, "representation round-trip", 10.0)
    ok = True
    # all 65,536 tables at n=4, batched through the shared transform
    codes = np.arange(1 << 16, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16, dtype=np.uint32)[None, :]) & 1).astype(
        np.uint8
    )
    ok &= bool(
        np.array_equal(subset_xor_transform(subset_xor_transform(bits)), bits)
    )
    # 1,000 random tables at each larger arity, both directions
    rng = SeedSpec(MASTER_SEED, 1).generator()
    for n in (8, 12, 16):
        batch = rng.integers(0, 2, size=(1000, 1 << n), dtype=np.uint8)
        beta = subset_xor_transform(batch)
        ok &= bool(np.array_equal(subset_xor_transform(beta), batch))
    # the object layer routes through the same transform; spot-check it
    for mask_code in (0, 1, 37, 616, 65535):
        bits4 = np.array([(mask_code >> i) & 1 for i in range(16)], dtype=np.uint8)
        table = TruthTable.from_neg_bits(bits4)
        ok &= beta_to_truth(truth_to_beta(table)) == table
    for n in (8, 12, 16):
        signs = 2 * rng.integers(0, 2, size=1 << n, dtype=np.int8) - 1
        table = TruthTable(n, signs)
        family = truth_to_beta(table)
        ok &= beta_to_truth(family) == table
        ok &= truth_to_beta(beta_to_truth(family)) == family
    budget.finish(ok, "65536 tables at n=4 plus 1000 each at n=8,12,16")


def test_criterion_02_linearization():
    budget = _Budget(2, "product linearization", 5.0)
    rng = SeedSpec(MASTER_SEED, 2).generator()
    masks = np.arange(1 << 10, dtype=np.int64)
    ok = True
    for _ in range(500):
        m = int(rng.integers(1, 6))
        sets = []
        for _ in range(m):
            size = int(rng.integers(0, 11))
            sets.append(_mask(rng.choice(10, size=size, replace=False)))
        nums, exp = linearize_product(sets).evaluate_all(10)
        direct = np.ones(1 << 10, dtype=np.int64)
        for s in sets:
            if s == 0:
                direct = -direct
            else:
                direct *= np.where((masks & s) == s, -1, 1)
        ok &= bool(np.array_equal(nums, direct << exp))
        if not ok:
            break
    budget.finish(ok, "500 random products checked on all of {-1,+1}^10")


def test_criterion_03_moment_oracle():
    budget = _Budget(3, "moment formulas vs brute force", 30.0)
    rng = SeedSpec(MASTER_SEED, 3).generator()
    ok = True
    for _ in range(500):
        fams = []
        for _ in range(2):
            count = int(rng.integers(0, 5))
            members = [
                _mask(rng.choice(16, size=int(rng.integers(0, 7)), replace=False))
                for _ in range(count)
            ]
            fams.append(BetaFamily(17, members))
        fam_a, fam_b = fams
        ok &= expected_zeta(fam_a) == brute_force_expect([fam_a])
        ok &= expected_zeta_pair(fam_a, fam_b) == brute_force_expect([fam_a, fam_b])
        if not ok:
            break
    budget.finish(ok, "500 random families, support <= 16, exact dyadic equality")


def test_criterion_04_closed_forms():
    budget = _Budget(4, "closed-form correlations", 30.0)
    ok = True
    # disjoint equal-cardinality families, stabilized from the first usable step
    for kappa in range(1, 6):
        for m in range(0, 6):
            sets = [
                _mask(range(i * kappa, (i + 1) * kappa)) for i in range(m)
            ]
            start = max(2, kappa * m + 1)
            horizon = 4 * start
            fams = {
                step: BetaFamily(step, sets) for step in range(start, horizon + 1)
            }
            rule = ExplicitRule(+1, families=fams, fallback=identity_rule())
            report = condition_A_partial(rule, horizon=horizon)
            ok &= report.stabilized == closed_form_disjoint(kappa, m)
    # window rule: per-step value stabilizes at 1 - 2**(1-m) exactly
    for m in range(1, 6):
        report = condition_A_partial(WindowMaxRule(m), horizon=8 * (m + 1))
        ok &= report.stabilized == window_rho(m)
        ok &= all(report.rho[k] == window_rho(m) for k in range(m, 8 * (m + 1)))
    budget.finish(ok, "disjoint families kappa<=5, m<=5 and windows m<=5, exact")


def test_criterion_05_measure_preservation():
    budget = _Budget(5, "tau_n bijectivity", 60.0)
    rng = SeedSpec(MASTER_SEED, 5).generator()
    ok = True
    for i in range(50):
        rule = RandomRule(int(rng.integers(0, 2**63)),
                          psi0=-1 if i % 2 else 1)
        for n in range(1, 15):
            ok &= is_bijection(rule_permutation(rule, n))
        if not ok:
            break
    budget.finish(ok, "50 random rules, exhaustive for all n <= 14")


def test_criterion_06_ergodicity_equivalence():
    budget = _Budget(6, "criterion equivalences", 120.0)
    rng = SeedSpec(MASTER_SEED, 6).generator()
    ok = True
    for i in range(200):
        rule = RandomRule(int(rng.integers(0, 2**63)), psi0=-1,
                          force_full=(i % 2 == 0))
        passed_below = True  # criteria at steps 1..n-1
        for n in range(1, 11):
            product = criterion_product(rule, n)
            beta_bit = criterion_beta(rule, n)
            ok &= (beta_bit == 1) == (product == -1)
            single = orbit_decompose(rule, n).single_orbit
            ok &= single == passed_below
            ok &= is_ergodic_up_to(rule, n - 1).ergodic_so_far == single
            passed_below = passed_below and product == -1
        if not ok:
            break
    budget.finish(ok, "200 rules (half forced full-set), exhaustive n <= 10")


def test_criterion_07_levy_classification():
    budget = _Budget(7, "discrete Levy classification", 60.0)
    levy = is_ergodic_up_to(LevyRule(), 8)
    ok = not levy.ergodic_so_far
    ok &= levy.first_failure is not None and 1 <= levy.first_failure <= 4
    ok &= is_ergodic_up_to(ModifiedLevyRule(), 16).ergodic_so_far
    ok &= is_ergodic_up_to(ModifiedLevyMaxRule(), 16).ergodic_so_far
    budget.finish(
        ok, f"levy fails first at step {levy.first_failure}; both repairs pass to 16"
    )


def test_criterion_08_beta_array_fidelity():
    budget = _Budget(8, "sign coefficient array", 10.0)
    array = sgn_beta_array(800)
    ok = array.row_levels(2) == [1, 2]
    ok &= array.row_levels(3) == [2]
    for n in range(1, 15):
        ok &= beta_to_truth(array.row_family(n)) == sgn_truth_table(n)
    budget.finish(ok, "rows to n=800; rows 1..14 reproduce sign tables exactly")


def test_criterion_09_gaussian_covariation():
    budget = _Budget(9, "Gaussian-limit covariation", 60.0)
    n, reps = 100_000, 200
    window = mc_covariation(WindowMaxRule(2), n, reps, SeedSpec(MASTER_SEED, 9))
    ok = abs(window.mean - 0.5) < 3 * window.stderr
    lagged = mc_covariation(WindowMaxRule(1), n, reps, SeedSpec(MASTER_SEED, 10))
    ok &= abs(lagged.mean - 0.0) < 3 * lagged.stderr
    budget.finish(
        ok,
        f"window-max:2 mean {window.mean:.5f} (se {window.stderr:.5f}); "
        f"lagged-product mean {lagged.mean:.6f} (se {lagged.stderr:.6f})",
    )


def test_criterion_10_arcsine_limit():
    budget = _Budget(10, "non-Gaussian arcsine limit", 300.0)
    cdf = lambda x: float(reference_arcsine_cdf(x))
    distances = []
    for n in (4, 8, 12, 16, 20):
        atoms = exact_sign_sum_distribution(n)
        assert sum(p for _, p in atoms) == 1
        distances.append(sup_distance_discrete(atoms, cdf))
    ok = all(a > b for a, b in zip(distances, distances[1:]))
    report = arcsine_test(100_000, 10_000, SeedSpec(MASTER_SEED, 11),
                          threshold=0.02)
    ok &= report.ks_stat < 0.02
    budget.finish(
        ok,
        f"exact sup-distances {['%.4f' % d for d in distances]} decreasing; "
        f"MC KS {report.ks_stat:.4f} < 0.02",
    )


def test_criterion_11_parity_identities():
    budget = _Budget(11, "binomial parity identities", 5.0)
    ok = True
    for n in range(1, 4097):
        is_pow2 = n & (n - 1) == 0
        ok &= binomial_parity(2 * n - 1, n - 1) == (1 if is_pow2 else 0)
    for n in range(1, 31, 2):
        ok &= sum(math.comb(n, k) for k in range((n - 1) // 2 + 1)) == 2 ** (n - 1)
    budget.finish(ok, "central parities to n=4096; odd-row half sums to n=29")
