"""Cross-checking suites pairing each formula with an independent oracle.

Each suite returns (name, passed, detail); the CLI selftest command runs
them all and fails on any mismatch.  The random draws are seeded, so a
selftest run is reproducible.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    BetaFamily,
    TruthTable,
    beta_to_truth,
    linearize_product,
    member_strings,
    truth_to_beta,
)
from .dyadic import Dyadic
from .ergodic import (
    criterion_beta,
    criterion_product,
    orbit_decompose,
    sgn_beta_array,
)
from .moments import brute_force_expect, expected_zeta, expected_zeta_pair
from .rules import RandomRule, sgn_truth_table
from .simulate import SeedSpec


def _rng(seed: int) -> np.random.Generator:
    return SeedSpec(seed).generator()


def _mask(bits) -> int:
    """The mask with the given bit positions set (bit k-1 for index k)."""
    return sum(1 << int(b) for b in bits)


def _random_family(rng, max_index: int, max_members: int) -> BetaFamily:
    count = int(rng.integers(0, max_members + 1))
    members = []
    for _ in range(count):
        size = int(rng.integers(0, max_index + 1))
        members.append(_mask(rng.choice(max_index, size=size, replace=False)))
    return BetaFamily(max_index + 1, members)


def check_roundtrip(seed: int = 1, tables: int = 200, arity: int = 8):
    rng = _rng(seed)
    for _ in range(tables):
        n = int(rng.integers(0, arity + 1))
        signs = 2 * rng.integers(0, 2, size=1 << n, dtype=np.int8) - 1
        table = TruthTable(n, signs)
        if beta_to_truth(truth_to_beta(table)) != table:
            return "roundtrip", False, f"mismatch at arity {n}"
    return "roundtrip", True, f"{tables} random tables up to arity {arity}"


def check_linearization(seed: int = 2, instances: int = 100):
    rng = _rng(seed)
    for _ in range(instances):
        m = int(rng.integers(1, 5))
        sets = [
            _mask(rng.choice(8, size=int(rng.integers(0, 5)), replace=False))
            for _ in range(m)
        ]
        expansion = linearize_product(sets)
        nums, exp = expansion.evaluate_all(8)
        masks = np.arange(1 << 8, dtype=np.int64)
        direct = np.ones(1 << 8, dtype=np.int64)
        for s in sets:  # u_[K] is -1 on the supersets of K, everywhere for K empty
            direct *= np.where((masks & s) == s, -1, 1)
        if not np.array_equal(nums, direct << exp):
            return "linearization", False, f"mismatch for {member_strings(sets)}"
    return "linearization", True, f"{instances} random products"


def check_moment_oracle(seed: int = 3, instances: int = 100):
    rng = _rng(seed)
    for _ in range(instances):
        fam_a = _random_family(rng, max_index=10, max_members=4)
        fam_b = _random_family(rng, max_index=10, max_members=4)
        if expected_zeta(fam_a) != brute_force_expect([fam_a]):
            return "moment-oracle", False, f"single mismatch for {fam_a}"
        pair = expected_zeta_pair(fam_a, fam_b)
        if pair != brute_force_expect([fam_a, fam_b]):
            return "moment-oracle", False, f"pair mismatch for {fam_a}, {fam_b}"
    return "moment-oracle", True, f"{instances} random family pairs"


def check_criterion_equivalence(seed: int = 4, rules: int = 40, max_n: int = 7):
    rng = _rng(seed)
    for i in range(rules):
        rule = RandomRule(int(rng.integers(0, 2**63)), psi0=-1,
                          force_full=True if i % 2 else None)
        for n in range(1, max_n + 1):
            beta_bit = criterion_beta(rule, n)
            product = criterion_product(rule, n)
            if (beta_bit == 1) != (product == -1):
                return (
                    "criterion-equivalence",
                    False,
                    f"rule {rule.name} disagrees at n={n}",
                )
    return "criterion-equivalence", True, f"{rules} rules up to n={max_n}"


def check_orbit_criterion(seed: int = 5, rules: int = 20, max_n: int = 6):
    rng = _rng(seed)
    for i in range(rules):
        rule = RandomRule(int(rng.integers(0, 2**63)), psi0=-1,
                          force_full=(i % 2 == 0))
        ok_so_far = True
        for n in range(1, max_n + 1):
            if n > 1:
                ok_so_far = ok_so_far and criterion_product(rule, n - 1) == -1
            single = orbit_decompose(rule, n).single_orbit
            if single != ok_so_far:
                return "orbit-criterion", False, f"rule {rule.name} at n={n}"
    return "orbit-criterion", True, f"{rules} rules up to n={max_n}"


def check_sgn_array(max_n: int = 10):
    array = sgn_beta_array(max_n)
    for n in range(1, max_n + 1):
        table = beta_to_truth(array.row_family(n))
        if table != sgn_truth_table(n):
            return "sgn-array", False, f"row {n} does not reproduce the sign table"
    return "sgn-array", True, f"rows 1..{max_n} match the sign truth tables"


def check_covariation_mean(seed: int = 6, n: int = 10):
    from .moments import expected_zeta as ez
    from .rules import WindowMaxRule, ProductRule

    for rule in (WindowMaxRule(2), ProductRule()):
        masks = np.arange(1 << n, dtype=np.int64)
        total = 0
        for mask in masks:
            xi = np.where((mask >> np.arange(n)) & 1, -1, 1).astype(np.int8)
            eta = rule.apply(xi)
            total += int((xi * eta).sum())
        enumerated = Dyadic(total, n)  # mean over 2^n paths of sum(zeta)
        formula = Dyadic(0)
        for k in range(1, n + 1):
            formula = formula + ez(rule.step_family(k))
        if enumerated != formula:
            return "covariation-mean", False, f"{rule.name} mismatch"
    return "covariation-mean", True, f"two rules enumerated at n={n}"


ALL_CHECKS = (
    check_roundtrip,
    check_linearization,
    check_moment_oracle,
    check_criterion_equivalence,
    check_orbit_criterion,
    check_sgn_array,
    check_covariation_mean,
)


def run_all(seed: int = 0):
    """Run every suite; the seed offsets each suite's own stream."""
    import inspect

    results = []
    for offset, check in enumerate(ALL_CHECKS):
        if "seed" in inspect.signature(check).parameters:
            results.append(check(seed=seed + offset))
        else:
            results.append(check())
    return results
