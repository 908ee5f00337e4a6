"""Command-line surface: rule inspection, analyses, simulations, reports.

Exit codes: 0 on success, 2 when an analysis reaches a failing verdict,
1 on usage or I/O errors (including capacity limits).
"""

from __future__ import annotations

import argparse
import functools
import operator
import os
import sys

import numpy as np

from . import __version__
from .algebra import CapacityError, member_strings, member_text, subset_xor_transform
from .dyadic import Dyadic
from .ergodic import (
    ergodic_repair,
    is_ergodic_up_to,
    orbit_decompose,
    sgn_beta_array,
)
from .moments import (
    DEFAULT_B_HORIZON,
    DEFAULT_TOLERANCE,
    analyze_set_sequence,
    closed_form_disjoint,
    condition_B_partial,
    intersection_diagnostic,
    pair_steps,
    sign_flip_rho,
    window_rho,
)
from .reports import format_value, write_beta_pixmap, write_csv
from .rules import ExtendedBrwRule, SignFlipRule, WindowMaxRule
from .rulespec import BUILTINS, RuleSpecError, load_rule
from .simulate import (
    SeedSpec,
    arcsine_test,
    final_covariation,
    mc_covariation,
    reference_arcsine_cdf,
    sample_path,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED_VERDICT = 2


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_rule(args):
    return load_rule(args.rule, sgn0=args.sgn0)


def _float_cells(values) -> list[str]:
    """The cells of floats, or of exact values given as their float (int /
    int rounds as float(Fraction) does)."""
    return ["%.17g" % v for v in values]


def _dyadic_cells(values: list[tuple[int, int]]) -> tuple[list[str], list[str]]:
    """The exact (p/2^e) and float cells of Dyadic(p, e) per reduced (p, e)
    pair."""
    return ["%d/2^%d" % v for v in values], ["%.17g" % (p / (1 << e)) for p, e in values]


def _emit_rho_csv(args, report) -> str:
    path = _out_path(args, "rho_seq.csv")
    # each distinct value is formatted once
    ids_of = {}
    ids = [ids_of.setdefault(term, len(ids_of)) for term in report.rho_terms]
    write_csv(
        path,
        ("k", "rho_exact", "rho", "cesaro"),
        (np.arange(1, report.horizon + 1),
         *([cells[i] for i in ids] for cells in _dyadic_cells(list(ids_of))),
         _float_cells(t / (k << report.sum_exponent) for k, t in enumerate(report.sums, start=1))),
    )
    return path


def cmd_rules(args) -> int:
    if args.rule:
        rule = _load_rule(args)
        print(f"rule: {rule.describe()}")
        for n in range(1, min(args.horizon, 6) + 1):
            family = rule.step_family(n + 1)
            body = ", ".join(member_strings(family.masks)) or "(empty)"
            print(f"  multiplier {n}: beta members {body}")
        return EXIT_OK
    print("builtin rules (use as builtin:NAME, parameters colon-separated):")
    for name, (spelling, doc, _) in BUILTINS.items():
        print(f"  {name + spelling:32s} {doc}")
    return EXIT_OK


#: Longest member list or truth table that ``convert`` prints on stdout; the
#: CSV files always hold all of it.
_PRINT_MAX = 64


def cmd_convert(args) -> int:
    # --step addresses the multiplier index n: the sign function of the
    # first n increments, applied to increment n+1
    n = args.step
    rule = _load_rule(args)
    table = rule.step_table(n + 1)
    family = rule.step_family(n + 1)
    # the family written to beta_members.csv against the one the table transforms to
    masks = np.fromiter(family.masks, np.int64, len(family))
    roundtrip = np.array_equal(np.flatnonzero(subset_xor_transform(table.signs < 0)), masks)
    print(f"rule {rule.name}, multiplier {n} (a function of {n} increments)")
    if len(masks) <= _PRINT_MAX:
        print(f"beta members: {', '.join(member_strings(masks)) or '(empty)'}")
    else:
        print(f"beta members: {len(masks)} (see beta_members.csv)")
    if table.signs.size <= _PRINT_MAX:
        print(f"truth table:  {''.join('+' if s > 0 else '-' for s in table.signs)}")
    print(f"round-trip exact: {roundtrip}")
    write_csv(
        _out_path(args, "beta_members.csv"),
        ("multiplier", "member"),
        (np.full(len(masks), n), member_text(masks).T),
    )
    write_csv(
        _out_path(args, "truth_table.csv"),
        ("mask", "sign"),
        (np.arange(table.signs.size), table.signs),
    )
    return EXIT_OK if roundtrip else EXIT_FAILED_VERDICT


def _emit_set_diag(args, rule) -> None:
    if not isinstance(rule, ExtendedBrwRule):
        return
    horizon = args.horizon
    report = analyze_set_sequence(rule.seq, horizon, tolerance=args.tolerance)
    n = range(1, horizon + 1)
    try:
        d_seq = _float_cells(map(operator.truediv,
                                 intersection_diagnostic(rule.seq, horizon).overlaps, n))
    except ValueError:
        d_seq = [""] * horizon
    write_csv(
        _out_path(args, "set_diag.csv"),
        ("n", "first_match_ratio", "match_fraction", "mean_intersection"),
        (np.arange(1, horizon + 1), _float_cells(map(operator.truediv, report.first_match, n)),
         _float_cells(map(operator.truediv, report.matches, n)), d_seq),
    )
    print(
        f"set sequence {rule.seq.name}: nested={report.nested}, "
        f"independent-limit flag={report.independent_limit}"
    )


def cmd_moments(args) -> int:
    rule = _load_rule(args)
    report = condition_B_partial(
        rule, horizon=args.horizon, tolerance=args.tolerance, keep_grid=True
    )
    path_a = _emit_rho_csv(args, report)
    path_b = _out_path(args, "theta_grid.csv")
    # each distinct value is formatted once, and gathered per pair
    ids, values = report.theta_cells
    write_csv(
        path_b,
        ("k", "l", "theta_exact", "theta"),
        (*pair_steps(report.horizon),
         *(np.array(cells, dtype="S")[ids] for cells in _dyadic_cells(values))),
    )
    _emit_set_diag(args, rule)
    print(f"first-moment cesaro -> {float(report.final_cesaro()):.6g}")
    print(f"double cesaro -> {float(report.final_double_cesaro()):.6g}")
    print(f"verdict: {report.verdict} (tolerance {report.tolerance:g})")
    print(f"wrote {path_a}, {path_b}")
    return EXIT_OK if report.verdict == "converged" else EXIT_FAILED_VERDICT


def _closed_form_for(rule):
    if isinstance(rule, WindowMaxRule):
        return window_rho(rule.width)
    if isinstance(rule, ExtendedBrwRule):
        return closed_form_disjoint(1, None)
    # by name first: identity and negation are sign flips of density 0 and 1
    value = {"identity": 1, "negation": -1, "brw": 0}.get(rule.name)
    if value is None and isinstance(rule, SignFlipRule) and rule.density is not None:
        return sign_flip_rho(rule.density)
    return None if value is None else Dyadic(value)


def cmd_gaussian_check(args) -> int:
    rule = _load_rule(args)
    report = condition_B_partial(rule, horizon=args.horizon, tolerance=args.tolerance)
    _emit_rho_csv(args, report)
    rho = report.rho_estimate
    print(f"condition (A) cesaro -> {rho:.6g}"
          + (f", per-step value stabilized at {report.stabilized}"
             if report.stabilized is not None else ""))
    print(f"condition (B) double cesaro -> {float(report.final_double_cesaro()):.6g} "
          f"(target rho^2 = {rho * rho:.6g})")
    closed = _closed_form_for(rule)
    if closed is not None:
        print(f"closed-form correlation for {rule.name}: "
              f"{format_value(closed)} = {float(closed):.6g}")
    print(f"verdict: {report.verdict} (tolerance {report.tolerance:g})")
    return EXIT_OK if report.verdict == "converged" else EXIT_FAILED_VERDICT


def cmd_simulate(args) -> int:
    rule = _load_rule(args)
    seed = SeedSpec(args.seed)
    if args.reps == 1:
        path = sample_path(rule, args.length, seed)
        write_csv(
            _out_path(args, "paths.csv"),
            ("k", "x", "y"),
            (np.arange(path.n + 1), path.x, path.y),
        )
        final = float(final_covariation(path))
        print(f"single path of length {path.n}: final covariation {final:.6g}")
        print(f"wrote {_out_path(args, 'paths.csv')}")
        return EXIT_OK
    summary = mc_covariation(rule, args.length, args.reps, seed)
    write_csv(
        _out_path(args, "cov_summary.csv"),
        ("replicate", "final_covariation"),
        (np.arange(summary.finals.size), summary.finals),
    )
    print(
        f"{summary.replicates} replicates at n={summary.n}: "
        f"mean {summary.mean:.6g}, variance {summary.variance:.3g}, "
        f"stderr {summary.stderr:.3g}"
    )
    print(f"wrote {_out_path(args, 'cov_summary.csv')}")
    return EXIT_OK


def cmd_arcsine(args) -> int:
    report = arcsine_test(args.length, args.reps, SeedSpec(args.seed), sgn0=args.sgn0,
                          threshold=args.tolerance)
    finals = np.sort(report.summary.finals)
    grid = np.linspace(-1.0, 1.0, args.grid)
    empirical = np.searchsorted(finals, grid, side="right") / finals.size
    write_csv(
        _out_path(args, "ks_report.csv"),
        ("x", "empirical_cdf", "reference_cdf"),
        (grid, empirical, reference_arcsine_cdf(grid)),
    )
    print(
        f"KS distance {report.ks_stat:.4f} over {args.reps} replicates "
        f"(threshold {report.threshold:.4f}, p-value {report.ks_pvalue:.3g})"
    )
    print(f"wrote {_out_path(args, 'ks_report.csv')}")
    return EXIT_OK if report.passed else EXIT_FAILED_VERDICT


def cmd_ergodic_check(args) -> int:
    rule = _load_rule(args)
    verdict = is_ergodic_up_to(rule, args.horizon)
    orbit_n = min(args.horizon, 10)
    decomposition = orbit_decompose(rule, orbit_n)
    write_csv(
        _out_path(args, "orbits.csv"),
        ("cycle", "length"),
        (np.arange(len(decomposition.cycles)), np.array(decomposition.cycles)),
    )
    if verdict.ergodic_so_far:
        suffix = " (closed form for all steps)" if verdict.closed_form else ""
        print(f"rule {rule.name}: single-orbit criterion holds for "
              f"n <= {verdict.checked_up_to}{suffix}")
    else:
        where = ("psi0" if verdict.first_failure == 0
                 else f"step {verdict.first_failure}")
        print(f"rule {rule.name}: NOT ergodic, first failure at {where} "
              f"(value {verdict.failure_value:+d})")
        if args.repair:
            repaired = ergodic_repair(rule, horizon=min(args.horizon, 12))
            fixed = is_ergodic_up_to(repaired, min(args.horizon, 12))
            print(f"repaired rule {repaired.name}: ergodic up to "
                  f"{fixed.checked_up_to} = {fixed.ergodic_so_far}")
    print(
        f"tau_{orbit_n} cycle lengths: {list(decomposition.cycles[:8])}"
        + ("..." if len(decomposition.cycles) > 8 else "")
    )
    print(f"wrote {_out_path(args, 'orbits.csv')}")
    return EXIT_OK if verdict.ergodic_so_far else EXIT_FAILED_VERDICT


def cmd_beta_array(args) -> int:
    array = sgn_beta_array(args.horizon)
    write_csv(_out_path(args, "beta_array.csv"), ("n", "k", "beta"), array.columns())
    write_beta_pixmap(_out_path(args, "beta_array.ppm"), array.bits)
    print(f"wrote beta_array.csv and beta_array.ppm for n <= {array.size}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest  # imported by the one command that runs it

    results = selftest.run_all(seed=args.seed)
    for name, ok, detail in results:
        print(f"{name:24s} {'ok' if ok else 'FAIL':4s} {detail}")
    if failed := sum(not ok for _, ok, _ in results):
        print(f"{failed} suite(s) failed")
        return EXIT_FAILED_VERDICT
    print(f"all {len(results)} suites passed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1: its own 2 is the failing verdict's."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")


#: The least value of each numeric option, by command, checked once after
#: parsing; seeds are read mod 2**64 and take any integer.
BOUNDS = {"convert": {"--step": 0}, "simulate": {"--length": 1, "--reps": 1},
          "arcsine": {"--length": 1, "--reps": 100, "--grid": 2, "--tolerance": 0},
          **dict.fromkeys(("moments", "gaussian-check"), {"--horizon": 1, "--tolerance": 0}),
          **dict.fromkeys(("rules", "ergodic-check", "beta-array"), {"--horizon": 1})}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the options its handler reads.

    Built once; each command names its handler, which ``main`` looks up in
    this module when it runs, so a handler replaced later is the one called.
    """
    parser = _Parser(
        prog="gbrw",
        description="Bootstrap random walks: rules, moments, simulation, ergodicity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func.__name__)
        p.add_argument("--out", default=".", help="output directory for reports")
        return p

    def sgn0(p):
        p.add_argument("--sgn0", type=int, choices=(-1, 1), default=-1,
                       help="value assigned to sgn(0) in sign-based rules")

    def rule(p, required=True):
        p.add_argument("--rule", required=required,
                       help="builtin:NAME[:params] or a rule document path")
        sgn0(p)

    def seed(p):
        p.add_argument("--seed", type=int, default=20260809,
                       help="master seed of the Philox streams")

    p = command("rules", cmd_rules, "list builtin rules or describe one")
    rule(p, required=False)
    p.add_argument("--horizon", type=int, default=4)

    p = command("convert", cmd_convert, "dump truth table and beta family at a step")
    rule(p)
    p.add_argument("--step", type=int, required=True,
                   help="multiplier index n (the sign function of n increments)")

    for name, func, horizon, help in (
        ("moments", cmd_moments, 256, "condition (A)/(B) reports with CSV output"),
        ("gaussian-check", cmd_gaussian_check, DEFAULT_B_HORIZON,
         "combined condition (A)/(B) verdict and closed forms"),
    ):
        p = command(name, func, help)
        rule(p)
        p.add_argument("--horizon", type=int, default=horizon)
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="convergence tolerance of the verdict")

    p = command("simulate", cmd_simulate, "Monte Carlo covariation (or one path dump)")
    rule(p)
    seed(p)
    p.add_argument("--length", type=int, default=100000)
    p.add_argument("--reps", type=int, default=200)

    p = command("arcsine", cmd_arcsine, "KS test of the sign rule against its limit law")
    sgn0(p)
    seed(p)
    p.add_argument("--length", type=int, default=100000)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--grid", type=int, default=201,
                   help="points of the CDF grid in ks_report.csv")
    p.add_argument("--tolerance", type=float, default=None,
                   help="KS distance threshold (default: level-0.05 critical value)")

    p = command("ergodic-check", cmd_ergodic_check, "single-orbit criterion scan and orbits")
    rule(p)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--repair", action="store_true",
                   help="also report the minimally repaired rule")

    p = command("beta-array", cmd_beta_array, "sign-rule coefficient array CSV and pixmap")
    p.add_argument("--horizon", type=int, default=800)

    p = command("selftest", cmd_selftest, "run all oracle-equality suites")
    seed(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, least in BOUNDS.get(args.command, {}).items():
            if (value := getattr(args, flag[2:])) is not None and value < least:
                raise ValueError(f"{flag} must be >= {least}")
        return globals()[args.func](args)
    except RuleSpecError as exc:
        print(f"rule specification error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity limit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
