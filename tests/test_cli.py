import argparse
import csv
import hashlib
import importlib.util
import io
import os
import random
import sys
from pathlib import Path

import pytest

from gbrw import __version__
from gbrw.algebra import BetaFamily
from gbrw.cli import build_parser, main
from gbrw.moments import analyze_set_sequence, condition_B_partial, intersection_diagnostic
from gbrw.reports import format_value
from gbrw.rules import ProductRule
from gbrw.rulespec import BUILTINS, make_builtin


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_rules_listing(capsys):
    code, out, _ = run(["rules"], capsys)
    assert code == 0
    assert "window-max" in out
    assert "modified-levy" in out


def test_rules_listing_names_every_builtin(capsys):
    _, out, _ = run(["rules"], capsys)
    listed = [line.split()[0].split(":")[0] for line in out.splitlines()[1:]]
    assert listed == list(BUILTINS) and "product" in listed
    assert "explicit steps" not in out  # sign-flips takes a density only
    code, _, err = run(["simulate", "--rule", "builtin:sign-flips:3,5"], capsys)
    assert code == 1 and "Invalid literal for Fraction" in err


def test_rules_describe(capsys, tmp_path):
    code, out, _ = run(
        ["rules", "--rule", "builtin:levy", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "multiplier 3" in out


def test_convert_levy_step3(capsys, tmp_path):
    code, out, _ = run(
        ["convert", "--rule", "builtin:levy", "--step", "3", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "{2,3}" in out and "round-trip exact: True" in out
    rows = read_csv(tmp_path / "beta_members.csv")
    assert rows[0] == ["multiplier", "member"]
    assert [r[1] for r in rows[1:]] == ["{1,2}", "{1,3}", "{2,3}"]
    table_rows = read_csv(tmp_path / "truth_table.csv")
    assert len(table_rows) == 1 + 8


def test_convert_checks_the_family_it_writes(capsys, tmp_path, monkeypatch):
    # a family that disagrees with the table: brw's without its first member
    step_family = ProductRule.step_family
    monkeypatch.setattr(ProductRule, "step_family",
                        lambda self, step: BetaFamily(step, step_family(self, step).masks[1:]))
    code, out, _ = run(
        ["convert", "--rule", "builtin:brw", "--step", "3", "--out", str(tmp_path)], capsys
    )
    assert code == 2 and "round-trip exact: False" in out
    assert [r[1] for r in read_csv(tmp_path / "beta_members.csv")[1:]] == ["{2}", "{3}"]


def test_convert_prints_long_member_lists_as_a_count(capsys, tmp_path):
    for step, listed in ((7, True), (8, False)):
        out_dir = tmp_path / str(step)
        code, out, _ = run(
            ["convert", "--rule", "builtin:levy", "--step", str(step),
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        members = [r[1] for r in read_csv(out_dir / "beta_members.csv")[1:]]
        line = next(l for l in out.splitlines() if l.startswith("beta members:"))
        if listed:
            assert len(members) <= 64
            assert line == "beta members: " + ", ".join(members)
        else:
            assert len(members) == 71
            assert line == "beta members: 71 (see beta_members.csv)"


def test_gaussian_check_window(capsys, tmp_path):
    code, out, _ = run(
        [
            "gaussian-check",
            "--rule", "builtin:window-max:3",
            "--horizon", "256",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "stabilized at 3/2^2" in out
    assert "verdict: converged" in out
    assert os.path.exists(tmp_path / "rho_seq.csv")


def test_moments_emits_csvs(capsys, tmp_path):
    code, out, _ = run(
        [
            "moments",
            "--rule", "builtin:extended-brw:prefix:0.5",
            "--horizon", "64",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    # short horizon: double cesaro tail has not settled below the tolerance
    assert code in (0, 2)
    rows = read_csv(tmp_path / "rho_seq.csv")
    assert rows[0] == ["k", "rho_exact", "rho", "cesaro"]
    assert rows[1][1] == "1/2^0"  # step 1 empty product
    assert rows[2][1] == "0/2^0"
    theta = read_csv(tmp_path / "theta_grid.csv")
    assert theta[0] == ["k", "l", "theta_exact", "theta"]
    assert len(theta) == 1 + 64 * 65 // 2
    assert os.path.exists(tmp_path / "set_diag.csv")


def csv_writer_bytes(header, rows):
    """What csv.writer writes for format_value of every cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format_value(v) for v in row] for row in rows)
    return buffer.getvalue().encode()


@pytest.mark.parametrize("spec, horizon", [
    ("window-max:3", 64), ("max", 20), ("levy", 40), ("sign-flips:0.25", 50),
    ("extended-brw:prefix:0.5", 33),
])
def test_rho_seq_csv_writes_the_dyadic_and_fraction_cells(capsys, tmp_path, spec, horizon):
    run(["gaussian-check", "--rule", f"builtin:{spec}", "--horizon", str(horizon),
         "--out", str(tmp_path)], capsys)
    report = condition_B_partial(make_builtin(spec), horizon)
    rows = [(k, r, float(r), c)
            for k, (r, c) in enumerate(zip(report.rho, report.cesaro), start=1)]
    assert (tmp_path / "rho_seq.csv").read_bytes() == csv_writer_bytes(
        ("k", "rho_exact", "rho", "cesaro"), rows)


@pytest.mark.parametrize("spec", ["extended-brw:window:3", "extended-brw:prefix:0.5"])
def test_set_diag_csv_writes_the_fraction_cells(capsys, tmp_path, spec):
    horizon = 40
    run(["moments", "--rule", f"builtin:{spec}", "--horizon", str(horizon),
         "--out", str(tmp_path)], capsys)
    seq = make_builtin(spec).seq
    report = analyze_set_sequence(seq, horizon)
    try:
        mean_intersection = intersection_diagnostic(seq, horizon).mean_intersection
    except ValueError:  # the prefix's cardinality does not settle
        mean_intersection = [""] * horizon
    rows = zip(range(1, horizon + 1), report.n_ratio, report.match_fraction, mean_intersection)
    assert (tmp_path / "set_diag.csv").read_bytes() == csv_writer_bytes(
        ("n", "first_match_ratio", "match_fraction", "mean_intersection"), rows)


def test_simulate_single_path(capsys, tmp_path):
    code, out, _ = run(
        [
            "simulate",
            "--rule", "builtin:brw",
            "--length", "50",
            "--reps", "1",
            "--seed", "11",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    rows = read_csv(tmp_path / "paths.csv")
    assert rows[0] == ["k", "x", "y"]
    assert len(rows) == 52
    assert rows[1] == ["0", "0", "0"]


def test_simulate_replicates(capsys, tmp_path):
    code, out, _ = run(
        [
            "simulate",
            "--rule", "builtin:window-max:2",
            "--length", "2000",
            "--reps", "40",
            "--seed", "5",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    rows = read_csv(tmp_path / "cov_summary.csv")
    assert len(rows) == 41
    assert "mean" in out


def test_arcsine_command(capsys, tmp_path):
    code, out, _ = run(
        [
            "arcsine",
            "--length", "2000",
            "--reps", "200",
            "--seed", "7",
            "--tolerance", "0.2",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "KS distance" in out
    rows = read_csv(tmp_path / "ks_report.csv")
    assert rows[0] == ["x", "empirical_cdf", "reference_cdf"]
    assert len(rows) == 202


def test_ergodic_check_levy_fails(capsys, tmp_path):
    code, out, _ = run(
        [
            "ergodic-check",
            "--rule", "builtin:levy",
            "--horizon", "8",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "first failure at step 3" in out
    assert os.path.exists(tmp_path / "orbits.csv")


def test_ergodic_check_modified_levy_passes(capsys, tmp_path):
    code, out, _ = run(
        [
            "ergodic-check",
            "--rule", "builtin:modified-levy",
            "--horizon", "12",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "closed form" in out


@pytest.mark.parametrize("rule, code, verdict", [
    ("levy", 2, "first failure at step 3"),
    ("symmetric:-1:0.5:1", 2, "first failure at step 3"),
    ("modified-levy", 0, "holds for n <= 10000 (closed form for all steps)"),
    ("modified-levy-max", 0, "holds for n <= 10000 (closed form for all steps)"),
])
def test_ergodic_check_runs_past_the_table_cap(capsys, tmp_path, rule, code, verdict):
    # these rules state the criterion's parities in closed form, so the scan
    # builds no 2^n table and the enumeration cap does not bound the horizon
    got, out, _ = run(["ergodic-check", "--rule", f"builtin:{rule}",
                       "--horizon", "10000", "--out", str(tmp_path)], capsys)
    assert got == code and verdict in out


def test_ergodic_check_reads_a_document_fallback_past_the_table_cap(capsys, tmp_path):
    # the document lists step 3 only; every other step reads the parity of
    # its fallback, stated in closed form, so no table past step 3 is built
    doc = tmp_path / "doc.rule"
    doc.write_text("psi0: -1\ngenerator: beta {\n  3: [{1,2}]\n  fallback: modified-levy\n}\n")
    code, out, _ = run(["ergodic-check", "--rule", str(doc), "--horizon", "30",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "single-orbit criterion holds for n <= 30" in out


@pytest.mark.parametrize("rule", ["levy", "symmetric:-1:0.5:1", "modified-levy"])
def test_gaussian_check_scans_the_sign_rules_exactly(capsys, tmp_path, rule):
    # the walk value's state model runs past the families' step-7 cap; the
    # double Cesaro means stay near 1/2, away from rho^2 near 0
    code, out, _ = run(["gaussian-check", "--rule", f"builtin:{rule}", "--horizon", "128",
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "verdict: diverged" in out
    rows = read_csv(tmp_path / "rho_seq.csv")
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 129))


def test_ergodic_check_repair_flag(capsys, tmp_path):
    code, out, _ = run(
        [
            "ergodic-check",
            "--rule", "builtin:levy",
            "--horizon", "8",
            "--repair",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert "repaired rule repair(levy): ergodic up to 8 = True" in out


def test_beta_array_outputs(capsys, tmp_path):
    code, out, _ = run(
        ["beta-array", "--horizon", "24", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    rows = read_csv(tmp_path / "beta_array.csv")
    assert rows[0] == ["n", "k", "beta"]
    assert len(rows) == 1 + sum(n + 1 for n in range(1, 25))
    ppm = (tmp_path / "beta_array.ppm").read_bytes()
    assert ppm.startswith(b"P6\n25 24\n255\n")
    assert len(ppm) == len(b"P6\n25 24\n255\n") + 25 * 24 * 3


def test_rule_document_via_cli(capsys, tmp_path):
    doc = tmp_path / "rule.txt"
    doc.write_text("psi0: -1\ngenerator: builtin max\n")
    code, out, _ = run(
        ["convert", "--rule", str(doc), "--step", "4", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "{1,2,3,4}" in out


def test_bad_rule_spec_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["convert", "--rule", "builtin:bogus", "--step", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "rule specification error" in err


def test_builtin_parameter_on_a_parameterless_rule_is_usage_error(capsys):
    code, _, err = run(["rules", "--rule", "builtin:max:3"], capsys)
    assert code == 1
    assert "max takes no parameter" in err


def test_capacity_error_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["convert", "--rule", "builtin:levy", "--step", "30", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "capacity" in err


def test_convert_rejects_a_step_below_one(capsys, tmp_path):
    code, _, err = run(
        ["convert", "--rule", "builtin:levy", "--step", "-1", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert err == "error: --step must be >= 0\n"
    assert not os.path.exists(tmp_path / "beta_members.csv")
    # multiplier 0, the constant psi0, is the smallest step the flag takes
    code, out, _ = run(
        ["convert", "--rule", "builtin:levy", "--step", "0", "--out", str(tmp_path)], capsys)
    assert code == 0 and "multiplier 0" in out


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_simulate_rejects_reps_below_one(capsys, tmp_path, reps):
    code, out, err = run(["simulate", "--rule", "builtin:levy", "--length", "50",
                          "--reps", reps, "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (1, "", "error: --reps must be >= 1\n")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("grid", ["1", "0", "-1"])
def test_arcsine_rejects_a_grid_below_two(capsys, tmp_path, grid):
    args = ["arcsine", "--length", "50", "--reps", "100", "--tolerance", "1",
            "--out", str(tmp_path), "--grid"]
    code, out, err = run([*args, grid], capsys)
    assert (code, out, err) == (1, "", "error: --grid must be >= 2\n")
    assert not os.listdir(tmp_path)
    # the smallest grid the flag takes: the two ends of [-1, 1]
    assert run([*args, "2"], capsys)[0] == 0
    assert [row[0] for row in read_csv(tmp_path / "ks_report.csv")] == ["x", "-1", "1"]


@pytest.mark.parametrize("rule, rho", [("identity", "1"), ("negation", "-1")])
def test_gaussian_check_of_the_constant_rules(capsys, tmp_path, rule, rho):
    # the closed form is read by name, so these sign flips of density 0 and
    # 1 print it as the integer dyadic
    code, out, _ = run(["gaussian-check", "--rule", f"builtin:{rule}", "--horizon", "64",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out == (f"condition (A) cesaro -> {rho}, per-step value stabilized at {rho}/2^0\n"
                   "condition (B) double cesaro -> 1 (target rho^2 = 1)\n"
                   f"closed-form correlation for {rule}: {rho}/2^0 = {rho}\n"
                   "verdict: converged (tolerance 0.01)\n")


def test_selftest_passes(capsys, tmp_path):
    code, out, _ = run(["selftest", "--seed", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "all 7 suites passed" in out


# SHA-256 of the Monte Carlo reports at n = 1e5, seed 11, recorded before
# Monte Carlo moved to packed words: the draws, blocks and kernels may
# change, the replicates' covariations may not
SIMULATE_DIGESTS = {
    "window-max:2": "8c285c9680a9fc37ae4b1df1030f5822a01ee42924b3dd38314f25242ea39197",
    "brw": "f8b7bc799dacf6ecc071167e0ad1e7fd04489271aa6d53fb5b82913793f0fd25",
    "max": "19c5edc184c6ef308d1e00909e2e06f99bc7b6d6cf9d6f3616ae4946fed54ef7",
    "levy": "0324f3a757f489623816d4260638e1cba958618d2d80150ca5adfd869d02d469",
    "modified-levy": "3c67c01b398d4dd57f9bc2adf45a65914bc61e60e071c544ced6c9afc7c87e1e",
    "modified-levy-max": "5d2df5cd65c5d7f99bb888e00df1ba3cbdc3cadf3396b589913d161ab94a0004",
    "symmetric:-1:0:1": "f7c1d2f628d4025148736ca4720647ac5e8f6e0048d78c8f18393b1730278907",
}
ARCSINE_DIGEST = "0df7d8851fdc1f09c79614099a64bc726741dee49f12e80ef27283b8164d5a54"


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("rule", SIMULATE_DIGESTS)
def test_simulate_reports_are_pinned(rule, capsys, tmp_path):
    code, _, _ = run(["simulate", "--rule", f"builtin:{rule}", "--length", "100000",
                      "--reps", "7", "--seed", "11", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert digest(tmp_path / "cov_summary.csv") == SIMULATE_DIGESTS[rule]


def test_arcsine_report_is_pinned(capsys, tmp_path):
    code, _, _ = run(["arcsine", "--length", "100000", "--reps", "100", "--seed", "11",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    assert digest(tmp_path / "ks_report.csv") == ARCSINE_DIGEST


# every option of every command, each read by the command's handler
OPTIONS = {
    "rules": {"--out", "--rule", "--sgn0", "--horizon"},
    "convert": {"--out", "--rule", "--sgn0", "--step"},
    "moments": {"--out", "--rule", "--sgn0", "--horizon", "--tolerance"},
    "gaussian-check": {"--out", "--rule", "--sgn0", "--horizon", "--tolerance"},
    "simulate": {"--out", "--rule", "--sgn0", "--seed", "--length", "--reps"},
    "arcsine": {"--out", "--sgn0", "--seed", "--length", "--reps", "--grid",
                "--tolerance"},
    "ergodic-check": {"--out", "--rule", "--sgn0", "--horizon", "--repair"},
    "beta-array": {"--out", "--horizon"},
    "selftest": {"--out", "--seed"},
}
# the arguments each command needs to get past its required options
REQUIRED = {"convert": ["--rule", "builtin:levy", "--step", "2"],
            **{c: ["--rule", "builtin:levy"]
               for c in ("moments", "gaussian-check", "simulate", "ergodic-check")}}
REMOVED = [("rules", "--seed"), ("rules", "--tolerance"), ("convert", "--seed"),
           ("convert", "--tolerance"), ("moments", "--seed"), ("gaussian-check", "--seed"),
           ("simulate", "--tolerance"), ("simulate", "--grid"),
           ("ergodic-check", "--seed"), ("ergodic-check", "--tolerance"),
           ("beta-array", "--seed"), ("beta-array", "--tolerance"),
           ("beta-array", "--sgn0"), ("selftest", "--tolerance"), ("selftest", "--sgn0")]


def subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_command_declares_only_the_options_it_reads():
    declared = {name: {opt for action in p._actions for opt in action.option_strings}
                - {"-h", "--help"} for name, p in subparsers().items()}
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 40


@pytest.mark.parametrize("command, option", REMOVED, ids="{0[0]} {0[1]}".format)
def test_removed_options_are_usage_errors(command, option, capsys, tmp_path):
    assert option not in OPTIONS[command]
    with pytest.raises(SystemExit) as exit_:
        main([command, *REQUIRED.get(command, []), option, "1", "--out", str(tmp_path)])
    assert exit_.value.code == 1
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [["simulate", "--rule", "builtin:brw", "--reps", "x"],
                                  ["beta-array", "--horizon"], ["bogus"], []])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["arcsine", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gbrw") or out == f"{__version__}\n"


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # one pass of every workload of bench/workloads.py, and its warm-up task
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    parser = build_parser()
    argvs = []
    for workload in workloads.WORKLOADS.values():
        tasks = workload.make_pass(random.Random(1), str(tmp_path))
        argvs += [task.argv for task in tasks if task.argv is not None]
        argvs.append(workload.warmup(str(tmp_path)))
    assert len(argvs) == 33  # 29 command-line tasks and four warm-ups
    for argv in argvs:
        args = parser.parse_args(argv + ["--out", str(tmp_path)])
        assert args.command == argv[0]


def test_parser_is_built_once_and_finds_handlers_when_main_runs(monkeypatch, capsys):
    assert build_parser() is build_parser()
    assert run(["rules"], capsys)[0] == 0
    calls = []
    monkeypatch.setattr("gbrw.cli.cmd_rules", lambda args: calls.append(args) or 7)
    assert run(["rules", "--horizon", "3"], capsys)[0] == 7
    assert [args.horizon for args in calls] == [3]
