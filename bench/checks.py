"""Output checks for benchmark tasks, independent of the code being timed.

Exact outputs are compared with closed forms computed here and with
SHA-256 digests recorded at the seed commit (``expected.json``).  Monte
Carlo outputs get statistical and structural checks only, because their
draws may legitimately change.  Each check returns a list of problems; an
empty list means the task passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
from fractions import Fraction

#: A Monte Carlo mean may sit this many standard errors from its exact
#: expectation before the check fails.
MEAN_TOLERANCE_SE = 6.0
#: Smallest replicate count for which the mean is checked against the
#: closed form.  With the spread taken about the exact mean the statistic
#: cannot exceed sqrt(reps), so it needs reps well above 6^2 = 36.
MEAN_CHECK_MIN_REPS = 40


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


# ---------------------------------------------------------------------------
# Closed forms of the per-step correlation rho_k = E[eta_k xi_k]


def _window_rho(width: int | None, k: int) -> Fraction:
    # the multiplier is the max over a window of min(width, k-1) increments;
    # the empty window has max -1
    w = k - 1 if width is None else min(width, k - 1)
    return 1 - Fraction(2, 1 << w)


def _levy_rho(k: int) -> Fraction:
    # E[sgn(X_m)] with sgn(0) = -1 is -P(X_m = 0) = -C(m, m/2) / 2^m
    m = k - 1
    if m % 2:
        return Fraction(0)
    return -Fraction(math.comb(m, m // 2), 1 << m)


def _flip_rho(density: Fraction, k: int) -> Fraction:
    flips = math.floor(k * density) > math.floor((k - 1) * density)
    return Fraction(-1 if flips else 1)


def rho_closed_form(rule: str):
    """k -> exact rho_k for rules with a closed form, else None."""
    name, _, param = rule.partition(":")
    if name == "window-max":
        return lambda k: _window_rho(int(param), k)
    if name == "max":
        return lambda k: _window_rho(None, k)
    if name == "levy":
        return _levy_rho
    if name == "sign-flips":
        density = Fraction(param)
        return lambda k: _flip_rho(density, k)
    if name in ("brw", "extended-brw"):
        # only step 1 has an empty product (psi0 = +1); every later multiplier
        # is a product of distinct increments with mean zero
        return lambda k: Fraction(1 if k == 1 else 0)
    return None


_MEAN_CACHE: dict[tuple[str, int], float] = {}


def mean_final_covariation(rule: str, n: int) -> float | None:
    """Exact E[(1/n) sum_k xi_k eta_k] = (1/n) sum_k rho_k, as a float."""
    name, _, param = rule.partition(":")
    if name == "sign-flips":
        # deterministic: floor(n p) of the first n steps flip
        return 1 - 2 * math.floor(n * Fraction(param)) / n
    key = (rule, n)
    if key not in _MEAN_CACHE:
        if name == "levy":
            # C(m, m/2)/2^m by its ratio recurrence, avoiding huge integers
            total, c = 0.0, 1.0
            for m in range(0, n, 2):
                total -= c
                c *= (m + 1) / (m + 2)
        elif name in ("window-max", "max", "brw", "extended-brw"):
            # rho_k is constant in floating point from step 65 on
            rho = rho_closed_form(rule)
            head = min(n, 64)
            total = math.fsum(float(rho(k)) for k in range(1, head + 1))
            total += (n - head) * float(rho(65))
        else:
            return None
        _MEAN_CACHE[key] = total / n
    return _MEAN_CACHE[key]


# ---------------------------------------------------------------------------
# Checks per task kind


def _expect_exit(task, out, expected) -> list[str]:
    want = expected.get(task.key, {}).get("exit")
    if want is None:
        return [f"no recorded exit code for {task.key!r}"]
    if out.rc != want:
        return [f"exit code {out.rc}, expected {want}: {out.stderr.strip()[:200]}"]
    return []


def _expect_digests(task, out, expected) -> list[str]:
    problems = []
    digests = expected.get(task.key, {}).get("sha256", {})
    if not digests:
        problems.append(f"no recorded digests for {task.key!r}")
    for name, want in digests.items():
        path = os.path.join(out.outdir, name)
        if not os.path.exists(path):
            problems.append(f"missing output {name}")
        elif sha256(path) != want:
            problems.append(f"{name} differs from the seed commit's output")
    return problems


def _expect_rho(rule: str, path: str, horizon: int) -> list[str]:
    rho = rho_closed_form(rule)
    rows = _read_rows(path)
    if len(rows) != horizon:
        return [f"rho_seq.csv has {len(rows)} rows, expected {horizon}"]
    for row in rows:
        k = int(row[0])
        num, exp = row[1].split("/2^")
        value = Fraction(int(num), 1 << int(exp))
        if value != rho(k):
            return [f"rho_{k} = {value}, closed form {rho(k)}"]
    return []


def _finals_problems(finals: list[float], n: int, reps: int,
                     rule: str | None) -> list[str]:
    if len(finals) != reps:
        return [f"{len(finals)} replicates, expected {reps}"]
    for v in finals:
        total = round(v * n)
        if abs(v) > 1 or abs(total - v * n) > 1e-6 or (total - n) % 2:
            return [f"final covariation {v!r} is off the lattice of n={n} steps"]
    exact = mean_final_covariation(rule, n) if rule else None
    if exact is not None and rule.startswith("sign-flips"):
        if any(abs(v - exact) > 1e-12 for v in finals):
            return [f"final covariation differs from the exact {exact!r}"]
    elif exact is not None and reps >= MEAN_CHECK_MIN_REPS:
        # spread measured about the exact mean, not the sample mean: a sample
        # of a skewed law (max: a geometric run) can have a tiny sample
        # variance exactly when its mean is off
        mean = sum(finals) / reps
        stderr = math.sqrt(sum((v - exact) ** 2 for v in finals) / reps / reps)
        if abs(mean - exact) > MEAN_TOLERANCE_SE * stderr + 1e-12:
            return [f"mean {mean:.6g} is more than {MEAN_TOLERANCE_SE:g} stderr "
                    f"({stderr:.3g}) from the exact {exact:.6g}"]
    return []


def check_simulate(task, out, expected) -> list[str]:
    if out.rc != 0:
        return [f"exit code {out.rc}: {out.stderr.strip()[:200]}"]
    finals = [float(r[1]) for r in _read_rows(os.path.join(out.outdir, "cov_summary.csv"))]
    p = task.params
    return _finals_problems(finals, p["length"], p["reps"], p["rule"])


def check_repaired(task, out, expected) -> list[str]:
    summary = out.value
    p = task.params
    return _finals_problems([float(v) for v in summary.finals], p["length"],
                            p["reps"], None)


_KS_RE = re.compile(r"KS distance ([0-9.]+) over (\d+) replicates \(threshold ([0-9.]+)")


def check_arcsine(task, out, expected) -> list[str]:
    if out.rc != 0:
        return [f"KS test did not pass (exit {out.rc}): {out.stdout.strip()[-200:]}"]
    m = _KS_RE.search(out.stdout)
    if not m or not float(m.group(1)) < float(m.group(3)):
        return ["KS report line missing or above threshold"]
    rows = _read_rows(os.path.join(out.outdir, "ks_report.csv"))
    last = -1.0
    for x, emp, ref in rows:
        x, emp, ref = float(x), float(emp), float(ref)
        limit = (2 / math.pi) * math.asin(math.sqrt((min(max(x, -1.0), 1.0) + 1) / 2))
        if emp < last or not 0 <= emp <= 1 or abs(ref - limit) > 1e-12:
            return [f"ks_report.csv row at x={x} is inconsistent"]
        last = emp
    if last != 1.0:
        return ["empirical CDF does not reach 1"]
    return []


def check_moments(task, out, expected) -> list[str]:
    problems = _expect_exit(task, out, expected) + _expect_digests(task, out, expected)
    if problems:
        return problems
    p = task.params
    problems = _expect_rho(p["rule"], os.path.join(out.outdir, "rho_seq.csv"), p["horizon"])
    grid = os.path.join(out.outdir, "theta_grid.csv")
    if p["command"] == "moments":
        h = p["horizon"]
        if len(_read_rows(grid)) != h * (h + 1) // 2:
            problems.append("theta_grid.csv does not hold every pair k <= l")
    return problems


def check_capacity_or_exact(task, out, expected) -> list[str]:
    """The sign rule: the seed commit stops at step 7 with a capacity error;
    a commit that computes it must produce the exact closed form."""
    if out.rc == 1:
        if "capacity limit" in out.stderr and "step 7" in out.stderr:
            out.capacity_limited = True
            return []
        return [f"exit 1 without the step-7 capacity error: {out.stderr.strip()[:200]}"]
    if out.rc not in (0, 2):
        return [f"exit code {out.rc}"]
    p = task.params
    return _expect_rho(p["rule"], os.path.join(out.outdir, "rho_seq.csv"), p["horizon"])


def check_ergodic(task, out, expected) -> list[str]:
    problems = _expect_exit(task, out, expected)
    p = task.params
    if p["ergodic"]:
        want = f"single-orbit criterion holds for n <= {p['horizon']}"
    else:
        want = f"NOT ergodic, first failure at step {p['fails_at']}"
    if want not in out.stdout:
        problems.append(f"verdict line {want!r} missing")
    if p.get("repair") and "ergodic up to 12 = True" not in out.stdout:
        problems.append("repaired rule is not ergodic up to 12")
    lengths = [int(r[1]) for r in _read_rows(os.path.join(out.outdir, "orbits.csv"))]
    size = 1 << min(p["horizon"], 10)
    if sum(lengths) != size or (p["ergodic"] and lengths != [size]):
        problems.append(f"orbit lengths {lengths[:4]}... do not match the verdict")
    return problems


def check_exact_files(task, out, expected) -> list[str]:
    problems = _expect_exit(task, out, expected) + _expect_digests(task, out, expected)
    if task.params.get("command") == "convert" and "round-trip exact: True" not in out.stdout:
        problems.append("truth table / beta family round trip not exact")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "repaired": check_repaired,
    "arcsine": check_arcsine,
    "moments": check_moments,
    "capacity-or-exact": check_capacity_or_exact,
    "ergodic": check_ergodic,
    "exact-files": check_exact_files,
}
