"""The benchmark's workloads: task lists generated from a workload seed.

A task is one user-facing command, run in-process as ``gbrw.cli.main(argv)``
with a fresh ``--out`` directory.  The one exception is the repaired rule
in ``mc-generic``: ``ergodic_repair`` has no command-line spelling, so that
task calls the library directly.  Every workload is a closed loop: one
caller runs the next task when the previous one returns.

The seed picks the Monte Carlo stream seeds, the rule document's explicit
steps and the order of the tasks in each pass.  It never changes how much
work a pass does, so passes of different seeds cost the same.  Why each
workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Task:
    name: str
    check: str                       # key into checks.CHECKS
    argv: list[str] | None = None    # command line without --out
    call: Callable | None = None     # library task: fn(modules) -> value
    params: dict = field(default_factory=dict)
    mc_steps: int = 0                # replicate-steps the task simulates
    theta_pairs: int = 0             # (k, l) pairs with k <= l it evaluates

    @property
    def key(self) -> str:
        """Identity of the task's exact outputs in expected.json."""
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    tail_pct: int                    # percentile reported as task_tail_s
    rule_specs: Callable[[str], list[str]]
    make_pass: Callable[[random.Random, str], list[Task]]
    warmup: Callable[[str], list[str]]
    documents: Callable[[random.Random], dict[str, str]] = lambda rng: {}


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _simulate(rule: str, length: int, reps: int, rng, exact_rule=True) -> Task:
    return Task(
        name=f"simulate {os.path.basename(rule)}",
        check="simulate",
        argv=["simulate", "--rule", rule, "--length", str(length),
              "--reps", str(reps), "--seed", _seed(rng)],
        params={"rule": rule.removeprefix("builtin:") if exact_rule else None,
                "length": length, "reps": reps},
        mc_steps=length * reps,
    )


# ---------------------------------------------------------------------------
# mc-kernel: Philox draws, walk sums and vectorized rule kernels

MC_LENGTH = 100_000
ARCSINE_REPS = 100
#: The KS test runs at level 1e-6 rather than the command's default 0.05,
#: so that a correct program fails the check about once in a million tasks.
ARCSINE_ALPHA = 1e-6
#: (rule, replicates): replicate counts give every task about the same
#: latency (0.2 s at the seed commit), so that the median task is not a
#: boundary between two groups of tasks.
KERNEL_TASKS = (("window-max:2", 50), ("brw", 200), ("max", 55), ("levy", 50),
                ("modified-levy", 75), ("modified-levy-max", 70),
                ("symmetric:-1:0:1", 50))


def _ks_threshold(alpha: float, reps: int) -> str:
    return repr(math.sqrt(-0.5 * math.log(alpha / 2)) / math.sqrt(reps))


def _mc_kernel_pass(rng, rule_dir):
    tasks = [_simulate(f"builtin:{r}", MC_LENGTH, reps, rng) for r, reps in KERNEL_TASKS]
    tasks.append(Task(
        name="arcsine",
        check="arcsine",
        argv=["arcsine", "--length", str(MC_LENGTH), "--reps", str(ARCSINE_REPS),
              "--seed", _seed(rng),
              "--tolerance", _ks_threshold(ARCSINE_ALPHA, ARCSINE_REPS)],
        mc_steps=MC_LENGTH * ARCSINE_REPS,
    ))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# mc-generic: rules whose apply loops per step in Python or re-reads the prefix

GENERIC_DOC = "doc-brw.rule"
REPAIR_LENGTH = 20       # repaired rules build 2^n tables; the cap is n = 24
#: Lengths and replicate counts give every task about 0.11 s at the seed
#: commit, so that the median task is not a boundary between two groups.
REPAIR_REPS = 550


def _generic_documents(rng):
    # explicit beta families at steps 2..5, the running product elsewhere
    lines = [f"psi0: {rng.choice(['+1', '-1'])}", "generator: beta {"]
    for step in range(2, 6):
        sets = []
        for _ in range(rng.randint(1, 3)):
            members = [j for j in range(1, step) if rng.random() < 0.5]
            sets.append("{" + ",".join(map(str, members)) + "}")
        lines.append(f"  {step}: [{', '.join(sorted(set(sets)))}]")
    lines += ["  fallback: brw", "}", ""]
    return {GENERIC_DOC: "\n".join(lines)}


def _repaired_call(length, reps, seed):
    def call(g):
        rule = g.ergodic.ergodic_repair(g.rulespec.load_rule("builtin:levy"))
        return g.simulate.mc_covariation(rule, length, reps, g.simulate.SeedSpec(seed))
    return call


def _mc_generic_pass(rng, rule_dir):
    doc = os.path.join(rule_dir, GENERIC_DOC)
    tasks = [
        _simulate("builtin:sign-flips:0.25", 115_000, 2, rng),
        _simulate("builtin:extended-brw:prefix:0.5", 1_000, 2, rng),
        _simulate("builtin:extended-brw:window:3", 10_000, 2, rng),
        _simulate(doc, 1_000, 2, rng, exact_rule=False),
    ]
    seed = int(_seed(rng))
    tasks.append(Task(
        name="mc_covariation repair(levy)",
        check="repaired",
        call=_repaired_call(REPAIR_LENGTH, REPAIR_REPS, seed),
        params={"length": REPAIR_LENGTH, "reps": REPAIR_REPS},
        mc_steps=REPAIR_LENGTH * REPAIR_REPS,
    ))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# moments-scan: the exact moment engine and the second-moment pair scan

#: (rule, horizon) of the gaussian-check tasks.  Horizons keep every task
#: between about 0.1 s and 1 s.  max re-reads its whole prefix per pair, so
#: it gets a smaller horizon, chosen to cost about what window-max does at
#: 256.  The window rules also run at 128, so that the median falls between
#: two tasks of similar latency and the tail percentile inside the three
#: slowest, never on a gap between two groups.
SCAN_TASKS = (("window-max:2", 256), ("window-max:3", 256), ("max", 136),
              ("brw", 256), ("sign-flips:0.25", 256),
              ("extended-brw:window:3", 256), ("window-max:2", 128),
              ("window-max:3", 128))
#: The sign rule stops at step 7 with a capacity error at the seed commit.
LEVY_HORIZON = 16
MOMENTS_TASK = ("extended-brw:window:3", 128)


def _moments_task(command, rule, horizon, check="moments"):
    return Task(
        name=f"{command} {rule} h={horizon}",
        check=check,
        argv=[command, "--rule", f"builtin:{rule}", "--horizon", str(horizon)],
        params={"command": command, "rule": rule, "horizon": horizon},
        theta_pairs=horizon * (horizon + 1) // 2,
    )


def _moments_scan_pass(rng, rule_dir):
    tasks = [_moments_task("gaussian-check", r, h) for r, h in SCAN_TASKS]
    tasks.append(_moments_task("gaussian-check", "levy", LEVY_HORIZON,
                               check="capacity-or-exact"))
    tasks.append(_moments_task("moments", *MOMENTS_TASK))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# ergodic-report: 2^n tables, tau_n, the coefficient recurrence, big writers

ERGODIC_HORIZON = 22     # tables of 2^22 entries; the enumeration cap is 24
#: (rule, step) of the convert tasks.  modified-levy at the same step costs
#: about what levy does, so the tail percentile falls inside a pair of
#: tasks of equal cost rather than on one task's latency.
CONVERT_TASKS = (("levy", 16), ("modified-levy", 16))
BETA_HORIZON = 1000


def _ergodic_pass(rng, rule_dir):
    tasks = [
        Task(name=f"ergodic-check {r}", check="ergodic",
             argv=["ergodic-check", "--rule", f"builtin:{r}",
                   "--horizon", str(ERGODIC_HORIZON)],
             params={"horizon": ERGODIC_HORIZON, "ergodic": True})
        for r in ("modified-levy", "modified-levy-max", "max")
    ]
    tasks.append(Task(
        name="ergodic-check levy --repair", check="ergodic",
        argv=["ergodic-check", "--rule", "builtin:levy",
              "--horizon", str(ERGODIC_HORIZON), "--repair"],
        params={"horizon": ERGODIC_HORIZON, "ergodic": False, "fails_at": 3,
                "repair": True},
    ))
    tasks += [
        Task(name=f"convert {r} step {s}", check="exact-files",
             argv=["convert", "--rule", f"builtin:{r}", "--step", str(s)],
             params={"command": "convert"})
        for r, s in CONVERT_TASKS
    ]
    tasks.append(Task(name=f"beta-array {BETA_HORIZON}", check="exact-files",
                      argv=["beta-array", "--horizon", str(BETA_HORIZON)]))
    rng.shuffle(tasks)
    return tasks


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mc-kernel",
            tail_pct=90,
            rule_specs=lambda d: [f"builtin:{r}" for r, _ in KERNEL_TASKS],
            make_pass=_mc_kernel_pass,
            warmup=lambda d: ["simulate", "--rule", "builtin:window-max:2",
                              "--length", "1000", "--reps", "2"],
        ),
        Workload(
            name="mc-generic",
            tail_pct=95,
            rule_specs=lambda d: ["builtin:sign-flips:0.25",
                                  "builtin:extended-brw:prefix:0.5",
                                  "builtin:extended-brw:window:3",
                                  os.path.join(d, GENERIC_DOC), "builtin:levy"],
            make_pass=_mc_generic_pass,
            warmup=lambda d: ["simulate", "--rule", os.path.join(d, GENERIC_DOC),
                              "--length", "100", "--reps", "2"],
            documents=_generic_documents,
        ),
        Workload(
            name="moments-scan",
            tail_pct=80,
            rule_specs=lambda d: [f"builtin:{r}" for r, _ in SCAN_TASKS] + ["builtin:levy"],
            make_pass=_moments_scan_pass,
            warmup=lambda d: ["gaussian-check", "--rule", "builtin:window-max:2",
                              "--horizon", "16"],
        ),
        Workload(
            name="ergodic-report",
            tail_pct=75,
            rule_specs=lambda d: ["builtin:modified-levy", "builtin:modified-levy-max",
                                  "builtin:max", "builtin:levy"],
            make_pass=_ergodic_pass,
            warmup=lambda d: ["ergodic-check", "--rule", "builtin:max",
                              "--horizon", "8"],
        ),
    )
}
