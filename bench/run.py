"""Run one gbrw benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc-kernel --seed 1 --seconds 25 --trace 0

The run sets up (imports gbrw, writes rule documents, loads every rule of
the workload and runs one warm-up task) several times and reports the
median as ``setup_s``.  It then runs passes over the workload's task list,
generated from ``--seed``, until the next pass would end after
``--seconds``, and checks every task's output.  With ``--trace 1`` the
passes alternate between untraced and traced, and the result holds the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units come from ``BENCHMARK.json``.
"""

import os

# one process and one thread: pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 11


@dataclass
class Outcome:
    outdir: str
    rc: int | None = None
    value: object = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    latency: float = 0.0
    problems: list = field(default_factory=list)
    capacity_limited: bool = False


@dataclass
class Pass:
    traced: bool
    results: list                    # (task, outcome) in run order
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(out.latency for _, out in self.results)

    def rate(self, attr: str) -> float:
        done = sum(getattr(t, attr) for t, out in self.results
                   if not out.problems and not out.capacity_limited)
        return done / self.wall


# ---------------------------------------------------------------------------
# Running tasks


def load_gbrw():
    """Import the package afresh from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "gbrw" or m.startswith("gbrw.")]:
        del sys.modules[name]
    importlib.import_module("gbrw.cli")
    return types.SimpleNamespace(**{
        name: sys.modules[f"gbrw.{name}"]
        for name in ("cli", "simulate", "ergodic", "rulespec", "algebra")
    })


def run_task(g, task, outdir, tracer=None) -> Outcome:
    out = Outcome(outdir=outdir)
    if task.call is not None:
        fn, fn_args = task.call, (g,)
    else:
        fn, fn_args = g.cli.main, (task.argv + ["--out", outdir],)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                value = fn(*fn_args)
            else:
                value = tracer.span("task", fn, *fn_args)
    except (Exception, SystemExit) as exc:  # a failed task, not a failed run
        out.error = f"{type(exc).__name__}: {exc}"
        value = None
    out.latency = time.perf_counter() - start
    out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    if task.call is not None:
        out.value = value
    else:
        out.rc = value
    return out


def check_task(task, out, expected) -> None:
    if out.error is not None:
        out.problems = [out.error]
        return
    try:
        out.problems = checks.CHECKS[task.check](task, out, expected)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        out.problems = [f"output check raised {type(exc).__name__}: {exc}"]


def set_up(workload, seed: int, work: Path):
    """One set-up: import, write rule documents, load rules, warm up."""
    g = load_gbrw()
    rule_dir = work / "rules"
    rule_dir.mkdir(parents=True, exist_ok=True)
    for name, text in workload.documents(random.Random(f"{seed}:documents")).items():
        (rule_dir / name).write_text(text, encoding="utf-8")
    for spec in workload.rule_specs(str(rule_dir)):
        g.rulespec.load_rule(spec)
    warm = types.SimpleNamespace(call=None, argv=workload.warmup(str(rule_dir)))
    out = run_task(g, warm, str(work / "warmup"))
    shutil.rmtree(work / "warmup", ignore_errors=True)
    if out.error or out.rc != 0:
        raise RuntimeError(f"warm-up task failed: {out.error or out.stderr.strip()}")
    return g, str(rule_dir)


def timed_passes(g, workload, seed, seconds, trace, rule_dir, work, expected):
    rng = random.Random(seed)
    tracer = tracing.Tracer(sys.modules["gbrw.algebra"].CapacityError) if trace else None
    passes: list[Pass] = []
    start = time.perf_counter()
    counter = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        pass_start = time.perf_counter()
        results = []
        undo = tracing.install(tracer) if traced else None
        try:
            for task in workload.make_pass(rng, rule_dir):
                counter += 1
                outdir = str(work / f"t{counter:05d}")
                out = run_task(g, task, outdir, tracer if traced else None)
                check_task(task, out, expected)
                shutil.rmtree(outdir, ignore_errors=True)
                results.append((task, out))
        finally:
            if undo is not None:
                tracing.uninstall(undo)
        passes.append(Pass(traced, results, tracer.snapshot() if traced else None))
        now = time.perf_counter()
        enough = len(passes) >= (2 if trace else 1)
        if enough and (now - start) + (now - pass_start) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, passes, setup_times) -> tuple[dict, list[str], dict]:
    latencies = [out.latency for p in passes for _, out in p.results]
    tail = percentile(latencies, workload.tail_pct)
    beyond = sum(1 for v in latencies if v > tail)
    walls = [p.wall for p in passes]
    tasks_per_pass = len(passes[0].results)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups",
        f"wall_s: median over {len(passes)} passes of {tasks_per_pass} tasks "
        "(sum of task latencies; checks excluded)",
        f"task_p50_s: median of {len(latencies)} tasks",
        f"task_tail_s: p{workload.tail_pct}, {beyond} tasks beyond it",
    ]
    by_task: dict[str, list[float]] = {}
    for p in passes:
        for task, out in p.results:
            by_task.setdefault(task.name, []).append(out.latency)
    notes += [f"  {name:44s} median {statistics.median(v):.4f} s over {len(v)}"
              for name, v in sorted(by_task.items())]
    extra = {}
    if any(t.mc_steps for p in passes for t, _ in p.results):
        extra["mc_steps_per_s"] = statistics.median(p.rate("mc_steps") for p in passes)
    if any(t.theta_pairs for p in passes for t, _ in p.results):
        extra["theta_pairs_per_s"] = statistics.median(p.rate("theta_pairs") for p in passes)
    return values, notes, extra


def per_layer(passes, names) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values = {name: statistics.median(p.layers.get(name, 0) for p in traced)
              for name in names}
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in untraced))
    return values


# ---------------------------------------------------------------------------
# Environment record


def _caches() -> str:
    parts = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        parts.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''} {size}")
    return ", ".join(parts) or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.glob("gbrw/*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "processes": 1,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gbrw" / "cli.py").is_file():
        print(f"no gbrw source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()
    import numpy  # noqa: F401  dependencies load once, outside setup_s
    import scipy.special  # noqa: F401
    deps_import_s = time.perf_counter() - start
    sys.path.insert(0, str(SRC))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's modules are garbage cycles
            start = time.perf_counter()
            g, rule_dir = set_up(workload, args.seed, work)
            setup_times.append(time.perf_counter() - start)
        passes = timed_passes(g, workload, args.seed, args.seconds, bool(args.trace),
                              rule_dir, work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    results = [(task, out) for p in passes for task, out in p.results]
    failed = [(task, out) for task, out in results if out.problems]
    capacity = sum(out.capacity_limited for _, out in results)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"dependency import (numpy, scipy; not in setup_s): {deps_import_s:.4f} s")

    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(passes, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        untraced = [p for p in passes if not p.traced]
        values, notes, extra = end_to_end(workload, untraced, setup_times)
        for note in notes:
            print(note)
        for name, value in extra.items():
            print(f"{name:28s} {value:14.6g} 1/s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    failed_frac = (len(failed) + capacity) / len(results)
    print(f"failed_frac {failed_frac:.6g} ({len(failed)} failed, {capacity} stopped "
          f"by the documented capacity limit, of {len(results)} tasks)")
    for task, out in failed[:10]:
        print(f"FAILED {task.name}: {'; '.join(out.problems)}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
