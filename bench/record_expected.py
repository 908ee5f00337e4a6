"""Record the exit codes and output digests that the exact-output checks expect.

Run from the root of a source checkout:

    python3 bench/record_expected.py

It runs every task of the exact workloads once and rewrites
bench/expected.json.  The committed file was recorded at the seed commit,
so a faster program must reproduce those files byte for byte; re-record
only in a change that means to alter an exact output, and say so.
"""

import contextlib
import json
import random
import shutil
import sys

from run import BENCH, ROOT, SRC, load_gbrw, run_task
from checks import sha256
from workloads import WORKLOADS

DIGESTED = {
    "gaussian-check": ("rho_seq.csv",),
    "moments": ("rho_seq.csv",),
    "convert": ("truth_table.csv",),
    "beta-array": ("beta_array.csv", "beta_array.ppm"),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    g = load_gbrw()
    work = ROOT / ".bench_work" / "record"
    expected = {}
    try:
        for name in ("moments-scan", "ergodic-report"):
            for task in WORKLOADS[name].make_pass(random.Random(0), str(work)):
                outdir = work / "out"
                out = run_task(g, task, str(outdir))
                entry = {"exit": out.rc}
                files = [f for f in DIGESTED.get(task.argv[0], ())
                         if (outdir / f).exists()]
                if files:
                    entry["sha256"] = {f: sha256(str(outdir / f)) for f in files}
                expected[task.key] = entry
                shutil.rmtree(outdir, ignore_errors=True)
                print(f"{task.key}: {entry}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    text = json.dumps(dict(sorted(expected.items())), indent=2) + "\n"
    (BENCH / "expected.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
