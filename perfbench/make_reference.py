"""Regenerate the committed reference outputs of the benchmark workloads.

    python3 perfbench/make_reference.py [workload ...]

Runs every scenario seed of each workload once, untraced, and stores the
files listed in its manifest in ``reference/<workload>.json.gz``.  Do this
only when a change is meant to alter scenario outputs, and say so.
"""

from __future__ import annotations

import shutil
import sys

from check import failed_units, write_reference
from run import RUNS_DIR, run_rep, worker_env
from workloads import REFERENCE_SEEDS, WORKLOADS


def main(argv: list[str]) -> int:
    env = worker_env()
    RUNS_DIR.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            report = run_rep(name, seed, False, seed, env, timeout=600.0)
            out = report["out"]
            try:
                if report.get("error"):
                    print(f"{name} seed {seed}: {report['error']}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = {
                    f: (out / f).read_text(encoding="utf-8") for f in report["files"]
                }
                print(f"{name} seed {seed}: {report['wall_s']:.2f} s, "
                      f"{failed_units(out)} failed units")
            finally:
                shutil.rmtree(out, ignore_errors=True)
        write_reference(name, {"overrides": WORKLOADS[name].overrides, "seeds": seeds})
    RUNS_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
