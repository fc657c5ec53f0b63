"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py``; prints one JSON report as its last stdout line.
``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, importing numpy and
the package from the checkout's ``src``, warming the one-qubit Clifford
tables and validating the config: everything before the timed call.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _blas_info(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        }
    except (TypeError, KeyError, AttributeError):
        return {}


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image alone; ru_maxrss keeps the
    # resident size of the parent that forked it across exec
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np

    import cliffproxy
    from cliffproxy import scenarios

    if not Path(cliffproxy.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"cliffproxy imported from {cliffproxy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from layers import HOOKS, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cliffproxy.one_qubit_cliffords()
    config = scenarios.validate_config(workload.scenario, workload.overrides, args.seed, args.out)
    setup_s = time.monotonic() - args.spawned

    # run_scenario is called through its module so that the tracer's
    # binding of it is the one used
    tracer = Tracer() if args.trace else None
    error = None
    files: list[str] = []
    start = time.perf_counter()
    try:
        if tracer is None:
            files = scenarios.run_scenario(config).files
        else:
            with tracer.installed("cliffproxy", HOOKS):
                files = scenarios.run_scenario(config).files
    except Exception as exc:  # reported to run.py as a failed repetition
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "files": files,
        "error": error,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cliffproxy": cliffproxy.__version__,
            "blas": _blas_info(np),
        },
    }
    if tracer is not None:
        report["trace"] = layer_metrics(tracer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
