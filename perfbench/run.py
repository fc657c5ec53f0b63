"""Scenario benchmark for cliffproxy.

    python3 perfbench/run.py --workload {accuracy,volumetric,xeb-compare} \
        --seed N --seconds S --trace {0,1}

Runs one workload, a reduced configuration of a CLI scenario, through the
public API (``validate_config`` then ``run_scenario``) from the checkout's
``src``.  Each repetition runs in a fresh worker process with BLAS
pinned to one thread, so set-up time and peak memory belong to that
repetition; repetitions continue until ``--seconds`` is used up (at least
three).  Untraced repetitions use consecutive scenario seeds starting from
``--seed``; every repetition's output files are checked against the
committed reference for its seed (see ``check.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (workload units: accuracy targets, volumetric cells, xeb-compare
circuits) and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end medians over repetitions: setup_s, wall_ref, units_per_ref,
peak_rss_mb and ok_frac (1 - failed_frac).  ``wall_ref`` is the wall time of
``run_scenario`` in units of a reference kernel's time, timed just before
and after each worker (``speed.py``), because the host's speed drifts by
tens of percent between runs; the raw ``wall_s`` and
``units_per_s`` medians are in the info line.  With ``--trace 1`` untraced
and traced repetitions alternate (at least two of each), and the metrics
are the per-layer ones of ``layers.PER_LAYER``: self times are medians over traced
repetitions, counts must repeat exactly.  The line before it is a JSON
``info`` object: machine, versions, thread settings, per-file check status,
failed_frac and, when traced, the self-time breakdown.

Regenerate the references after an intended output change with
``python3 perfbench/make_reference.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from check import check_outputs, failed_units, load_reference, reference_path, sdp_gap_problems
from layers import DFE_AND_FOLD, PER_LAYER
from speed import reference_seconds
from workloads import WORKLOADS, scenario_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
MIN_REPS = 3
MIN_TRACED_RUN_REPS = 4  # two untraced, two traced
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def worker_env() -> dict:
    # one BLAS thread: the workloads' matrices are at most a few hundred
    # wide, where more threads only add start-up and synchronisation time
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload: str, seed: int, trace: bool, index: int, env: dict, timeout: float) -> dict:
    """One repetition in a fresh worker; returns its report plus ``out``."""
    out = RUNS_DIR / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    began = time.monotonic()
    ref_before = reference_seconds()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s", "out": out,
                "trace_run": trace, "rep_s": time.monotonic() - began}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        report = {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    else:
        report = json.loads(lines[-1])
    report.update(out=out, trace_run=trace, ref_s=[ref_before, reference_seconds()])
    report["rep_s"] = time.monotonic() - began
    return report


def check_rep(report: dict, reference: dict, workload: str) -> None:
    """Adds ``status`` (per file), ``problems`` and ``failed_units``."""
    out = report["out"]
    units = WORKLOADS[workload].units
    if report.get("error"):
        report["problems"] = [report["error"]]
        report["failed_units"] = units
        return
    report["status"] = check_outputs(out, report["files"], reference)
    problems = [f"{name}: {s}" for name, s in report["status"].items() if s.startswith("mismatch")]
    problems += sdp_gap_problems(out)
    report["problems"] = problems
    report["failed_units"] = units if problems else failed_units(out)


def _median(values):
    return statistics.median(values) if values else None


def wall_ref(report: dict) -> float:
    """A repetition's wall time in units of its reference kernel's time."""
    return report["wall_s"] / statistics.fmean(report["ref_s"])


def end_to_end(reps: list[dict], units: int, failed: int, attempted: int) -> dict:
    good = [r for r in reps if not r.get("error") and not r["trace_run"]]
    wall = _median([wall_ref(r) for r in good])
    return {
        "setup_s": {"value": _median([r["setup_s"] for r in reps if "setup_s" in r]), "unit": "s"},
        "wall_ref": {"value": wall, "unit": "ref"},
        "units_per_ref": {"value": units / wall, "unit": "1/ref"},
        "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in good]), "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "1"},
    }


def per_layer(reps: list[dict], problems: list[str]) -> tuple[dict, dict]:
    traced = [r for r in reps if r["trace_run"] and not r.get("error")]
    untraced = [r for r in reps if not r["trace_run"] and not r.get("error")]
    first = traced[0]["trace"]["metrics"]
    for other in traced[1:]:
        for metric, value in other["trace"]["metrics"].items():
            if not metric.endswith("_s") and value != first[metric]:
                problems.append(f"{metric} did not repeat: {first[metric]} then {value}")
    metrics = {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead_s":
            # compared in reference units, so that the host's drift between
            # repetitions does not show as overhead, then given in seconds
            ref_s = _median([statistics.fmean(r["ref_s"]) for r in traced + untraced])
            value = ref_s * (_median([wall_ref(r) for r in traced])
                             - _median([wall_ref(r) for r in untraced]))
        elif metric.endswith("_s"):
            value = _median([r["trace"]["metrics"][metric] for r in traced])
        else:
            value = first[metric]
        metrics[metric] = {"value": value, "unit": unit}

    # shares of the traced wall time, largest self time first
    wall = _median([r["wall_s"] for r in traced])
    shares = {
        name: {
            field: round(_median([r["trace"]["spans"].get(name, {}).get(field, 0.0)
                                  for r in traced]) / wall, 4)
            for field in ("self_s", "total_s")
        }
        for name in traced[0]["trace"]["spans"]
    }
    ranked = sorted(shares, key=lambda name: -shares[name]["self_s"])
    breakdown = {
        "shares": [[name, shares[name]["self_s"], shares[name]["total_s"]] for name in ranked],
        "largest_self": ranked[0] if ranked else None,
        "dfe_and_fold_self_share": round(
            sum(shares[name]["self_s"] for name in ranked if name.startswith(DFE_AND_FOLD)), 4
        ),
        "computed_from_array_sizes": ["noise.fold.label_layers", "noise.fold.bytes"],
        "failures_by_type": traced[0]["trace"]["failures_by_type"],
        "missing_hooks": traced[0]["trace"]["missing_hooks"],
    }
    return metrics, breakdown


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cliffproxy scenario benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "cliffproxy" / "__init__.py").is_file():
        print(f"no cliffproxy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not reference_path(args.workload).is_file():
        print(f"no reference outputs at {reference_path(args.workload)}", file=sys.stderr)
        return 2
    reference_body = load_reference(args.workload)
    workload = WORKLOADS[args.workload]
    if reference_body["overrides"] != workload.overrides:
        print("reference outputs were made for another workload config", file=sys.stderr)
        return 2
    env = worker_env()
    trace = bool(args.trace)

    # Untraced repetitions walk through consecutive scenario seeds, so that a
    # run's median spans several inputs rather than one input's own size.
    # Traced runs alternate untraced and traced repetitions, all on the run's
    # own scenario seed, so that counts must repeat and the overhead compares
    # like with like.
    min_reps = MIN_TRACED_RUN_REPS if trace else MIN_REPS
    reps: list[dict] = []
    RUNS_DIR.mkdir(exist_ok=True)
    while True:
        elapsed = time.monotonic() - began
        expected = _median([r["rep_s"] for r in reps]) or 0.0
        if len(reps) >= min_reps and elapsed + expected > args.seconds:
            break
        if reps and elapsed + expected > DEADLINE_S:
            break
        seed = scenario_seed(args.seed if trace else args.seed + len(reps))
        report = run_rep(args.workload, seed, trace and len(reps) % 2 == 1, len(reps), env,
                         DEADLINE_S - elapsed)
        report["seed"] = seed
        try:
            check_rep(report, reference_body["seeds"][str(seed)], args.workload)
        finally:
            shutil.rmtree(report["out"], ignore_errors=True)
        reps.append(report)
        if "timed out" in (report.get("error") or ""):
            break
    with contextlib.suppress(OSError):
        RUNS_DIR.rmdir()

    attempted = workload.units * len(reps)
    failed = sum(r["failed_units"] for r in reps)
    problems = [f"rep {i}: {p}" for i, r in enumerate(reps) for p in r["problems"]]
    done = [r for r in reps if not r.get("error")]
    if not any(not r["trace_run"] for r in done) or (trace and not any(r["trace_run"] for r in done)):
        print("no repetition completed", file=sys.stderr)
        return 1
    versions = done[0]["versions"]
    info = {
        "workload": args.workload,
        "scenario": workload.scenario,
        "scenario_seeds": [r["seed"] for r in reps],
        "unit": workload.unit,
        "units_per_rep": workload.units,
        "reps": len(reps),
        "traced_reps": sum(r["trace_run"] for r in reps),
        "failed_frac": failed / attempted,
        "versions": versions,
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "rep_wall_s": [r.get("wall_s") for r in reps],
        "rep_ref_s": [r.get("ref_s") for r in reps],
        "rep_peak_rss_mb": [r.get("peak_rss_mb") for r in reps],
        "check": dict(Counter(
            status.split(":")[0] for r in done for status in r["status"].values()
        )),
    }
    if trace:
        metrics, info["trace"] = per_layer(reps, problems)
    else:
        metrics = end_to_end(reps, workload.units, failed, attempted)
        # raw times, which carry the host's drift as well as the program's
        wall = _median([r["wall_s"] for r in done if not r["trace_run"]])
        info.update(wall_s=wall, units_per_s=workload.units / wall)
    info["problems"] = problems
    for p in problems:
        print(p, file=sys.stderr)
    print("info: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
