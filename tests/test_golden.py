"""Golden outputs: reduced configurations of all five scenarios, seed 0.

Each case runs one scenario and compares every file its manifest lists with
the committed reference in ``golden/<case>.json.gz``, through the
identical / rounding / mismatch classification of the benchmark's output
check (``perfbench/check.py``).  Any mismatch fails.

To print each file's classification against the references, writing
nothing (the exit status is 1 if any file is a mismatch):

    PYTHONPATH=src python tests/test_golden.py --check

When a change is meant to alter scenario outputs, first record what
``--check`` prints, then regenerate the references of the cases it moves
and say in CHANGES.md which files changed and why:

    PYTHONPATH=src python tests/test_golden.py spam-compare

With no case names, every reference is regenerated (or, with ``--check``,
every case is checked).  Regenerate only the cases a change is meant to
move: on some hosts the accuracy files differ from the references by
last-digit rounding alone, which a full regeneration would commit.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cliffproxy.scenarios import run_scenario, validate_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 0

_spec = importlib.util.spec_from_file_location("perfbench_check", ROOT / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

_VOLUMETRIC = {
    "widths": [4, 6],
    "depths": [4, 8],
    "randomizations": 10,
    "shots": 200,
    "layer_fit_depths": [2, 4, 8],
}

CASES = {
    "uniformity": ("uniformity", {
        "widths": [2, 3], "targets_per_kind": 1, "cliffordizations": 20,
        "min_depth": 10, "max_depth": 40,
    }),
    "accuracy": ("accuracy", {
        "widths": [2], "targets_per_kind": 1, "cliffordizations": 20,
        "min_depth": 20, "max_depth": 40,
    }),
    # the diamond-norm SDP at its size limit, n = 3
    "accuracy-n3": ("accuracy", {
        "widths": [3], "targets_per_kind": 1, "cliffordizations": 20,
        "min_depth": 10, "max_depth": 20,
    }),
    "spam-compare": ("spam-compare", {
        "width": 6, "depths": [4, 8], "randomizations": 10, "shots": 200,
        "calib_shots": 1000, "layer_fit_depths": [2, 4, 8],
    }),
    "volumetric": ("volumetric", _VOLUMETRIC),
    # layer fits need Markovian noise, so every cell records a failed fit;
    # the reference estimator draws noise entries for the scrambler positions
    "volumetric-nonmarkovian": ("volumetric", {
        **_VOLUMETRIC, "markovian": False, "depths": [3, 4],
    }),
    # the only case that runs the sampler's SPAM path
    "xeb-compare": ("xeb-compare", {
        "width": 4, "depths": [2, 4], "randomizations": 2, "shots": 1000,
        "prep_error": 0.01, "meas_error": 0.02,
    }),
}


def _reference_path(case: str) -> Path:
    return GOLDEN_DIR / f"{case}.json.gz"


def _load_reference(case: str) -> dict:
    with gzip.open(_reference_path(case), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _run(case: str, out_dir: Path) -> list[str]:
    scenario, overrides = CASES[case]
    config = validate_config(scenario, overrides, SEED, str(out_dir))
    return run_scenario(config).files


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_reference(case, tmp_path):
    reference = _load_reference(case)
    assert reference["overrides"] == CASES[case][1], "stale reference: regenerate it"
    files = _run(case, tmp_path)
    status = check.check_outputs(tmp_path, files, reference["files"])
    bad = {name: s for name, s in status.items() if s.startswith("mismatch")}
    assert not bad, bad


def _regenerate(cases) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            files = _run(case, out)
            texts = {name: (out / name).read_text(encoding="utf-8") for name in files}
        body = {"scenario": CASES[case][0], "overrides": CASES[case][1], "seed": SEED,
                "files": texts}
        data = json.dumps(body, sort_keys=True, indent=1).encode()
        with open(_reference_path(case), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(data)
        print(f"{case}: {len(files)} files")


def _check(cases) -> bool:
    """Print every file's classification; True if none is a mismatch."""
    ok = True
    for case in cases:
        reference = _load_reference(case)
        with tempfile.TemporaryDirectory() as tmp:
            files = _run(case, Path(tmp))
            status = check.check_outputs(Path(tmp), files, reference["files"])
        for name, s in status.items():
            print(f"{case}/{name}: {s}")
            ok = ok and not s.startswith("mismatch")
    return ok


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or check the golden outputs.")
    parser.add_argument("cases", nargs="*", metavar="case",
                        help=f"cases to regenerate or check, of {', '.join(sorted(CASES))}; "
                             "default all")
    parser.add_argument("--check", action="store_true",
                        help="print each file's classification against the references; write nothing")
    args = parser.parse_args()
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}")
    cases = sorted(set(args.cases)) or sorted(CASES)
    if args.check:
        sys.exit(0 if _check(cases) else 1)
    else:
        _regenerate(cases)
