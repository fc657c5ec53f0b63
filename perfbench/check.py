"""Correctness check of one repetition's outputs against committed references.

Every file listed in ``manifest.files`` is compared with the reference for
the workload's scenario seed.  A file is ``identical`` byte for byte,
``rounding`` when only numbers differ and each within last-digit rounding,
or a mismatch, described by its first differing number or text.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SDP_GAP_MAX = 1e-8

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
# CSVs hold shortest round-trip floats; SVGs print six significant digits
_TOLERANCE = {".csv": (1e-9, 1e-13), ".svg": (1e-5, 1e-9)}


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload: str, body: dict) -> None:
    data = json.dumps(body, sort_keys=True, indent=1).encode()
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)


def compare_text(name: str, got: str, want: str) -> str:
    """``identical``, ``rounding``, or ``mismatch: ...``."""
    if got == want:
        return "identical"
    rel, abs_ = _TOLERANCE.get(Path(name).suffix, (1e-9, 1e-13))
    got_parts = _NUMBER.split(got)
    want_parts = _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return "mismatch: different number of fields"
    # split() alternates text (even index) and numbers (odd index)
    for i, (a, b) in enumerate(zip(got_parts, want_parts)):
        if a == b:
            continue
        if i % 2 == 0:
            return f"mismatch: text {a[:40]!r} != {b[:40]!r}"
        if not math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_):
            return f"mismatch: {a} != {b}"
    return "rounding"


def check_outputs(out_dir: Path, files: list[str], reference: dict) -> dict[str, str]:
    """Status of each output file against ``reference`` (name -> text)."""
    status = {}
    for name in sorted(set(files) | set(reference)):
        if name not in reference:
            status[name] = "mismatch: no reference file"
        elif name not in files:
            status[name] = "mismatch: not produced"
        else:
            got = (out_dir / name).read_text(encoding="utf-8")
            status[name] = compare_text(name, got, reference[name])
    return status


def _rows(out_dir: Path, name: str) -> list[dict]:
    path = out_dir / name
    if not path.exists():
        return []
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def sdp_gap_problems(out_dir: Path) -> list[str]:
    """Accuracy rows whose SDP duality gap exceeds the acceptance bound."""
    return [
        f"{row['experiment_id']}: sdp_gap {row['sdp_gap']}"
        for row in _rows(out_dir, "accuracy_summary.csv")
        if not float(row["sdp_gap"]) <= SDP_GAP_MAX
    ]


def failed_units(out_dir: Path) -> int:
    """Experiments with at least one failed estimator (``*_failed`` rows)."""
    return len(
        {
            row["experiment_id"]
            for row in _rows(out_dir, "results.csv")
            if row["protocol"].endswith("_failed")
        }
    )
