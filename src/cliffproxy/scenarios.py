"""Named experiment scenarios with deterministic seeding and CSV output.

Each scenario is a pure function of its configuration: all randomness
flows through labelled streams derived from the master seed, rows are
emitted in a fixed order, and floats are written as shortest round-trip
decimal strings, so re-running an identical configuration reproduces every
CSV byte for byte.  Figures are rendered from the summary CSVs, never from
in-memory state.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import circuits as cc
from . import dense as dn
from . import estimators as est
from . import noise as nz
from .figures import svg_grouped_bars, svg_histogram, svg_scatter
from .seeding import seed_derive

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "default_config",
    "run_scenario",
    "emit_figure",
    "SCENARIOS",
    "RESULT_COLUMNS",
]

RESULT_COLUMNS = (
    "experiment_id",
    "protocol",
    "n",
    "depth",
    "randomization_id",
    "pauli",
    "estimate",
    "stderr",
    "shots",
    "seed",
)


class ConfigError(ValueError):
    """Invalid configuration; the message lists every offending field."""


_COMMON_DEFAULTS = {
    "two_qubit_budget": 1e-3,
    "one_qubit_budget": 1e-4,
    "markovian": True,
}

_SCENARIO_DEFAULTS: dict[str, dict] = {
    "uniformity": {
        **_COMMON_DEFAULTS,
        "widths": [2, 3],
        "kinds": ["disordered", "periodic"],
        "targets_per_kind": 20,
        "cliffordizations": 100,
        "min_depth": 10,
        "max_depth": 200,
    },
    "accuracy": {
        **_COMMON_DEFAULTS,
        "widths": [2],
        "kinds": ["disordered", "periodic"],
        "targets_per_kind": 20,
        "cliffordizations": 100,
        "min_depth": 10,
        "max_depth": 200,
    },
    "spam-compare": {
        **_COMMON_DEFAULTS,
        "width": 15,
        "depths": [4, 8, 12, 16, 20],
        "randomizations": 50,
        "shots": 1000,
        "calib_shots": 5000,
        "prep_error": 0.01,
        "meas_error": 0.02,
        "scrambler_depth": 4,
        "layer_fit_depths": [2, 4, 8, 16],
    },
    "volumetric": {
        **_COMMON_DEFAULTS,
        "widths": [4, 6, 8, 10],
        "depths": [4, 8, 16, 24],
        "randomizations": 50,
        "shots": 1000,
        "prep_error": 0.01,
        "meas_error": 0.02,
        "scrambler_depth": 4,
        "layer_fit_depths": [2, 4, 8, 16],
    },
    "xeb-compare": {
        **_COMMON_DEFAULTS,
        "width": 5,
        "depths": [2, 4, 8, 12, 16, 20],
        "randomizations": 20,
        "shots": 10000,
        "prep_error": 0.0,
        "meas_error": 0.0,
    },
}

_PAPER_SCALE_OVERRIDES: dict[str, dict] = {
    "uniformity": {"targets_per_kind": 100, "cliffordizations": 500},
    "accuracy": {"targets_per_kind": 100, "cliffordizations": 500},
    "spam-compare": {},
    "volumetric": {},
    "xeb-compare": {},
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int
    out_dir: str
    params: dict = field(default_factory=dict)

    def canonical_json(self) -> str:
        body = {
            "scenario": self.scenario,
            "seed": self.seed,
            "params": self.params,
            "version": __version__,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def default_config(
    scenario: str, seed: int = 0, out_dir: str = ".", paper_scale: bool = False
) -> ExperimentConfig:
    if scenario not in _SCENARIO_DEFAULTS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {sorted(_SCENARIO_DEFAULTS)}"
        )
    params = dict(_SCENARIO_DEFAULTS[scenario])
    if paper_scale:
        params.update(_PAPER_SCALE_OVERRIDES[scenario])
    return ExperimentConfig(scenario, seed, out_dir, params)


def validate_config(
    scenario: str, overrides: dict, seed: int, out_dir: str, paper_scale: bool = False
) -> ExperimentConfig:
    """Merge overrides into the scenario defaults, listing every bad field."""
    base = default_config(scenario, seed, out_dir, paper_scale)
    problems = []
    params = dict(base.params)
    for key, value in overrides.items():
        if key in ("scenario", "seed", "out_dir"):
            continue
        if key not in params:
            problems.append(f"unknown field {key!r}")
            continue
        want = type(params[key])
        if want in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
            params[key] = want(value)
        elif want is bool and isinstance(value, bool):
            params[key] = value
        elif want is list and isinstance(value, list):
            params[key] = value
        else:
            problems.append(
                f"field {key!r} expects {want.__name__}, got {type(value).__name__}"
            )
    for key in ("min_depth", "max_depth", "targets_per_kind", "cliffordizations",
                "randomizations", "shots", "calib_shots", "scrambler_depth", "width"):
        if key in params and (not isinstance(params[key], int) or params[key] < 1):
            problems.append(f"field {key!r} must be a positive integer")
    if params.get("cliffordizations") == 1:
        problems.append(
            "field 'cliffordizations' must be at least 2 (the coefficient of "
            "variation needs two samples)"
        )
    if params.get("width") == 1:
        problems.append("field 'width' must be at least 2 (brickwork circuits)")
    # list fields: element types and ranges, checked before any work starts
    for key, low in (("widths", 2), ("depths", 1), ("layer_fit_depths", 0)):
        values = params.get(key)
        if values is None:
            continue
        if not values or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= low for v in values
        ):
            problems.append(f"field {key!r} must be a non-empty list of integers >= {low}")
    if scenario in ("uniformity", "accuracy", "xeb-compare"):
        folded = params["widths"] if "widths" in params else [params["width"]]
        if any(isinstance(v, int) and v > nz.FOLD_LIMIT for v in folded):
            problems.append(f"widths above the exact-folding limit n={nz.FOLD_LIMIT}")
    if scenario == "accuracy" and any(
        isinstance(v, int) and v > dn.DIAMOND_LIMIT for v in params["widths"]
    ):
        problems.append(f"widths above the diamond-norm SDP limit n={dn.DIAMOND_LIMIT}")
    if "kinds" in params and (
        not params["kinds"] or any(k not in ("disordered", "periodic") for k in params["kinds"])
    ):
        problems.append("field 'kinds' must list 'disordered' and/or 'periodic'")
    if scenario == "spam-compare" and not params["markovian"]:
        problems.append("field 'markovian' must be true: spam-compare fits layer decays")
    fit_depths = params.get("layer_fit_depths")
    if fit_depths is not None and len({v for v in fit_depths if isinstance(v, int)}) < 3:
        problems.append("field 'layer_fit_depths' needs at least three distinct depths")
    depth_range = (params.get("min_depth"), params.get("max_depth"))
    if all(isinstance(d, int) for d in depth_range) and depth_range[0] > depth_range[1]:
        problems.append("field 'min_depth' must not exceed 'max_depth'")
    for key in ("two_qubit_budget", "one_qubit_budget"):
        if not 0.0 <= params[key] < 1.0:
            problems.append(f"field {key!r} must lie in [0, 1)")
    for key in ("prep_error", "meas_error"):
        if key in params and not 0.0 <= params[key] < 0.5:
            problems.append(f"field {key!r} must lie in [0, 0.5)")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(scenario, seed, out_dir, params)


@dataclass
class RunManifest:
    config_hash: str
    version: str
    scenario: str
    files: list[str]
    timings: dict[str, float]

    def write(self, path: str) -> None:
        body = {
            "config_hash": self.config_hash,
            "version": self.version,
            "scenario": self.scenario,
            "files": self.files,
            "timings": self.timings,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c)) for c in columns])


def _result_row(experiment_id, protocol, n, depth, randomization_id, pauli,
                estimate, stderr, shots, seed) -> dict:
    return {
        "experiment_id": experiment_id,
        "protocol": protocol,
        "n": n,
        "depth": depth,
        "randomization_id": randomization_id,
        "pauli": pauli,
        "estimate": estimate,
        "stderr": stderr,
        "shots": shots,
        "seed": seed,
    }


def _estimate_rows(experiment_id, name, n, depth, rand_id, estimate, seed_label):
    """One aggregate row plus one row per sampled observable."""
    rows = [
        _result_row(
            experiment_id, name, n, depth, rand_id, "",
            estimate.mean, estimate.stderr, estimate.num_samples, seed_label,
        )
    ]
    paulis = estimate.metadata.get("paulis", ())
    parities = estimate.metadata.get("parities", ())
    for p, v in zip(paulis, parities):
        rows.append(
            _result_row(
                experiment_id, name + "_pauli", n, depth, rand_id, p,
                v, None, None, seed_label,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# scenario bodies
# ---------------------------------------------------------------------------


def _sample_target(kind: str, spec: cc.BrickworkSpec, rng) -> cc.LayeredCircuit:
    if kind == "disordered":
        return cc.sample_brickwork(spec, "haar", rng)
    if kind == "periodic":
        return cc.sample_periodic(spec, "haar", rng)
    raise ConfigError(f"unknown circuit kind {kind!r}")


def _uniformity_like(config: ExperimentConfig, with_diamond: bool, out: "_OutputSet"):
    p = config.params
    rows = []
    summary = []
    for n in p["widths"]:
        for kind in p["kinds"]:
            for t in range(p["targets_per_kind"]):
                label = (config.scenario, n, kind, t)
                rng = seed_derive(config.seed, *label)
                depth = int(rng.integers(p["min_depth"], p["max_depth"] + 1))
                spec = cc.BrickworkSpec(n, depth, "ring")
                target = _sample_target(kind, spec, rng)
                noise = nz.sample_error_model(
                    target, rng, p["two_qubit_budget"], p["one_qubit_budget"],
                    p["markovian"],
                )
                exp_id = f"{config.scenario}-n{n}-{kind}-{t:03d}"
                rs = nz.cliffordization_infidelities(
                    target, noise, p["cliffordizations"], rng
                ).tolist()
                for k, r in enumerate(rs):
                    rows.append(
                        _result_row(exp_id, "exact_r", n, depth, k, "",
                                    r, 0.0, 0, "/".join(map(str, label)))
                    )
                mu, sigma, cov = est.coefficient_of_variation(rs)
                entry = {
                    "experiment_id": exp_id,
                    "n": n,
                    "kind": kind,
                    "depth": depth,
                    "mu_r": mu,
                    "sigma_r": sigma,
                    "cov": cov,
                    "value": cov,
                }
                if with_diamond:
                    ptm_ideal = dn.circuit_ptm(target)
                    ptm_noisy = dn.circuit_ptm(target, noise)
                    res = dn.diamond_distance(ptm_ideal, ptm_noisy)
                    r_target = 1.0 - dn.process_fidelity(ptm_ideal, ptm_noisy)
                    r_bar = sum(nz.layer_infidelities(target, noise))
                    entry.update(
                        {
                            "d_diamond": res.value,
                            "sdp_gap": res.duality_gap,
                            "abs_diff": abs(res.value - mu),
                            "r_target": r_target,
                            "r_bar": r_bar,
                            "x": res.value,
                            "y": abs(res.value - mu),
                        }
                    )
                    rows.append(
                        _result_row(exp_id, "diamond_distance", n, depth, None, "",
                                    res.value, res.duality_gap, 0,
                                    "/".join(map(str, label)))
                    )
                summary.append(entry)
                out.stage_results(rows)
                rows = []
    return summary


def _run_uniformity(config: ExperimentConfig, out: "_OutputSet"):
    summary = _uniformity_like(config, with_diamond=False, out=out)
    out.finalize_results()
    cols = ("experiment_id", "n", "kind", "depth", "mu_r", "sigma_r", "cov", "value")
    out.summary("uniformity_summary.csv", cols, summary)
    out.figure("uniformity_cov_hist.svg", "uniformity_summary.csv", "hist")


def _run_accuracy(config: ExperimentConfig, out: "_OutputSet"):
    summary = _uniformity_like(config, with_diamond=True, out=out)
    out.finalize_results()
    cols = (
        "experiment_id", "n", "kind", "depth", "mu_r", "sigma_r", "cov",
        "d_diamond", "sdp_gap", "abs_diff", "r_target", "r_bar", "x", "y",
    )
    out.summary("accuracy_summary.csv", cols, summary)
    out.figure("accuracy_scatter.svg", "accuracy_summary.csv", "scatter")


def _run_spam_compare(config: ExperimentConfig, out: "_OutputSet"):
    p = config.params
    n = p["width"]
    cfg = est.DfeConfig(p["randomizations"], 1, p["shots"])
    spam = nz.SpamModel.uniform(n, p["prep_error"], p["meas_error"])
    rng = seed_derive(config.seed, config.scenario, "setup")
    template = cc.sample_brickwork(cc.BrickworkSpec(n, max(p["depths"])), "haar", rng)
    noise = nz.sample_error_model(
        template, rng, p["two_qubit_budget"], p["one_qubit_budget"], p["markovian"]
    )
    scrambler = cc.scrambling_circuit(n, p["scrambler_depth"], rng)
    fit = est.layer_fidelity_estimate(
        (cc.TwoQubitLayer(cc.brickwork_pairs(n, 0)), cc.TwoQubitLayer(cc.brickwork_pairs(n, 1))),
        n, noise, p["layer_fit_depths"], cfg, seed_derive(config.seed, config.scenario, "layerfit"),
        spam=spam,
    )
    rows = []
    summary = []
    for depth in p["depths"]:
        rng_d = seed_derive(config.seed, config.scenario, "depth", depth)
        target = cc.sample_brickwork(cc.BrickworkSpec(n, depth), "haar", rng_d)
        proxy = cc.cliffordize(target, rng_d)
        exp_id = f"spam-compare-d{depth}"
        series = {
            "unmitigated": est.dfe(None, noise, spam, cfg, rng_d, target=target),
            "layer_fidelity": fit.predict_fidelity(proxy),
            "reference": est.dfe_with_reference(
                None, scrambler, noise, spam, cfg, rng_d, target=target
            ),
            "readout": est.readout_mitigated_dfe(
                None, noise, spam, cfg, p["calib_shots"], rng_d, target=target
            ),
        }
        for name, estimate in series.items():
            rows.extend(
                _estimate_rows(exp_id, name, n, depth, None, estimate, str(depth))
            )
            summary.append(
                {
                    "group": f"d={depth}",
                    "series": name,
                    "mean": estimate.mean,
                    "stderr": estimate.stderr,
                    "n": n,
                    "depth": depth,
                }
            )
        out.stage_results(rows)
        rows = []
    out.finalize_results()
    out.summary(
        "spam_compare_summary.csv",
        ("group", "series", "mean", "stderr", "n", "depth"),
        summary,
    )
    out.figure("spam_compare_bars.svg", "spam_compare_summary.csv", "bars")


def _run_volumetric(config: ExperimentConfig, out: "_OutputSet"):
    p = config.params
    cfg = est.DfeConfig(p["randomizations"], 1, p["shots"])
    cells = est.volumetric_run(
        p["widths"],
        p["depths"],
        nz.NoiseBudget(p["two_qubit_budget"], p["one_qubit_budget"], p["markovian"]),
        (p["prep_error"], p["meas_error"]),
        cfg,
        seed_derive(config.seed, config.scenario),
        scrambler_depth=p["scrambler_depth"],
        layer_fit_depths=tuple(p["layer_fit_depths"]),
    )
    rows = []
    summary = []
    for cell in cells:
        exp_id = f"volumetric-n{cell.width}-d{cell.depth}"
        for name, estimate in cell.estimates.items():
            rows.extend(
                _estimate_rows(
                    exp_id, name, cell.width, cell.depth, None, estimate, ""
                )
            )
            summary.append(
                {
                    "group": f"n={cell.width},d={cell.depth}",
                    "series": name,
                    "mean": estimate.mean,
                    "stderr": estimate.stderr,
                    "n": cell.width,
                    "depth": cell.depth,
                }
            )
        for name, message in cell.errors.items():
            rows.append(
                _result_row(exp_id, name + "_failed", cell.width, cell.depth,
                            None, "", None, None, None, message)
            )
        out.stage_results(rows)
        rows = []
    out.finalize_results()
    out.summary(
        "volumetric_summary.csv",
        ("group", "series", "mean", "stderr", "n", "depth"),
        summary,
    )
    out.figure("volumetric_bars.svg", "volumetric_summary.csv", "bars")


def _run_xeb_compare(config: ExperimentConfig, out: "_OutputSet"):
    p = config.params
    n = p["width"]
    spam = (
        nz.SpamModel.uniform(n, p["prep_error"], p["meas_error"])
        if (p["prep_error"] or p["meas_error"])
        else None
    )
    rows = []
    summary = []
    for depth in p["depths"]:
        xes = []
        dfes = []
        exacts = []
        exp_id = f"xeb-compare-d{depth}"
        for k in range(p["randomizations"]):
            rng = seed_derive(config.seed, config.scenario, depth, k)
            circ = cc.sample_brickwork(cc.BrickworkSpec(n, depth), "haar", rng)
            noise = nz.sample_error_model(
                circ, rng, p["two_qubit_budget"], p["one_qubit_budget"], p["markovian"]
            )
            ideal = dn.ideal_output_probs(circ)
            samples = dn.statevector_simulate(circ, noise, rng, p["shots"], spam=spam)
            xe = est.xeb(samples, ideal)
            xes.append(xe)
            proxy = cc.cliffordize(circ, rng)
            destimate = est.dfe(
                proxy, noise, spam, est.DfeConfig(20, 1, p["shots"] // 20 or 1), rng
            )
            dfes.append(destimate.mean)
            exacts.append(1.0 - nz.process_infidelity_exact(proxy, noise))
            rows.append(
                _result_row(exp_id, "xeb", n, depth, k, "", xe, None, p["shots"],
                            f"{depth}/{k}")
            )
            rows.extend(
                _estimate_rows(exp_id, "dfe", n, depth, k, destimate, f"{depth}/{k}")
            )
            rows.append(
                _result_row(exp_id, "exact_fold", n, depth, k, "", exacts[-1], 0.0, 0,
                            f"{depth}/{k}")
            )
        num_ent = sum(
            len(cc.brickwork_pairs(n, d)) for d in range(depth)
        )
        for name, vals in (("xeb", xes), ("dfe", dfes), ("exact", exacts)):
            arr = np.asarray(vals)
            summary.append(
                {
                    "group": f"d={depth}",
                    "series": name,
                    "mean": float(arr.mean()),
                    # one randomization has no spread to estimate
                    "stderr": float(arr.std(ddof=1) / np.sqrt(len(arr)))
                    if len(arr) > 1 else math.nan,
                    "n": n,
                    "depth": depth,
                    "entanglers": num_ent,
                }
            )
        out.stage_results(rows)
        rows = []
    out.finalize_results()
    out.summary(
        "xeb_summary.csv",
        ("group", "series", "mean", "stderr", "n", "depth", "entanglers"),
        summary,
    )
    out.figure("xeb_bars.svg", "xeb_summary.csv", "bars")


SCENARIOS = {
    "uniformity": _run_uniformity,
    "accuracy": _run_accuracy,
    "spam-compare": _run_spam_compare,
    "volumetric": _run_volumetric,
    "xeb-compare": _run_xeb_compare,
}


class _OutputSet:
    """Collects scenario outputs and tracks files for the manifest."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        self._rows: list[dict] = []
        os.makedirs(out_dir, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def stage_results(self, rows) -> None:
        """Buffer result rows; they are flushed even if the run aborts."""
        self._rows.extend(rows)

    def finalize_results(self) -> None:
        _write_csv(self._path("results.csv"), RESULT_COLUMNS, self._rows)
        self.files.append("results.csv")

    def flush_partial(self) -> None:
        if self._rows and "results.csv" not in self.files:
            _write_csv(self._path("results.csv"), RESULT_COLUMNS, self._rows)

    def summary(self, name: str, columns, rows) -> None:
        _write_csv(self._path(name), columns, rows)
        self.files.append(name)

    def figure(self, name: str, summary_name: str, kind: str) -> None:
        svg = emit_figure(self._path(summary_name), kind)
        with open(self._path(name), "w") as fh:
            fh.write(svg)
        self.files.append(name)


def run_scenario(config: ExperimentConfig) -> RunManifest:
    """Execute a scenario and persist CSVs, figures, and the manifest."""
    if config.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {config.scenario!r}")
    out = _OutputSet(config.out_dir)
    t0 = time.perf_counter()
    try:
        SCENARIOS[config.scenario](config, out)
    except Exception:
        out.flush_partial()
        raise
    elapsed = time.perf_counter() - t0
    manifest = RunManifest(
        config_hash=config.config_hash(),
        version=__version__,
        scenario=config.scenario,
        files=sorted(set(out.files)),
        timings={"total_seconds": elapsed},
    )
    manifest.write(os.path.join(config.out_dir, "manifest.json"))
    for name in manifest.files:
        if not os.path.exists(os.path.join(config.out_dir, name)):
            raise RuntimeError(f"manifest references missing file {name}")
    return manifest


def emit_figure(summary_csv: str, kind: str) -> str:
    """Render one summary CSV as an SVG string.

    ``hist`` expects a ``value`` column, ``scatter`` expects ``x``/``y``,
    and ``bars`` expects long-form ``group``/``series``/``mean``/``stderr``.
    """
    with open(summary_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"no data rows in {summary_csv}")
    title = os.path.basename(summary_csv).rsplit(".", 1)[0]
    if kind == "hist":
        values = [float(r["value"]) for r in rows if r.get("value")]
        if not values:
            raise ValueError("hist figures need a 'value' column")
        return svg_histogram(values, bins=20, title=title, xlabel="value")
    if kind == "scatter":
        pts = [(float(r["x"]), float(r["y"])) for r in rows if r.get("x") and r.get("y")]
        if not pts:
            raise ValueError("scatter figures need 'x' and 'y' columns")
        return svg_scatter(
            [p[0] for p in pts], [p[1] for p in pts], title, "x", "y"
        )
    if kind == "bars":
        groups = []
        series: dict[str, dict[str, tuple[float, float]]] = {}
        for r in rows:
            g = r["group"]
            if g not in groups:
                groups.append(g)
            series.setdefault(r["series"], {})[g] = (
                float(r["mean"]),
                float(r["stderr"]) if r.get("stderr") else 0.0,
            )
        packed = {
            name: (
                [vals.get(g, (None, None))[0] for g in groups],
                [vals.get(g, (None, None))[1] for g in groups],
            )
            for name, vals in series.items()
        }
        return svg_grouped_bars(groups, packed, title, "group", "estimate")
    raise ValueError(f"unknown figure kind {kind!r}; use hist, bars, or scatter")
