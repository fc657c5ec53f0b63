"""Which library functions the traced run wraps, and the per-layer metrics.

Stdlib only: module and function names are strings, resolved when a
``Tracer`` installs the hooks inside the worker process.  A function the
library no longer has is reported as missing, and its metrics read 0.
"""

from __future__ import annotations

# Computed, not measured: each folded layer touches five 8-byte arrays of
# 4^n entries (running eigenvalues, the layer's eigenvalues, the label map,
# the layer permutation and the composed map).
FOLD_BYTES_PER_LABEL_LAYER = 5 * 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_fold(tracer, args, kwargs, result):
    # a fold nested in another (process_infidelity_exact -> fold_eigenvalues)
    # is the same fold
    if tracer.parent_name() == "noise.fold":
        return
    circuit = _arg(args, kwargs, 0, "circuit")
    label_layers = 4**circuit.n * len(circuit.layers)
    tracer.counters["noise.fold.label_layers"] += label_layers
    tracer.counters["noise.fold.bytes"] += label_layers * FOLD_BYTES_PER_LABEL_LAYER


def _observe_shots(tracer, args, kwargs, result):
    tracer.counters["dense.statevector.shots"] += int(_arg(args, kwargs, 3, "shots"))


def _observe_sdp(tracer, args, kwargs, result):
    tracer.counters["sdp.iterations"] += int(result.iterations)
    gap = float(result.duality_gap)
    tracer.maxima["sdp.gap_max"] = max(tracer.maxima.get("sdp.gap_max", 0.0), gap)


def _span(name, observe=None):
    return lambda tracer, fn: tracer.span(name, fn, observe)


def _count(name):
    return lambda tracer, fn: tracer.count(name, fn)


HOOKS = (
    ("noise", "process_infidelity_exact", _span("noise.fold", _observe_fold)),
    ("noise", "fold_to_end", _span("noise.fold", _observe_fold)),
    ("noise", "fold_eigenvalues", _span("noise.fold", _observe_fold)),
    ("noise", "layer_channel", _span("noise.channels")),
    ("noise", "circuit_channels", _span("noise.channels")),
    ("noise", "sample_error_model", _span("noise.model")),
    ("pauli", "pauli_walsh", _span("pauli.walsh")),
    ("clifford", "inverse", _span("clifford.inverse")),
    ("clifford", "conjugate", _span("clifford.conjugate")),
    ("circuits", "cliffordize", _span("circuits.cliffordize")),
    ("circuits", "sample_brickwork", _span("circuits.sample")),
    ("circuits", "sample_periodic", _span("circuits.sample")),
    ("circuits", "scrambling_circuit", _span("circuits.sample")),
    ("estimators", "dfe", _span("estimators.dfe")),
    ("estimators", "dfe_with_reference", _span("estimators.reference")),
    ("estimators", "readout_mitigated_dfe", _span("estimators.readout")),
    ("estimators", "layer_fidelity_estimate", _span("estimators.layer_fit")),
    ("dense", "statevector_simulate", _span("dense.statevector", _observe_shots)),
    ("dense", "ideal_output_probs", _span("dense.ideal_probs")),
    ("dense", "circuit_ptm", _span("dense.ptm")),
    ("dense", "diamond_distance", _span("dense.diamond")),
    ("sdp", "solve_diamond_sdp", _span("sdp.solve", _observe_sdp)),
    ("scenarios", "run_scenario", _span("scenarios")),
    ("scenarios", "emit_figure", _span("figures")),
    # counted, not timed: the observables the estimators walk, and noiseless
    # layer applications (each statevector pattern applies every layer)
    ("pauli", "sample_uniform_nonidentity", _count("estimators.paulis")),
    ("dense", "apply_circuit_layer", _count("dense.layer_applies")),
)

# (metric, unit); every metric except trace.overhead_s comes from one
# traced run.  Metrics ending in ".self_s" are times, all others must
# repeat exactly between two traced runs of one seed.
PER_LAYER = (
    ("noise.fold.calls", "count"),
    ("noise.fold.self_s", "s"),
    ("noise.fold.label_layers", "count"),
    ("noise.fold.bytes", "B"),
    ("noise.channels.calls", "count"),
    ("noise.channels.self_s", "s"),
    ("noise.model.self_s", "s"),
    ("pauli.walsh.calls", "count"),
    ("pauli.walsh.self_s", "s"),
    ("clifford.inverse.calls", "count"),
    ("clifford.inverse.self_s", "s"),
    ("clifford.conjugate.calls", "count"),
    ("clifford.conjugate.self_s", "s"),
    ("circuits.cliffordize.calls", "count"),
    ("circuits.cliffordize.self_s", "s"),
    ("circuits.sample.self_s", "s"),
    ("estimators.dfe.self_s", "s"),
    ("estimators.reference.self_s", "s"),
    ("estimators.readout.self_s", "s"),
    ("estimators.layer_fit.self_s", "s"),
    ("estimators.paulis", "count"),
    ("estimators.failures", "count"),
    ("dense.statevector.calls", "count"),
    ("dense.statevector.self_s", "s"),
    ("dense.statevector.shots", "count"),
    ("dense.layer_applies", "count"),
    ("dense.ideal_probs.self_s", "s"),
    ("dense.ptm.calls", "count"),
    ("dense.ptm.self_s", "s"),
    ("dense.diamond.self_s", "s"),
    ("sdp.solve.calls", "count"),
    ("sdp.solve.self_s", "s"),
    ("sdp.iterations", "count"),
    ("sdp.gap_max", "1"),
    ("scenarios.self_s", "s"),
    ("figures.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# span groups whose combined self time is the DFE and fold work of a run
DFE_AND_FOLD = ("estimators.", "clifford.", "pauli.", "noise.fold")


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced run (all but trace.overhead_s), plus
    the times of every span name for the run's breakdown."""
    spans = tracer.by_name()
    failures = tracer.failures("estimators.")
    values = {}
    for metric, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            values[metric] = spans.get(layer, {}).get("self_s", 0.0)
        elif field == "calls":
            values[metric] = spans.get(layer, {}).get("calls", 0)
        elif metric == "estimators.failures":
            values[metric] = sum(failures.values())
        elif metric == "sdp.gap_max":
            values[metric] = tracer.maxima.get(metric, 0.0)
        elif metric != "trace.overhead_s":
            values[metric] = tracer.counters.get(metric, 0)
    return {
        "metrics": values,
        "spans": spans,
        "failures_by_type": dict(failures),
        "missing_hooks": tracer.missing,
    }
