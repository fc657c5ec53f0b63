"""Benchmarking protocols: direct fidelity estimation and its SPAM-robust
variants, layer-fidelity decay fits, linear cross-entropy, and volumetric
sweeps.

Direct fidelity estimation samples uniform non-identity Paulis, propagates
each backwards through the Clifford circuit, prepares a separable +1
eigenstate of the propagated observable, and measures the original Pauli
at the output.  The mean signed parity estimates the mean of the
transfer-matrix diagonal; the identity diagonal contributes its exact
value 1, so the estimator is

    F = (1 + (4^n - 1) * mean_parity) / 4^n.

Back-propagation walks per-qubit letter codes, split from an integer
label, through step tables compiled once per layer from the noise tables
the exact fold reads (:func:`cliffproxy.noise.propagate_codes`), and
drops signs: the estimate uses only the letters and their support.  A
walk reads a circuit as its entangling layers and one row of one-qubit
Clifford indices per one-qubit layer, so combined randomization draws
each twirl's rows, and builds no circuit.

Shots are simulated exactly: a fault pattern flips the measured parity iff
it anticommutes with the back-propagated observable at its insertion
point, so each (Pauli, twirl) reduces to a Bernoulli parameter assembled
from per-gate channel eigenvalues and SPAM attenuation factors, and the
shot loop collapses to one binomial draw.  Parity estimates are
measurement-twirled, which also makes asymmetric readout flips act at
their symmetrised rate.  Pauli-frame twirls of a fixed Cliffordization
leave that Bernoulli parameter invariant (frames never change Pauli
letters), so twirls of a fixed circuit pool into a single draw; combined
randomization, which resamples the whole Cliffordization per twirl, is
simulated twirl by twirl.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import clifford as cl
from .circuits import (
    BrickworkSpec,
    LayeredCircuit,
    TwoQubitLayer,
    brickwork_pairs,
    cliffordize,
    identity_layer,
    scrambling_circuit,
)
from .noise import (
    FOLD_LIMIT,
    NoiseBudget,
    NoiseModel,
    SpamModel,
    _clifford_indices,
    _draw_missing_entries,
    _walk_codes,
    _walk_tables,
    process_infidelity_exact,
    sample_error_model,
)
from .pauli import sample_nonidentity_label

__all__ = [
    "DfeConfig",
    "FidelityEstimate",
    "VolumetricCell",
    "LayerFidelityResult",
    "ReferenceTooNoisyError",
    "SingularCalibrationError",
    "dfe",
    "dfe_with_reference",
    "readout_mitigated_dfe",
    "layer_fidelity_estimate",
    "xeb",
    "volumetric_run",
    "coefficient_of_variation",
    "polarization_to_fidelity",
    "fidelity_to_polarization",
]


# fewest calibration shots readout_mitigated_dfe accepts per confusion matrix
MIN_CALIB_SHOTS = 100
# readout_mitigated_dfe's floor on a Pauli's divisor, dfe_with_reference's on its reference
READOUT_FLOOR = 0.01


class ReferenceTooNoisyError(ValueError):
    """The SPAM-reference estimate fell below the divisor floor."""


class SingularCalibrationError(ValueError):
    """A confusion matrix or a sampled Pauli's readout divisor is (near-)singular."""


@dataclass(frozen=True)
class DfeConfig:
    """Sampling budget: observables x twirls x shots per twirl."""

    num_paulis: int = 30
    num_twirls: int = 32
    shots_per_twirl: int = 100

    def __post_init__(self):
        for name in ("num_paulis", "num_twirls", "shots_per_twirl"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def shots_per_pauli(self) -> int:
        return self.num_twirls * self.shots_per_twirl


@dataclass(frozen=True)
class FidelityEstimate:
    mean: float
    stderr: float
    num_samples: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError("estimate is not finite")
        if self.stderr < 0:
            raise ValueError("standard error must be non-negative")


def polarization_to_fidelity(p: float, n: int) -> float:
    return p + (1.0 - p) / 4**n


def fidelity_to_polarization(f: float, n: int) -> float:
    dim4 = 4**n
    return (dim4 * f - 1.0) / (dim4 - 1.0)


# ---------------------------------------------------------------------------
# DFE core
# ---------------------------------------------------------------------------


def _walk(layers, gates, tables, spam, codes):
    """Gate-noise eigenvalues along the back-propagated letters times the
    prep (input support) and measurement (output support) attenuation."""
    lam, back = _walk_codes(layers, gates, tables, codes)
    if spam is not None:
        prep, meas = spam.factors
        for factor, code in zip(prep + meas, back + codes):
            if code:
                lam *= factor
    return lam, back


def _draw_parity(expected: float, shots: int, rng: np.random.Generator) -> float:
    # a walk's product of eigenvalues leaves [-1, 1] only by rounding
    if abs(expected) > 1.0 + 1e-12:
        raise RuntimeError(f"expected parity {expected!r} outside [-1, 1]")
    flip_prob = min(max((1.0 - expected) / 2.0, 0.0), 1.0)
    flips = int(rng.binomial(shots, flip_prob))
    return 1.0 - 2.0 * flips / shots


@dataclass
class _PauliSample:
    pauli: str  # the observable's letters, qubit 0 first
    raw: float  # measured parity; its estimate is raw / divisor
    divisor: float = 1.0


def _walked(circuit, target, rng, append=None):
    """The layers a DFE run walks, and the one-qubit Clifford index rows
    of the Clifford ``circuit``, or for a ``target`` a function drawing
    each twirl's rows from ``rng`` as :func:`cliffordize` draws them.  The
    Clifford ``append`` runs after, its first row merged into the last:
    each qubit's gate is the group product, the appended gate applied
    second.  Exactly one of ``circuit`` and ``target`` is given."""
    if (circuit is None) == (target is None):
        raise ValueError("pass exactly one of a circuit and a target")
    body = target if circuit is None else circuit
    layers, tail = body.layers, None
    if append is not None:
        if append.n != body.n:
            raise ValueError(f"size mismatch: {body.n} vs {append.n}")
        layers = layers[:-1] + append.layers
        tail, mult = _clifford_indices(append).tolist(), cl._mult_table().tolist()

    def join(rows):
        if tail is None:
            return rows
        merged = [mult[s][g] for g, s in zip(rows[-1], tail[0])]
        return rows[:-1] + [merged] + tail[1:]

    if target is None:
        return layers, join(_clifford_indices(circuit).tolist())
    # the values and the random stream of _draw_cliffords(rng, 1, layers, n)[0]
    shape = len(target.layers[::2]), target.n
    return layers, lambda: join(rng.integers(24, size=shape).tolist())


def _sample_paulis(
    layers, gates, noise: NoiseModel | None, spam: SpamModel | None,
    config: DfeConfig, rng: np.random.Generator,
) -> list[_PauliSample]:
    """Per-observable parity estimates for all sampled Paulis, walked
    through ``layers`` with the rows ``gates`` of :func:`_walked`: a fixed
    circuit's twirls pool into one binomial draw."""
    n = layers[0].n
    tables = _walk_tables(noise, layers, n)
    out = []
    for _ in range(config.num_paulis):
        label = sample_nonidentity_label(n, rng)
        codes = [label >> 2 * (n - 1 - q) & 3 for q in range(n)]
        if callable(gates):  # combined randomization
            values = []
            for _ in range(config.num_twirls):
                expected, _ = _walk(layers, gates(), tables, spam, codes)
                values.append(_draw_parity(expected, config.shots_per_twirl, rng))
            # the mean of one value is that value, exactly
            value = values[0] if len(values) == 1 else float(np.mean(values))
        else:
            expected, _ = _walk(layers, gates, tables, spam, codes)
            value = _draw_parity(expected, config.shots_per_pauli, rng)
        out.append(_PauliSample("".join("IXYZ"[c] for c in codes), value))
    return out


def _aggregate(
    samples: list[_PauliSample], n: int, config: DfeConfig, metadata: dict
) -> FidelityEstimate:
    dim4 = 4**n
    values = np.array([s.raw / s.divisor for s in samples])
    mean_parity = float(values.mean())
    f_hat = (1.0 + (dim4 - 1) * mean_parity) / dim4
    if len(values) >= 2:
        se_parity = float(values.std(ddof=1)) / math.sqrt(len(values))
    else:
        # single observable: the raw parity's binomial shot error, scaled
        # like the estimate by the mitigation divisor
        (s,) = samples
        se_parity = math.sqrt((1.0 - s.raw**2) / config.shots_per_pauli) / s.divisor
    stderr = (dim4 - 1) / dim4 * se_parity
    meta = dict(metadata)
    meta["paulis"] = tuple(s.pauli for s in samples)
    meta["parities"] = tuple(float(v) for v in values)
    return FidelityEstimate(
        f_hat, stderr, len(values) * config.shots_per_pauli, meta
    )


def _dfe(layers, gates, noise, spam, config, rng) -> FidelityEstimate:
    samples = _sample_paulis(layers, gates, noise, spam, config, rng)
    return _aggregate(samples, layers[0].n, config, {"protocol": "dfe"})


def dfe(
    circuit: LayeredCircuit | None,
    noise: NoiseModel | None,
    spam: SpamModel | None,
    config: DfeConfig,
    rng: np.random.Generator,
    target: LayeredCircuit | None = None,
) -> FidelityEstimate:
    """Direct fidelity estimate of a Clifford circuit under noise and SPAM.

    With ``target`` given, each twirl draws a fresh Cliffordization of the
    target (combined randomization); otherwise ``circuit`` is fixed and the
    Pauli-frame twirls pool into one binomial draw per observable.  Giving
    both or neither raises ValueError.
    """
    return _dfe(*_walked(circuit, target, rng), noise, spam, config, rng)


def dfe_with_reference(
    circuit: LayeredCircuit | None,
    scrambler: LayeredCircuit,
    noise: NoiseModel | None,
    spam: SpamModel | None,
    config: DfeConfig,
    rng: np.random.Generator,
    target: LayeredCircuit | None = None,
) -> FidelityEstimate:
    """SPAM-robust estimate from a scrambled reference experiment.

    Estimates the circuit composed with the scrambler, estimates the
    scrambler alone, and returns the ratio: the SPAM and scrambler error
    contributions cancel to first order.  The reference run reads the
    scrambler's noise entries at the layer positions it occupies inside
    the composed circuit (:meth:`NoiseModel.shifted`), so both runs see
    identical scrambler errors even in the non-Markovian mode.  A reference
    at or below ``READOUT_FLOOR`` raises ``ReferenceTooNoisyError``.
    ``circuit`` and ``target`` are as in :func:`dfe`.
    """
    if not scrambler.is_clifford:
        raise cl.NotCliffordError("the scrambling circuit must be Clifford")
    layers, gates = _walked(circuit, target, rng, scrambler)
    num = _sample_paulis(layers, gates, noise, spam, config, rng)
    offset = len(layers) - len(scrambler.layers)
    shifted = None if noise is None else noise.shifted(offset)
    den = _sample_paulis(*_walked(scrambler, None, rng), shifted, spam, config, rng)
    est_num = _aggregate(num, scrambler.n, config, {"protocol": "dfe_reference_numerator"})
    est_den = _aggregate(den, scrambler.n, config, {"protocol": "dfe_reference_denominator"})
    if est_den.mean <= READOUT_FLOOR:
        raise ReferenceTooNoisyError(
            f"reference fidelity {est_den.mean:.4f} at or below floor {READOUT_FLOOR}"
        )
    ratio = est_num.mean / est_den.mean
    # first-order delta method for the ratio's standard error
    rel = math.sqrt(
        (est_num.stderr / max(abs(est_num.mean), 1e-12)) ** 2
        + (est_den.stderr / est_den.mean) ** 2
    )
    meta = {
        "protocol": "dfe_reference",
        "numerator": est_num.mean,
        "denominator": est_den.mean,
    }
    return FidelityEstimate(
        ratio, abs(ratio) * rel, est_num.num_samples + est_den.num_samples, meta
    )


def readout_mitigated_dfe(
    circuit: LayeredCircuit | None,
    noise: NoiseModel | None,
    spam: SpamModel | None,
    config: DfeConfig,
    calib_shots: int,
    rng: np.random.Generator,
    target: LayeredCircuit | None = None,
) -> FidelityEstimate:
    """DFE with tensored confusion-matrix readout mitigation.

    Per-qubit confusion matrices come from all-zeros / all-ones calibration
    circuits.  Preparation flips are indistinguishable from measurement
    flips in that calibration and end up inside the mitigation divisor;
    the residual bias this causes is part of the per-observable spread.
    A sampled Pauli's divisor, the product of 1 - e0 - e1 over its support,
    at or below ``READOUT_FLOOR`` raises ``SingularCalibrationError``.
    """
    if calib_shots < MIN_CALIB_SHOTS:
        raise ValueError(f"calibration needs at least {MIN_CALIB_SHOTS} shots")
    layers, gates = _walked(circuit, target, rng)
    n = layers[0].n
    divisors = np.ones(n)
    if spam is not None:
        for q in range(n):
            p = spam.prep[q]
            e0_true = p * (1.0 - spam.meas1[q]) + (1.0 - p) * spam.meas0[q]
            e1_true = p * (1.0 - spam.meas0[q]) + (1.0 - p) * spam.meas1[q]
            e0_hat = rng.binomial(calib_shots, e0_true) / calib_shots
            e1_hat = rng.binomial(calib_shots, e1_true) / calib_shots
            divisors[q] = 1.0 - e0_hat - e1_hat
            if divisors[q] <= 1e-6:
                raise SingularCalibrationError(
                    f"qubit {q} confusion matrix singular: e0+e1 = {e0_hat + e1_hat:.3f}"
                )
    samples = _sample_paulis(layers, gates, noise, spam, config, rng)
    for s in samples:
        for q, letter in enumerate(s.pauli):
            if letter != "I":
                s.divisor *= divisors[q]
        if s.divisor <= READOUT_FLOOR:
            raise SingularCalibrationError(f"{s.pauli} divisor {s.divisor:.3g} <= {READOUT_FLOOR}")
    return _aggregate(samples, n, config, {"protocol": "dfe_readout_mitigated"})


# ---------------------------------------------------------------------------
# layer-fidelity decay fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerFidelityResult:
    """Fitted per-layer polarizations and the decay intercepts."""

    n: int
    layers: tuple[TwoQubitLayer, ...]
    polarizations: tuple[float, ...]
    stderrs: tuple[float, ...]
    intercepts: tuple[float, ...]
    dropped_points: int

    def _layer_key(self, layer: TwoQubitLayer) -> tuple:
        return (layer.gate, frozenset(tuple(p) for p in layer.pairs))

    def predict_fidelity(self, circuit: LayeredCircuit) -> FidelityEstimate:
        """Process-fidelity prediction from per-layer polarization powers."""
        keys = {self._layer_key(l): i for i, l in enumerate(self.layers)}
        p_tot = 1.0
        rel_var = 0.0
        for layer in circuit.entangling_layers():
            key = self._layer_key(layer)
            if key not in keys:
                raise ValueError("circuit contains an entangling layer that was not fitted")
            i = keys[key]
            p_tot *= self.polarizations[i]
            rel_var += (self.stderrs[i] / self.polarizations[i]) ** 2
        f = polarization_to_fidelity(p_tot, circuit.n)
        return FidelityEstimate(
            f, abs(p_tot) * math.sqrt(rel_var), 0, {"protocol": "layer_fidelity"}
        )


def layer_fidelity_estimate(
    layers,
    n: int,
    noise: NoiseModel,
    depths,
    config: DfeConfig,
    rng: np.random.Generator,
    spam: SpamModel | None = None,
) -> LayerFidelityResult:
    """Per-layer polarizations from exponential decay fits.

    Each distinct entangling layer is repeated m times (with fresh random
    one-qubit Clifford layers) for every m in ``depths``; the DFE estimates
    are converted to polarizations and fitted to A*p^m by weighted least
    squares on the log scale.  Requires the Markovian noise mode, which is
    what makes the decay a single exponential.
    """
    depths = sorted(int(m) for m in depths)
    if len(set(depths)) < 3:
        raise ValueError(
            f"need at least three depths for a decay fit, got distinct {sorted(set(depths))}"
        )
    if not noise.markovian:
        raise ValueError("layer-fidelity fits assume the Markovian noise mode")
    layers = tuple(layers)
    polarizations = []
    stderrs = []
    intercepts = []
    dropped = 0
    dim4 = 4**n
    for layer in layers:
        unit = LayeredCircuit(n, (identity_layer(n), layer, identity_layer(n))).layers
        xs, ys, ws = [], [], []
        for m in depths:
            # the layer m times between fresh random one-qubit Clifford layers
            gates = rng.integers(24, size=(m + 1, n)).tolist()
            est = _dfe(unit[:1] + unit[1:] * m, gates, noise, spam, config, rng)
            p_hat = fidelity_to_polarization(est.mean, n)
            sigma_p = est.stderr * dim4 / (dim4 - 1)
            if p_hat <= 0.0:
                dropped += 1
                continue
            xs.append(m)
            ys.append(math.log(p_hat))
            ws.append((p_hat / sigma_p) ** 2 if sigma_p > 0 else 1e12)
        if len(xs) < 3 or len(set(xs)) < 2:
            raise ValueError("too few positive decay points to fit")
        x = np.array(xs)
        y = np.array(ys)
        w = np.array(ws)
        sw = w.sum()
        sx = float(w @ x)
        sy = float(w @ y)
        sxx = float(w @ (x * x))
        sxy = float(w @ (x * y))
        det = sw * sxx - sx * sx
        slope = (sw * sxy - sx * sy) / det
        intercept = (sxx * sy - sx * sxy) / det
        var_slope = sw / det
        p = math.exp(slope)
        polarizations.append(p)
        stderrs.append(p * math.sqrt(var_slope))
        intercepts.append(math.exp(intercept))
    return LayerFidelityResult(
        n, layers, tuple(polarizations), tuple(stderrs), tuple(intercepts), dropped
    )


# ---------------------------------------------------------------------------
# linear cross-entropy
# ---------------------------------------------------------------------------


def xeb(p_exp, p_ideal) -> float:
    """Normalised linear cross-entropy between measured and ideal outputs.

    ``p_ideal`` is the exact output distribution.  ``p_exp`` is either a
    probability/frequency vector of the same length or an integer array of
    sampled bitstrings, in which case the overlap term is the sample mean
    of p_ideal at the observed strings (unbiased, no histogram needed).
    """
    p_ideal = np.asarray(p_ideal, dtype=float)
    size = len(p_ideal)
    dim = size
    if abs(p_ideal.sum() - 1.0) > 1e-9:
        raise ValueError("ideal distribution must sum to 1")
    denom = dim * float(p_ideal @ p_ideal) - 1.0
    if abs(denom) < 1e-9:
        raise ValueError("ideal distribution is too flat for the normalisation")
    p_exp = np.asarray(p_exp)
    if p_exp.dtype.kind in "iu":
        if p_exp.min() < 0 or p_exp.max() >= size:
            raise ValueError("bitstring sample out of range")
        overlap = float(p_ideal[p_exp].mean())
    else:
        if p_exp.shape != p_ideal.shape:
            raise ValueError("frequency vector length mismatch")
        overlap = float(p_exp @ p_ideal)
    return (dim * overlap - 1.0) / denom


# ---------------------------------------------------------------------------
# volumetric sweep
# ---------------------------------------------------------------------------


@dataclass
class VolumetricCell:
    width: int
    depth: int
    estimates: dict[str, FidelityEstimate] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


def coefficient_of_variation(samples) -> tuple[float, float, float]:
    """Sample mean, sample standard deviation (n-1), and their ratio."""
    arr = np.asarray(list(samples), dtype=float)
    if len(arr) < 2:
        raise ValueError("need at least two samples")
    mu = float(arr.mean())
    if mu == 0.0:
        raise ValueError("mean is zero; coefficient of variation undefined")
    sigma = float(arr.std(ddof=1))
    return mu, sigma, sigma / mu


def _haar_layout(spec: BrickworkSpec, rng: np.random.Generator) -> LayeredCircuit:
    """``sample_brickwork(spec, "haar", rng)`` with identity one-qubit gates."""
    # every estimator Cliffordizes the sweep's one-qubit gates: their Haar
    # normals are drawn only to keep the random stream, and never converted
    rng.standard_normal(((spec.layer_pairs + 1) * spec.n, 4))
    layers = [identity_layer(spec.n)]
    for d in range(spec.layer_pairs):
        layers += [TwoQubitLayer(brickwork_pairs(spec.n, d, spec.topology)), identity_layer(spec.n)]
    return LayeredCircuit(spec.n, tuple(layers))


def volumetric_run(
    widths,
    depths,
    noise: NoiseBudget,
    spam: tuple[float, float] | None,
    config: DfeConfig,
    rng: np.random.Generator,
    scrambler_depth: int = 4,
    layer_fit_depths=(2, 4, 8, 16),
    calib_shots: int = 1000,
) -> list[VolumetricCell]:
    """Estimate brickwork fidelities over a width x depth grid.

    Each cell runs unmitigated DFE, the scrambled-reference method,
    readout-mitigated DFE (its confusion matrix calibrated with
    ``calib_shots`` shots per calibration circuit), and a layer-fidelity
    prediction; widths inside the exact-folding limit also record the
    exact fidelity.  Estimators failing with a domain error (a ValueError)
    are recorded per cell instead of aborting the sweep; any other
    exception propagates.
    """
    depths = [int(d) for d in depths]
    cells = []
    for n in widths:
        n = int(n)
        spam_model = SpamModel.uniform(n, *spam) if spam is not None else None
        template = _haar_layout(BrickworkSpec(n, max(max(depths), 2)), rng)
        noise_model = sample_error_model(
            template, rng, noise.two_qubit, noise.one_qubit, noise.markovian
        )
        scrambler = scrambling_circuit(n, scrambler_depth, rng)
        if not noise.markovian:
            # the reference estimator runs the scrambler after each target,
            # at layer positions (and brick parities) the template lacks
            for d in dict.fromkeys(depths):
                composed = LayeredCircuit(n, template.layers[: 2 * d] + scrambler.layers)
                _draw_missing_entries(
                    noise_model, composed, rng, noise.two_qubit, noise.one_qubit
                )
        fit_layers = (
            TwoQubitLayer(brickwork_pairs(n, 0)),
            TwoQubitLayer(brickwork_pairs(n, 1)),
        )
        try:
            fit = layer_fidelity_estimate(
                fit_layers, n, noise_model, layer_fit_depths, config, rng, spam=spam_model
            )
        except ValueError as exc:  # recorded per cell below
            fit = None
            fit_error = str(exc)
        for d in depths:
            cell = VolumetricCell(n, d)
            target = _haar_layout(BrickworkSpec(n, d), rng)
            proxy = cliffordize(target, rng)

            def attempt(name, fn):
                try:
                    cell.estimates[name] = fn()
                except ValueError as exc:
                    cell.errors[name] = str(exc)

            attempt(
                "unmitigated",
                lambda: dfe(None, noise_model, spam_model, config, rng, target=target),
            )
            attempt(
                "reference",
                lambda: dfe_with_reference(
                    None, scrambler, noise_model, spam_model, config, rng, target=target
                ),
            )
            attempt(
                "readout",
                lambda: readout_mitigated_dfe(
                    None, noise_model, spam_model, config, calib_shots, rng, target=target
                ),
            )
            if fit is not None:
                attempt("layer_fidelity", lambda: fit.predict_fidelity(proxy))
            else:
                cell.errors["layer_fidelity"] = fit_error
            if n <= FOLD_LIMIT:
                attempt(
                    "exact",
                    lambda: FidelityEstimate(
                        1.0 - process_infidelity_exact(proxy, noise_model),
                        0.0,
                        0,
                        {"protocol": "exact_fold"},
                    ),
                )
            cells.append(cell)
    return cells
