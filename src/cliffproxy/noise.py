"""Pauli-stochastic error models attached to circuit layers.

Every layer of a circuit is followed by one error channel:

* an entangling layer contributes, per two-qubit gate, a 15-rate Pauli
  channel on the gate's pair;
* a one-qubit layer contributes, per qubit, the two 3-rate channels of the
  X90 pulses inside the gate's five-pulse form, pushed through the
  remaining pulse factors of the gate.  For Clifford gates that push is an
  exact Pauli relabelling, so this module's compiled per-gate channel is
  exact wherever it is consumed (folding and fidelity estimation only ever
  see Clifford circuits).  For Euler gates the same compiled Pauli channel
  is a Pauli-stochastic stand-in (the exact pushed channel is a unitary
  mixture); the dense transfer-matrix and statevector paths in
  :mod:`cliffproxy.dense` handle those gates exactly at their pulse
  positions instead.

Idle qubits in entangling layers carry no gate and hence no error.

For Clifford circuits the per-layer channels are read from tables
compiled once per model: a (24, 4) eigenvalue table per qubit over all
Clifford indices (:meth:`NoiseModel.compiled_1q_eigenvalues`) and a
16-entry vector per two-qubit gate entry (:attr:`GateNoise.eigenvalues`).
Conjugation through a layer maps per-qubit letter codes (a 4-entry map
per one-qubit Clifford, a 16-entry map per CZ or CNOT pair).  The exact
fold (:func:`process_infidelities_exact`) applies these maps and tables to
a ``(K,) + (4,) * n`` Walsh-domain array of K circuits sharing their
entangling layers; direct fidelity estimation walks single Paulis back
through the same tables (:func:`propagate_codes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clifford as cl
from .circuits import (
    CliffordGate1Q,
    LayeredCircuit,
    OneQubitLayer,
    TwoQubitLayer,
    _draw_cliffords,
)
from .pauli import CODE_FROM_XZ, XZ_FROM_CODE, PauliChannel, PauliString, pauli_walsh

__all__ = [
    "GateNoise",
    "NoiseModel",
    "NoiseBudget",
    "SpamModel",
    "LayerErrorChannel",
    "FoldSizeError",
    "sample_error_model",
    "layer_channel",
    "fold_to_end",
    "fold_eigenvalues",
    "propagate_codes",
    "process_infidelity_exact",
    "process_infidelities_exact",
    "cliffordization_infidelities",
    "layer_infidelities",
    "noise_to_dict",
    "noise_from_dict",
    "FOLD_LIMIT",
]

FOLD_LIMIT = 10

# amplitude budget of one batched fold chunk (8 MB), at least one circuit
_FOLD_AMPLITUDES = 2**20

# largest total probability fold_to_end may clip away as rounding noise
CLIP_TOLERANCE = 1e-12

# letter-product table on label codes (Klein group: X*Y=Z etc.)
_CODE_XOR = np.array(
    [[CODE_FROM_XZ[(xa ^ xb, za ^ zb)] for xb, zb in XZ_FROM_CODE] for xa, za in XZ_FROM_CODE],
    dtype=np.int64,
)


class FoldSizeError(ValueError):
    """Exact folding was requested above the dense limit; use Monte Carlo."""


@dataclass(frozen=True, eq=False)
class GateNoise:
    """Local Pauli error rates of one gate (identity probability first)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) not in (4, 16):
            raise ValueError("expected 4 or 16 local probabilities")
        if p.min() < -1e-15 or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("invalid local probability vector")
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_rates(cls, rates) -> "GateNoise":
        r = np.asarray(rates, dtype=float)
        if len(r) not in (3, 15):
            raise ValueError("expected 3 or 15 non-identity rates")
        return cls(np.concatenate(([1.0 - r.sum()], r)))

    @classmethod
    def identity(cls, k: int) -> "GateNoise":
        p = np.zeros(4**k)
        p[0] = 1.0
        return cls(p)

    @property
    def total(self) -> float:
        return float(1.0 - self.probs[0])

    @property
    def num_qubits(self) -> int:
        return 1 if len(self.probs) == 4 else 2

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Transfer-matrix diagonal of the gate's channel, computed once."""
        return pauli_walsh(self.probs, self.num_qubits)


def _convolve_local(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Distribution of the product of two independent local faults."""
    k = len(p1)
    out = np.zeros(k)
    for i in range(k):
        for j in range(k):
            if k == 4:
                prod = _CODE_XOR[i, j]
            else:
                prod = (_CODE_XOR[i >> 2, j >> 2] << 2) | _CODE_XOR[i & 3, j & 3]
            out[prod] += p1[i] * p2[j]
    return out


class NoiseModel:
    """Per-gate Pauli error rates for a circuit family.

    Two-qubit entries are keyed by (gate name, sorted pair) and one-qubit
    X90 entries by qubit.  In the Markovian mode the same gate reuses its
    rates at every layer position; otherwise keys carry the layer position
    and every application gets independently sampled rates.
    """

    def __init__(self, markovian: bool, one_qubit: dict, two_qubit: dict):
        self.markovian = markovian
        self.one_qubit = dict(one_qubit)
        self.two_qubit = dict(two_qubit)
        self._compiled: dict = {}
        self._eig_1q: dict = {}

    @staticmethod
    def pair_key(name: str, pair) -> tuple:
        a, b = pair
        if name == "CZ":
            a, b = sorted((a, b))
        return (name, a, b)

    def xpi2_noise(self, position: int, qubit: int) -> GateNoise:
        key = qubit if self.markovian else (position, qubit)
        try:
            return self.one_qubit[key]
        except KeyError:
            raise KeyError(
                f"no one-qubit noise entry for qubit {qubit} at layer {position}"
            ) from None

    def twoq_noise(self, position: int, name: str, pair) -> GateNoise:
        key = self.pair_key(name, pair)
        if not self.markovian:
            key = (position,) + key
        try:
            return self.two_qubit[key]
        except KeyError:
            raise KeyError(
                f"no two-qubit noise entry for {name} on {tuple(pair)} at layer {position}"
            ) from None

    def compiled_1q_channel(self, position: int, qubit: int, gate) -> np.ndarray:
        """Pauli channel after a one-qubit gate: both X90 faults pushed to
        the end of the gate.  Exact for Clifford gates; for Euler gates this
        drops the non-Pauli part of the pushed faults (the exact treatment
        lives in the dense simulation paths)."""
        if isinstance(gate, CliffordGate1Q):
            cache_key = (position if not self.markovian else -1, qubit, gate.index)
        else:
            cache_key = (position if not self.markovian else -1, qubit, "euler")
        hit = self._compiled.get(cache_key)
        if hit is not None:
            return hit
        eps = self.xpi2_noise(position, qubit).probs
        if isinstance(gate, CliffordGate1Q):
            phi1, phi2, _ = cl.one_qubit_cliffords()[gate.index].euler
            tail1 = _zrot_index(phi1)
            mid = cl.clifford_mult(
                cl.clifford_mult(tail1, cl.one_qubit_gate_index("SX")),
                _zrot_index(phi2),
            )
            p_first = _permute_conj(eps, mid)
            p_second = _permute_conj(eps, tail1)
            out = _convolve_local(p_first, p_second)
        else:
            out = _convolve_local(eps, eps)
        self._compiled[cache_key] = out
        return out

    def compiled_1q_eigenvalues(self, position: int, qubit: int) -> np.ndarray:
        """(24, 4) table: transfer-matrix diagonal of the compiled channel
        after each one-qubit Clifford index on ``qubit``."""
        key = (-1 if self.markovian else position, qubit)
        if key not in self._eig_1q:
            self._eig_1q[key] = np.array(
                [
                    pauli_walsh(self.compiled_1q_channel(position, qubit, CliffordGate1Q(g)), 1)
                    for g in range(24)
                ]
            )
        return self._eig_1q[key]


def _zrot_index(phi: float) -> int:
    """Group index of the Z rotation by a multiple of pi/2."""
    quarter = round(phi / (np.pi / 2)) % 4
    if abs(phi - round(phi / (np.pi / 2)) * (np.pi / 2)) > 1e-9:
        raise ValueError(f"angle {phi} is not a multiple of pi/2")
    s = cl.one_qubit_gate_index("S")
    idx = 0
    for _ in range(quarter):
        idx = cl.clifford_mult(idx, s)
    return idx


def _permute_conj(probs: np.ndarray, elem_index: int) -> np.ndarray:
    """Push a local fault distribution through a Clifford: A P A'."""
    elem = cl.one_qubit_cliffords()[elem_index]
    out = np.zeros_like(probs)
    for code in range(4):
        new_code, _ = elem.conj_code(code)
        out[new_code] += probs[code]
    return out


@dataclass(frozen=True)
class NoiseBudget:
    """Sampling budgets for random error models."""

    two_qubit: float = 1e-3
    one_qubit: float = 1e-4
    markovian: bool = True


def sample_error_model(
    circuit: LayeredCircuit,
    rng: np.random.Generator,
    two_q_budget: float = 1e-3,
    one_q_budget: float = 1e-4,
    markovian: bool = True,
) -> NoiseModel:
    """Random error model in the style used for the simulation studies.

    Each gate's total error rate is uniform on [0, budget] and is split
    across the 15 (or 3) non-identity labels by a flat draw on the simplex.
    Every qubit gets an X90 entry and every entangling pair a gate entry.
    """
    for budget in (two_q_budget, one_q_budget):
        if not 0.0 <= budget < 1.0:
            raise ValueError(f"budget {budget} outside [0, 1)")
    model = NoiseModel(markovian, {}, {})
    _draw_missing_entries(model, circuit, rng, two_q_budget, one_q_budget)
    return model


def _draw_missing_entries(
    model: NoiseModel,
    circuit: LayeredCircuit,
    rng: np.random.Generator,
    two_q_budget: float,
    one_q_budget: float,
) -> None:
    """Draw, in layer order, an entry for every gate of ``circuit`` that
    ``model`` has none for; existing entries are kept."""

    def sample_gate(k: int, budget: float) -> GateNoise:
        total = float(rng.uniform(0.0, budget)) if budget > 0 else 0.0
        if total == 0.0:
            return GateNoise.identity(k)
        split = rng.dirichlet(np.ones(4**k - 1))
        return GateNoise.from_rates(total * split)

    for pos, layer in enumerate(circuit.layers):
        if isinstance(layer, OneQubitLayer):
            for q in range(circuit.n):
                key = q if model.markovian else (pos, q)
                if key not in model.one_qubit:
                    model.one_qubit[key] = sample_gate(1, one_q_budget)
        else:
            for pair in layer.pairs:
                key = NoiseModel.pair_key(layer.gate, pair)
                if not model.markovian:
                    key = (pos,) + key
                if key not in model.two_qubit:
                    model.two_qubit[key] = sample_gate(2, two_q_budget)


@dataclass(frozen=True, eq=False)
class LayerErrorChannel:
    """Product of independent local Pauli channels, one per gate in a layer."""

    n: int
    terms: tuple[tuple[tuple[int, ...], np.ndarray], ...]

    @property
    def p_identity(self) -> float:
        out = 1.0
        for _, probs in self.terms:
            out *= probs[0]
        return float(out)

    @property
    def infidelity(self) -> float:
        return 1.0 - self.p_identity

    def local_eigenvalues(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        out = []
        for qubits, probs in self.terms:
            k = len(qubits)
            out.append((qubits, pauli_walsh(probs, k)))
        return tuple(out)

    def dense_eigenvalues(self) -> np.ndarray:
        """Transfer-matrix diagonal over all 4^n labels: the product of the
        local diagonals, each broadcast over its qubits' axes."""
        out = np.ones((4,) * self.n)
        for qubits, eig in self.local_eigenvalues():
            local = eig.reshape((4,) * len(qubits)).transpose(np.argsort(qubits))
            shape = [1] * self.n
            for q in qubits:
                shape[q] = 4
            out *= local.reshape(shape)
        return out.reshape(4**self.n)


def _local_pauli(n: int, qubits, label: int) -> PauliString:
    """n-qubit Pauli, sign +1, with a local label's letters on ``qubits``
    (the first qubit takes the most significant digit)."""
    x = z = 0
    for q in reversed(qubits):
        xq, zq = XZ_FROM_CODE[label & 3]
        label >>= 2
        x |= xq << q
        z |= zq << q
    return PauliString(n, x, z)


def layer_channel(
    circuit: LayeredCircuit,
    layer_index: int,
    noise: NoiseModel,
    layer_offset: int = 0,
) -> LayerErrorChannel:
    """Error channel inserted after one layer of the circuit."""
    layer = circuit.layers[layer_index]
    pos = layer_index + layer_offset
    terms = []
    if isinstance(layer, TwoQubitLayer):
        for pair in layer.pairs:
            probs = noise.twoq_noise(pos, layer.gate, pair).probs
            terms.append((tuple(pair), probs))
    else:
        for q, gate in enumerate(layer.gates):
            probs = noise.compiled_1q_channel(pos, q, gate)
            terms.append(((q,), probs))
    return LayerErrorChannel(circuit.n, tuple(terms))


def _check_width(n: int, limit: int) -> None:
    if n > limit:
        raise FoldSizeError(
            f"exact folding capped at n={limit}; sample faults by Monte Carlo instead"
        )


def _gate_indices(circuits, limit: int):
    """First circuit and the (K, one-qubit layers, n) Clifford indices of
    all K circuits, read one circuit at a time; (None, None) if K = 0."""
    template = None
    rows = []
    for circuit in circuits:
        if template is None:
            template = circuit
            _check_width(circuit.n, limit)
        elif circuit.n != template.n or len(circuit.layers) != len(template.layers):
            raise ValueError("batched folds need circuits of one width and layer count")
        if not circuit.is_clifford:
            raise cl.NotCliffordError("exact folding requires a Clifford-only circuit")
        # layers alternate, one-qubit layers at even positions
        if circuit.layers[1::2] != template.layers[1::2]:
            raise ValueError("batched folds need shared entangling layers")
        rows.append(
            np.array([[g.index for g in layer.gates] for layer in circuit.layers[::2]], dtype=np.int8)
        )
    return template, np.stack(rows) if rows else None


def _gather(h, order, batch, qubits, local_map, eig):
    """``h <- eig * (h o map)`` on the axes of ``qubits``.

    ``local_map`` and ``eig`` hold 4^k entries per circuit (one row per
    circuit, or one shared row) in the label order of ``qubits``.  Array
    indices on the batch axis and the gate's axes put those axes first, so
    the gate's qubits move to axes 1..k; the returned order lists the qubit
    each non-batch axis holds.
    """
    k = len(qubits)
    shape = (-1,) + (4,) * k
    index = [slice(None)] * h.ndim
    index[0] = batch.reshape((-1,) + (1,) * k)
    for j, q in enumerate(qubits):
        index[1 + order.index(q)] = ((local_map >> (2 * (k - 1 - j))) & 3).reshape(shape)
    h = h[tuple(index)]
    h *= eig.reshape(shape + (1,) * (h.ndim - 1 - k))
    return h, list(qubits) + [q for q in order if q not in qubits]


def _fold(template, gates, noise: NoiseModel, layer_offset: int):
    """Transfer-matrix diagonals, shape (K, 4^n), of the folded channels of
    K Clifford circuits: the entangling layers of ``template`` with the
    one-qubit Clifford indices ``gates``, shape (K, one-qubit layers, n).

    Walks the layers forward with ``h <- lambda_i * (h o pi_i)``, where
    pi_i maps a label Q to the label of C_i' Q C_i.
    """
    n = template.n
    batch = np.arange(len(gates))
    inverse_conj = cl.inverse_conjugation_codes()
    h = np.ones((len(gates),) + (4,) * n)
    order = list(range(n))
    for i, layer in enumerate(template.layers):
        pos = i + layer_offset
        if isinstance(layer, OneQubitLayer):
            for q in range(n):
                g = gates[:, i // 2, q]
                eig = noise.compiled_1q_eigenvalues(pos, q)[g]
                h, order = _gather(h, order, batch, (q,), inverse_conj[g], eig)
        else:
            local_map = cl.twoq_conjugation_codes(layer.gate)[None]
            for pair in layer.pairs:
                eig = noise.twoq_noise(pos, layer.gate, pair).eigenvalues[None]
                h, order = _gather(h, order, batch, pair, local_map, eig)
    h = h.transpose([0] + [1 + order.index(q) for q in range(n)])
    return h.reshape(len(gates), 4**n)


def _infidelities(template, gates, noise: NoiseModel, layer_offset: int):
    """1 - p_I of each fold of :func:`_fold`, over chunks of at most
    ``_FOLD_AMPLITUDES`` amplitudes; circuits fold independently."""
    chunk = max(1, _FOLD_AMPLITUDES // 4**template.n)
    out = np.empty(len(gates))
    for start in range(0, len(gates), chunk):
        eig = _fold(template, gates[start : start + chunk], noise, layer_offset)
        out[start : start + chunk] = 1.0 - eig.mean(axis=1)
    return out


def propagate_codes(
    circuit: LayeredCircuit,
    noise: NoiseModel | None,
    codes,
    layer_offset: int = 0,
) -> tuple[float, list[int]]:
    """Walk a Pauli's letter codes back through a Clifford circuit.

    Goes from the last layer to the first.  At each layer the eigenvalue
    of its error channel at the current letters (a product over the
    layer's gates) multiplies into the running value, then the letters
    map through the layer to those of L' P L.  Returns the product, 1.0
    without noise, and the letters of C' P C with the sign dropped.
    """
    codes = list(codes)
    inverse_conj = cl.inverse_conjugation_codes().tolist()
    lam = 1.0
    for i in range(len(circuit.layers) - 1, -1, -1):
        layer = circuit.layers[i]
        pos = i + layer_offset
        layer_eig = 1.0
        if isinstance(layer, OneQubitLayer):
            gates = [gate.index for gate in layer.gates]
            if noise is not None:
                for q, g in enumerate(gates):
                    layer_eig *= noise.compiled_1q_eigenvalues(pos, q)[g, codes[q]]
            codes = [inverse_conj[g][c] for g, c in zip(gates, codes)]
        else:
            local_map = cl.twoq_conjugation_codes(layer.gate)
            for a, b in layer.pairs:
                label = 4 * codes[a] + codes[b]
                if noise is not None:
                    layer_eig *= noise.twoq_noise(pos, layer.gate, (a, b)).eigenvalues[label]
                codes[a], codes[b] = divmod(int(local_map[label]), 4)
        lam *= layer_eig
    return float(lam), codes


def fold_eigenvalues(
    circuit: LayeredCircuit,
    noise: NoiseModel,
    limit: int = FOLD_LIMIT,
    layer_offset: int = 0,
) -> np.ndarray:
    """Transfer-matrix diagonal of the folded end-of-circuit error channel."""
    template, gates = _gate_indices([circuit], limit)
    return _fold(template, gates, noise, layer_offset)[0]


def fold_to_end(
    circuit: LayeredCircuit,
    noise: NoiseModel,
    limit: int = FOLD_LIMIT,
    layer_offset: int = 0,
) -> PauliChannel:
    """Exact end-of-circuit Pauli channel of a noisy Clifford circuit.

    Each layer's error is conjugated through all downstream Clifford layers
    and the distributions are convolved, all in the Walsh domain.  Negative
    probabilities left by rounding are clipped; a clipped mass above
    ``CLIP_TOLERANCE`` raises ValueError instead.
    """
    eig = fold_eigenvalues(circuit, noise, limit, layer_offset)
    probs = pauli_walsh(eig, circuit.n) / 4**circuit.n
    clipped = -probs[probs < 0.0].sum()
    if clipped > CLIP_TOLERANCE:
        raise ValueError(
            f"folded channel has negative probability mass {clipped:.3g}, "
            f"above the rounding bound {CLIP_TOLERANCE:g}"
        )
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return PauliChannel(circuit.n, probs)


def process_infidelity_exact(
    circuit: LayeredCircuit,
    noise: NoiseModel,
    limit: int = FOLD_LIMIT,
    layer_offset: int = 0,
) -> float:
    """1 - p_I of the folded channel (= process infidelity of the circuit)."""
    return float(process_infidelities_exact([circuit], noise, limit, layer_offset)[0])


def process_infidelities_exact(
    circuits,
    noise: NoiseModel,
    limit: int = FOLD_LIMIT,
    layer_offset: int = 0,
) -> np.ndarray:
    """Process infidelities of K Clifford circuits, folded in one pass.

    ``circuits`` is any iterable, a generator included; each circuit is read
    once and not kept.  The circuits must share their width, layer count
    and entangling layers, as the Cliffordizations of one target do;
    mismatched circuits raise ValueError.  The fold runs in chunks of at
    most 2^20 amplitudes (at least one circuit), so memory stays bounded.
    """
    template, gates = _gate_indices(circuits, limit)
    if template is None:
        return np.zeros(0)
    return _infidelities(template, gates, noise, layer_offset)


def cliffordization_infidelities(
    target: LayeredCircuit,
    noise: NoiseModel,
    k: int,
    rng: np.random.Generator,
    limit: int = FOLD_LIMIT,
    layer_offset: int = 0,
) -> np.ndarray:
    """Process infidelities of ``k`` Cliffordizations of ``target``.

    Draws the same Clifford indices from ``rng``, leaving it in the same
    state, as ``k`` calls of ``cliffordize(target, rng)``, and returns the
    values :func:`process_infidelities_exact` gives for those circuits,
    without building them.  Only the target's width and entangling layers
    are read, so its one-qubit gates may be any gates.  A target wider
    than ``limit`` raises FoldSizeError before anything is drawn.
    """
    _check_width(target.n, limit)
    gates = _draw_cliffords(rng, k, len(target.layers[::2]), target.n)
    return _infidelities(target, gates, noise, layer_offset)


def layer_infidelities(
    circuit: LayeredCircuit, noise: NoiseModel, layer_offset: int = 0
) -> list[float]:
    """Per-layer process infidelities 1 - p_I; their sum is the first-order
    estimate of (and an upper bound on the worst-case error of) the circuit."""
    out = []
    for i in range(len(circuit.layers)):
        out.append(layer_channel(circuit, i, noise, layer_offset).infidelity)
    return out


@dataclass(frozen=True)
class SpamModel:
    """Classical bit-flip SPAM: prep flips before the circuit, measurement
    flips on readout (asymmetric 0->1 / 1->0 allowed)."""

    prep: tuple[float, ...]
    meas0: tuple[float, ...]
    meas1: tuple[float, ...]

    def __post_init__(self):
        for name, vals in (("prep", self.prep), ("meas0", self.meas0), ("meas1", self.meas1)):
            for v in vals:
                if not 0.0 <= v < 0.5:
                    raise ValueError(f"{name} probability {v} outside [0, 0.5)")
        if not len(self.prep) == len(self.meas0) == len(self.meas1):
            raise ValueError("per-qubit arrays must have equal length")

    @classmethod
    def uniform(cls, n: int, prep: float, meas: float) -> "SpamModel":
        return cls((prep,) * n, (meas,) * n, (meas,) * n)

    @property
    def n(self) -> int:
        return len(self.prep)

    def prep_factor(self, qubit: int) -> float:
        return 1.0 - 2.0 * self.prep[qubit]

    def meas_factor(self, qubit: int) -> float:
        # Parity estimates are measurement-twirled, which symmetrises the
        # asymmetric flip rates exactly.
        return 1.0 - self.meas0[qubit] - self.meas1[qubit]


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def _label_text(k: int, label: int) -> str:
    return str(PauliString.from_label(k, label))


def noise_to_dict(noise: NoiseModel) -> dict:
    """JSON-ready dict with decimal-string rates for bit-exact replay."""

    def gate_entry(g: GateNoise) -> dict:
        k = g.num_qubits
        return {
            _label_text(k, lab): repr(float(g.probs[lab]))
            for lab in range(1, len(g.probs))
            if g.probs[lab] != 0.0
        }

    def key_str(key) -> str:
        if isinstance(key, tuple):
            return " ".join(str(k) for k in key)
        return str(key)

    return {
        "markovian": noise.markovian,
        "one_qubit": {key_str(k): gate_entry(v) for k, v in noise.one_qubit.items()},
        "two_qubit": {key_str(k): gate_entry(v) for k, v in noise.two_qubit.items()},
    }


def noise_from_dict(data: dict) -> NoiseModel:
    markovian = bool(data["markovian"])

    def parse_gate(entry: dict, k: int) -> GateNoise:
        probs = np.zeros(4**k)
        for text, rate in entry.items():
            probs[PauliString.from_text(text).label] = float(rate)
        probs[0] = 1.0 - probs[1:].sum()
        return GateNoise(probs)

    def parse_key(s: str, one_qubit: bool):
        parts = s.split()
        vals = [int(p) if p.lstrip("-").isdigit() else p for p in parts]
        if len(vals) == 1:
            return vals[0]
        return tuple(vals)

    one_qubit = {
        parse_key(k, True): parse_gate(v, 1) for k, v in data["one_qubit"].items()
    }
    two_qubit = {
        parse_key(k, False): parse_gate(v, 2) for k, v in data["two_qubit"].items()
    }
    return NoiseModel(markovian, one_qubit, two_qubit)
