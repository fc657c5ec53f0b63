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

Each qubit's X90 entry is compiled once, in one step for all gates: its
faults are relabelled through :func:`cliffproxy.clifford.pulse_fault_codes`
and convolved into a probability table with one row per Clifford index
plus the Euler stand-in (:meth:`NoiseModel.compiled_1q_channel` reads a
row), and a (24, 4) eigenvalue table over all Clifford indices
(:meth:`NoiseModel.compiled_1q_eigenvalues`).  Two-qubit gate entries
carry a 16-entry vector (:attr:`GateNoise.eigenvalues`).
Conjugation through a layer maps per-qubit letter codes (a 4-entry map
per one-qubit Clifford, a 16-entry map per CZ or CNOT pair).  The exact
fold (:func:`process_infidelities_exact`) applies these maps and tables to
a ``(K,) + (4,) * n`` Walsh-domain array of K circuits sharing their
entangling layers, in one step per gate of each entangling layer: a
step's map and eigenvalue rows are composed from the gate's and from the
one-qubit layer before it (in the last entangling layer also the final
one-qubit layer), and qubits the layer leaves idle step with their
composed one-qubit rows.  The array keeps its axes throughout: a gate on
its leading axes is one gather, any other one batched product with the
gate's scaled permutation matrix.  Direct fidelity estimation walks single
Paulis back through the same tables, read as Python lists that each noise
model builds once per layer (:func:`propagate_codes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import clifford as cl
from .circuits import (
    CliffordGate1Q,
    LayeredCircuit,
    OneQubitLayer,
    TwoQubitLayer,
    _draw_cliffords,
)
from .pauli import CODE_FROM_XZ, WALSH_KERNEL_1Q, XZ_FROM_CODE, PauliChannel, PauliString, pauli_walsh

__all__ = [
    "GateNoise",
    "NoiseModel",
    "NoiseBudget",
    "SpamModel",
    "FoldSizeError",
    "sample_error_model",
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


# bit shift of each qubit's letter in a label on one or two qubits
_SHIFTS = {1: np.array([[0]]), 2: np.array([[2], [0]])}
# the letters (w, 4^w) of each label on one or two qubits
_DIGITS = {w: (np.arange(4**w) >> shifts) & 3 for w, shifts in _SHIFTS.items()}
# a two-qubit label with its two letters swapped
_SWAP = (np.arange(16) & 3) << 2 | np.arange(16) >> 2


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
        if not np.isfinite(p).all():
            raise ValueError("local probabilities must be finite")
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


def _compile_1q(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One qubit's X90 faults pushed to the end of each one-qubit gate.

    Returns the (25, 4) probability table of the product of the two pushed
    faults, rows 0-23 for the Clifford indices and row 24 for the Euler
    stand-in (faults not pushed), and the (24, 4) eigenvalue table of the
    Clifford rows.  Both are read-only.
    """
    codes = cl.pulse_fault_codes()
    first = np.vstack([eps[codes[0]], eps])
    second = np.vstack([eps[codes[1]], eps])
    probs = np.zeros((25, 4))
    # entry k sums first[i] * second[j] over the letters i, in code order,
    # with j the letter that i multiplies to k
    for i in range(4):
        probs += first[:, i, None] * second[:, _CODE_XOR[i]]
    # row by row, as pauli_walsh does: a batched product sums in another
    # order, off by an ulp
    eig = np.array([np.dot(WALSH_KERNEL_1Q, row.reshape(4, 1)).reshape(4) for row in probs[:24]])
    probs.setflags(write=False)
    eig.setflags(write=False)
    return probs, eig


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
        # (position or -1, qubit) -> compiled tables of _compile_1q
        self._1q: dict = {}
        # (position or -1, n) -> eigenvalue tables of qubits 0..n-1 stacked
        self._1q_layers: dict = {}
        # (position or -1, n or entangling layer) -> lists of _walk_table
        self._walk: dict = {}

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

    def _compiled_1q(self, position: int, qubit: int) -> tuple:
        key = (-1 if self.markovian else position, qubit)
        hit = self._1q.get(key)
        if hit is None:
            hit = self._1q[key] = _compile_1q(self.xpi2_noise(position, qubit).probs)
        return hit

    def compiled_1q_channel(self, position: int, qubit: int, gate) -> np.ndarray:
        """Pauli channel after a one-qubit gate: both X90 faults pushed to
        the end of the gate.  Exact for Clifford gates; for Euler gates this
        drops the non-Pauli part of the pushed faults (the exact treatment
        lives in the dense simulation paths)."""
        row = gate.index if isinstance(gate, CliffordGate1Q) else 24
        return self._compiled_1q(position, qubit)[0][row]

    def compiled_1q_eigenvalues(self, position: int, qubit: int) -> np.ndarray:
        """(24, 4) table: transfer-matrix diagonal of the compiled channel
        after each one-qubit Clifford index on ``qubit``."""
        return self._compiled_1q(position, qubit)[1]

    def _compiled_1q_layer(self, position: int, n: int) -> np.ndarray:
        """(n, 24, 4) table: :meth:`compiled_1q_eigenvalues` of qubits
        0..n-1 stacked, so a layer's rows come out in one indexing step."""
        key = (-1 if self.markovian else position, n)
        hit = self._1q_layers.get(key)
        if hit is None:
            hit = np.stack([self.compiled_1q_eigenvalues(position, q) for q in range(n)])
            hit.setflags(write=False)
            self._1q_layers[key] = hit
        return hit

    def _walk_table(self, position: int, layer, n: int) -> list:
        """Eigenvalues the Pauli walk reads at one layer of an n-qubit
        circuit, as Python lists: for a one-qubit layer, the (n, 24, 4)
        table of :meth:`_compiled_1q_layer`; for an entangling layer, the
        16-entry :attr:`GateNoise.eigenvalues` of each pair in turn."""
        one_qubit = isinstance(layer, OneQubitLayer)
        key = (-1 if self.markovian else position, n if one_qubit else layer)
        hit = self._walk.get(key)
        if hit is None:
            if one_qubit:
                hit = self._compiled_1q_layer(position, n).tolist()
            else:
                hit = [
                    self.twoq_noise(position, layer.gate, pair).eigenvalues.tolist()
                    for pair in layer.pairs
                ]
            self._walk[key] = hit
        return hit


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


@lru_cache(maxsize=None)
def _pair_digits(gate: str, swapped: bool) -> np.ndarray:
    """The letters (2, 16) of the image of each label under
    :func:`cliffproxy.clifford.twoq_conjugation_codes`, with both sides'
    letters swapped if ``swapped``: the map of a pair listed high qubit
    first, on its qubits in ascending order."""
    codes = cl.twoq_conjugation_codes(gate)
    digits = _DIGITS[2][:, _SWAP[codes[_SWAP]] if swapped else codes]
    digits.setflags(write=False)
    return digits


def _one_qubit_rows(qubits, layer, digits):
    """Labels before a one-qubit layer, and the products of its
    eigenvalues, for G gates on ``qubits`` (G, w) whose labels after it
    carry the letters ``digits`` (w, L): both (G, K, L).  ``layer`` is the
    layer's (n, K) Clifford indices and its (n, 24, 4) eigenvalue table."""
    gates, table = layer
    at = gates[qubits], np.arange(len(digits))[:, None]
    shifted = (cl.inverse_conjugation_codes()[:, digits] << _SHIFTS[len(digits)])[at]
    eig = table[:, :, digits][(qubits[..., None],) + at]
    if len(digits) == 1:
        return shifted[:, 0], eig[:, 0]
    return shifted[:, 0] | shifted[:, 1], eig[:, 0] * eig[:, 1]


def _fused_tables(qubits, digits, gate_eig, pre, post):
    """Tables of G gates of width w on ``qubits`` (G, w), composed with the
    one-qubit layers around them.

    ``digits`` (w, 4^w) holds the letters of the image of each of a gate's
    labels under its conjugation, and ``gate_eig`` (G, 4^w) the gates'
    eigenvalues, or is None for idle qubits.  ``pre`` and ``post`` are the
    one-qubit layers before and after the gates, as :func:`_one_qubit_rows`
    takes them; ``post`` may be None.
    Returns the mapped labels and the eigenvalue rows, both (G, K, 4^w),
    that :func:`_apply_gate` takes.
    """
    labels, eig = _one_qubit_rows(qubits, pre, digits)
    if gate_eig is not None:
        eig = gate_eig[:, None] * eig
    if post is not None:
        # each output label reads the tables at its label before ``post``
        before, post_eig = _one_qubit_rows(qubits, post, _DIGITS[qubits.shape[1]])
        eig = post_eig * np.take_along_axis(eig, before, axis=-1)
        labels = np.take_along_axis(labels, before, axis=-1)
    return labels, eig


def _apply_gate(h, rows, qubits, labels, eig):
    """``h <- eig * (h o map)`` on the axes of ``qubits`` (ascending) of
    the ``(K,) + (4,) * n`` array ``h``, which keeps its axes.

    ``labels`` (K, 4^w) holds, for each circuit and each of the gate's 4^w
    labels (first qubit the high digit), the mapped label; ``eig`` (K, 4^w)
    the eigenvalue rows.  A gate on the array's leading axes is one gather.
    Any other is one batched product with the (K, 4^w, 4^w) matrix that
    holds each label's eigenvalue at its mapped label and zeros elsewhere:
    one nonzero term per sum, so the product is exact.  A pair on axes
    apart is first moved next to each other, and back after.
    """
    a, b = qubits[0], qubits[-1]
    if b - a > 1:
        moved = np.ascontiguousarray(np.moveaxis(h, 1 + b, 2 + a))
        out = _apply_gate(moved, rows, (a, a + 1), labels, eig)
        return np.ascontiguousarray(np.moveaxis(out, 2 + a, 1 + b))
    k, size = labels.shape
    before = 4**a
    after = h.size // (k * before * size)
    if before == 1:
        out = np.take(h.reshape(k * size, after), labels + rows * size, axis=0)
        out *= eig[..., None]
    else:
        mat = np.zeros((k, size, size))
        mat[rows, np.arange(size), labels] = eig
        if after == 1:
            out = h.reshape(k, before, size) @ mat.transpose(0, 2, 1)
        else:
            out = mat[:, None] @ h.reshape(k, before, size, after)
    return out.reshape(h.shape)


def _fold(template, gates, noise: NoiseModel, layer_offset: int):
    """Transfer-matrix diagonals, shape (K, 4^n), of the folded channels of
    K Clifford circuits: the entangling layers of ``template`` with the
    one-qubit Clifford indices ``gates``, shape (K, one-qubit layers, n).

    Walks the layers forward with ``h <- lambda_i * (h o pi_i)``, where
    pi_i maps a label Q to the label of C_i' Q C_i, in one step per gate of
    each entangling layer (:func:`_apply_gate`) on a ``(K,) + (4,) * n``
    array that keeps its axes.  A step also does the one-qubit layer before
    its gate, and in the last entangling layer the final one-qubit layer
    after it: a pair's 16-entry map and eigenvalue row are composed from
    the gate's and both qubits' one-qubit rows, and a qubit the layer
    leaves idle steps with its composed one-qubit rows alone.  Each layer's
    gates step in order of the deepest axis their qubits would hold if
    every step moved its gate's axes to the front (``order``); the step
    order fixes the order in which each label's eigenvalues multiply, and
    so the last bits of the result.  A circuit without entangling layers
    is one block of idle qubits.
    """
    n = template.n
    k, layers = gates.shape[:2]
    depth = layers - 1
    rows = np.arange(k)[:, None]

    def one_qubit_layer(j):
        table = noise._compiled_1q_layer(2 * j + layer_offset, n)
        return gates[:, j].T.astype(np.intp), table

    h = np.ones((k,) + (4,) * n)
    order = list(range(n))
    for j in range(max(depth, 1)):
        layer = template.layers[2 * j + 1] if depth else TwoQubitLayer(())
        pre = one_qubit_layer(j)
        post = one_qubit_layer(depth) if j == depth - 1 else None
        paired = [q for pair in layer.pairs for q in pair]
        idle = [(q,) for q in range(n) if q not in paired]
        steps = []
        for flip in (False, True):
            # pairs listed high qubit first step with their letters swapped
            group = [pair for pair in layer.pairs if (pair[0] > pair[1]) == flip]
            if not group:
                continue
            twoq = np.array([
                noise.twoq_noise(2 * j + 1 + layer_offset, layer.gate, pair).eigenvalues
                for pair in group
            ])
            qubits = np.array(group)
            if flip:
                qubits, twoq = qubits[:, ::-1], twoq[:, _SWAP]
            digits = _pair_digits(layer.gate, flip)
            steps += zip(group, *_fused_tables(qubits, digits, twoq, pre, post))
        if idle:
            steps += zip(idle, *_fused_tables(np.array(idle), _DIGITS[1], None, pre, post))
        steps.sort(key=lambda step: max(order.index(q) for q in step[0]))
        for qubits, labels, eig in steps:
            h = _apply_gate(h, rows, sorted(qubits), labels, eig)
            order = list(qubits) + [q for q in order if q not in qubits]
    return h.reshape(k, 4**n)


def _infidelities(template, gates, noise: NoiseModel, layer_offset: int):
    """1 - p_I of each fold of :func:`_fold`, over chunks of at most
    ``_FOLD_AMPLITUDES`` amplitudes; circuits fold independently."""
    chunk = max(1, _FOLD_AMPLITUDES // 4**template.n)
    out = np.empty(len(gates))
    for start in range(0, len(gates), chunk):
        eig = _fold(template, gates[start : start + chunk], noise, layer_offset)
        out[start : start + chunk] = 1.0 - eig.mean(axis=1)
    return out


@lru_cache(maxsize=1)
def _walk_maps() -> tuple[list, dict]:
    """The conjugation maps the Pauli walk reads, as lists: per one-qubit
    Clifford index (:func:`cliffproxy.clifford.inverse_conjugation_codes`)
    and per entangling gate."""
    twoq = {gate: cl.twoq_conjugation_codes(gate).tolist() for gate in ("CZ", "CNOT")}
    return cl.inverse_conjugation_codes().tolist(), twoq


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
    inverse_conj, twoq_maps = _walk_maps()
    lam = 1.0
    for i in range(len(circuit.layers) - 1, -1, -1):
        layer = circuit.layers[i]
        table = None if noise is None else noise._walk_table(i + layer_offset, layer, circuit.n)
        layer_eig = 1.0
        if isinstance(layer, OneQubitLayer):
            gates = [gate.index for gate in layer.gates]
            if table is not None:
                for rows, g, c in zip(table, gates, codes):
                    layer_eig *= rows[g][c]
            codes = [inverse_conj[g][c] for g, c in zip(gates, codes)]
        else:
            local_map = twoq_maps[layer.gate]
            for p, (a, b) in enumerate(layer.pairs):
                label = 4 * codes[a] + codes[b]
                if table is not None:
                    layer_eig *= table[p][label]
                codes[a], codes[b] = divmod(local_map[label], 4)
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
    for i, layer in enumerate(circuit.layers):
        pos = i + layer_offset
        p_identity = 1.0
        if isinstance(layer, OneQubitLayer):
            for q, gate in enumerate(layer.gates):
                p_identity *= noise.compiled_1q_channel(pos, q, gate)[0]
        else:
            for pair in layer.pairs:
                p_identity *= noise.twoq_noise(pos, layer.gate, pair).probs[0]
        out.append(1.0 - float(p_identity))
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
