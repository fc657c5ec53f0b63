"""Exact small-n channel mathematics: transfer matrices, process fidelity,
Choi matrices, diamond distance, and statevector sampling.

Transfer matrices ("Ptm") are real 4^n x 4^n in the normalised Pauli basis,
ordered lexicographically in (I, X, Y, Z) per qubit with qubit 0 slowest,
matching the label order of :mod:`cliffproxy.pauli`; entries are
Tr(P_i E(P_j)) / 2^n.  With that normalisation the diagonal of a Pauli
channel's transfer matrix is exactly the Walsh transform of its
probability vector.

A circuit's transfer matrix is built gate by gate: each gate's 4 x 4 or
16 x 16 noisy transfer matrix acts on the row axes of the running matrix
through the same appliers the statevector sampler uses, with one-qubit
errors at the X90 pulses inside the five-pulse form, where the sampler
also puts them.

Computational-basis integers put qubit 0 on the most significant bit.
Dense transfer matrices are capped at n <= 4 and the diamond-norm SDP at
n <= 3 (one n = 3 solve takes tens of seconds); statevector simulation
runs to n <= 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import sdp
from .circuits import (
    EulerGate1Q,
    LayeredCircuit,
    OneQubitLayer,
    gate_unitary,
)
from .clifford import RX90 as _RX90, _rz, one_qubit_cliffords
from .noise import NoiseModel, SpamModel, _local_pauli
from .pauli import PauliString

__all__ = [
    "Ptm",
    "ChoiMatrix",
    "PTM_LIMIT",
    "DIAMOND_LIMIT",
    "STATEVECTOR_LIMIT",
    "ptm_of_unitary",
    "circuit_ptm",
    "process_fidelity",
    "choi_of_ptm",
    "diamond_distance",
    "apply_circuit",
    "apply_pauli",
    "statevector_simulate",
    "ideal_output_probs",
]

PTM_LIMIT = 4
DIAMOND_LIMIT = 3
STATEVECTOR_LIMIT = 14
# amplitudes the statevector sampler holds at once (2^20 complex = 16 MB)
_CHUNK_AMPLITUDES = 2**20


@dataclass(frozen=True, eq=False)
class Ptm:
    """Real transfer matrix of an n-qubit channel in the Pauli basis."""

    n: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (4**self.n, 4**self.n):
            raise ValueError(f"expected {4 ** self.n} x {4 ** self.n} matrix")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix (output factor first); trace 2^n for CPTP maps."""

    n: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (4**self.n, 4**self.n):
            raise ValueError(f"expected {4 ** self.n} x {4 ** self.n} matrix")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("Choi matrix must be Hermitian")
        object.__setattr__(self, "mat", m)


@lru_cache(maxsize=8)
def _pauli_stack(n: int) -> np.ndarray:
    """All 4^n Pauli matrices stacked in label order."""
    singles = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    stack = np.array([[[1.0]]], dtype=complex)
    for _ in range(n):
        stack = np.einsum("kab,lcd->klacbd", stack, np.array(singles)).reshape(
            -1, stack.shape[1] * 2, stack.shape[1] * 2
        )
    return stack


def apply_1q(state: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply ``u`` to one qubit's axis of ``state``: a 2 x 2 unitary to a
    statevector, or a 4 x 4 transfer matrix to transfer-matrix rows."""
    d = len(u)
    t = state.reshape(d**qubit, d, -1)
    return np.einsum("ab,ibj->iaj", u, t).reshape(state.shape)


def apply_2q(state: np.ndarray, u4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Apply ``u4`` to the axes of qubits (a, b), ``a`` the high digit: a
    4 x 4 unitary to a statevector, or a 16 x 16 transfer matrix to
    transfer-matrix rows."""
    d = 2 if len(u4) == 4 else 4
    t = state.reshape((d,) * n + state.shape[1:])
    t = np.moveaxis(t, (a, b), (0, 1))
    rest = t.shape[2:]
    t = t.reshape(d * d, -1)
    t = (u4 @ t).reshape((d, d) + rest)
    t = np.moveaxis(t, (0, 1), (a, b))
    return t.reshape(state.shape)


def _parity(values: np.ndarray, mask: int) -> np.ndarray:
    v = (values & np.int64(mask)).astype(np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(np.int64)


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    """Apply a signed Pauli to a statevector (qubit 0 = msb); trailing axes
    of ``state`` are batch axes."""
    return _apply_pauli_masks(state, *_pauli_masks(p))


def _pauli_masks(p: PauliString) -> tuple[int, int, complex]:
    """X and Z bit masks (qubit 0 = msb) and phase of a signed Pauli."""
    n = p.n
    xmask = zmask = 0
    n_y = 0
    for q in range(n):
        bitpos = n - 1 - q
        code = p.code(q)
        if code in (1, 2):
            xmask |= 1 << bitpos
        if code in (2, 3):
            zmask |= 1 << bitpos
        if code == 2:
            n_y += 1
    return xmask, zmask, p.phase * (-1j) ** n_y


def _apply_pauli_masks(state: np.ndarray, xmask: int, zmask: int, phase: complex) -> np.ndarray:
    idx = np.arange(len(state), dtype=np.int64)
    out = state[idx ^ xmask]
    signs = 1.0 - 2.0 * _parity(idx, zmask)
    out *= signs.reshape((-1,) + (1,) * (state.ndim - 1))
    out *= phase
    return out


def apply_circuit(state: np.ndarray, circuit: LayeredCircuit) -> np.ndarray:
    """Noiseless application of all circuit layers."""
    for layer in circuit.layers:
        state = apply_circuit_layer(state, layer, circuit.n)
    return state


@lru_cache(maxsize=4)
def _entangler_unitary(gate: str) -> np.ndarray:
    if gate == "CZ":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if gate == "CNOT":
        m = np.eye(4, dtype=complex)
        m[[2, 3]] = m[[3, 2]]
        return m
    raise ValueError(f"unsupported entangling gate {gate!r}")


def ptm_of_unitary(u: np.ndarray, n: int) -> Ptm:
    if n > PTM_LIMIT:
        raise ValueError(f"dense transfer matrices capped at n={PTM_LIMIT}")
    stack = _pauli_stack(n)
    conj = u @ stack @ u.conj().T
    mat = np.real(np.einsum("iab,kba->ik", stack, conj, optimize=True)) / 2**n
    return Ptm(n, mat)


def apply_circuit_layer(state: np.ndarray, layer, n: int) -> np.ndarray:
    if isinstance(layer, OneQubitLayer):
        for q, gate in enumerate(layer.gates):
            state = apply_1q(state, gate_unitary(gate), q, n)
    else:
        u4 = _entangler_unitary(layer.gate)
        for a, b in layer.pairs:
            state = apply_2q(state, u4, a, b, n)
    return state


def _spam_eigenvalues(n: int, factors: list[float]) -> np.ndarray:
    """Transfer-matrix diagonal of a tensor product of X-flip channels."""
    eig = np.ones(4**n)
    labels = np.arange(4**n)
    for q, f in enumerate(factors):
        codes = (labels >> (2 * (n - 1 - q))) & 3
        eig *= np.where((codes == 2) | (codes == 3), f, 1.0)
    return eig


# X90 transfer matrix (X -> X, Y -> Z, Z -> -Y) as exact integers, so that
# noiseless products keep an exact (1, 0, ..., 0) first row
_X90_PTM = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
)


def _rz_ptm(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])


@lru_cache(maxsize=4)
def _entangler_ptm(gate: str) -> np.ndarray:
    return ptm_of_unitary(_entangler_unitary(gate), 2).mat


def _gate_ptm_1q(gate, eig: np.ndarray | None) -> np.ndarray:
    """Z(phi1) D X90 Z(phi2) D X90 Z(phi3), phi3 acting first, where D is
    the X90 pulses' error diagonal ``eig`` (the identity when None)."""
    if isinstance(gate, EulerGate1Q):
        phi1, phi2, phi3 = gate.angles
    else:
        phi1, phi2, phi3 = one_qubit_cliffords()[gate.index].euler
    pulse = _X90_PTM if eig is None else eig[:, None] * _X90_PTM
    return _rz_ptm(phi1) @ pulse @ _rz_ptm(phi2) @ pulse @ _rz_ptm(phi3)


def circuit_ptm(
    circuit: LayeredCircuit,
    noise: NoiseModel | None = None,
    spam: SpamModel | None = None,
    layer_offset: int = 0,
) -> Ptm:
    """Transfer matrix of the (optionally noisy) circuit, n <= 4.

    Built gate by gate: each one-qubit gate's five-pulse product with its
    X90 error diagonal after both pulses, each two-qubit gate followed by
    its 16-entry error diagonal, applied to the rows in the pair's listed
    order.  SPAM appears as boundary bit-flip channels.
    """
    n = circuit.n
    if n > PTM_LIMIT:
        raise ValueError(f"dense transfer matrices capped at n={PTM_LIMIT}")
    mat = np.eye(4**n)
    if spam is not None:
        mat = mat * _spam_eigenvalues(n, [spam.prep_factor(q) for q in range(n)])[None, :]
    for i, layer in enumerate(circuit.layers):
        pos = i + layer_offset
        if isinstance(layer, OneQubitLayer):
            for q, gate in enumerate(layer.gates):
                eig = None if noise is None else noise.xpi2_noise(pos, q).eigenvalues
                mat = apply_1q(mat, _gate_ptm_1q(gate, eig), q, n)
        else:
            ideal = _entangler_ptm(layer.gate)
            for a, b in layer.pairs:
                g = ideal
                if noise is not None:
                    g = noise.twoq_noise(pos, layer.gate, (a, b)).eigenvalues[:, None] * ideal
                mat = apply_2q(mat, g, a, b, n)
    if spam is not None:
        mat = _spam_eigenvalues(n, [spam.meas_factor(q) for q in range(n)])[:, None] * mat
    return Ptm(n, mat)


def process_fidelity(ideal: Ptm, noisy: Ptm) -> float:
    """Tr(ideal^T noisy) / 4^n."""
    if ideal.n != noisy.n:
        raise ValueError(f"size mismatch: {ideal.n} vs {noisy.n}")
    return float(np.trace(ideal.mat.T @ noisy.mat)) / 4**ideal.n


def choi_of_ptm(ptm: Ptm) -> ChoiMatrix:
    """Choi matrix (output factor first) of a transfer matrix."""
    n = ptm.n
    dim = 2**n
    stack = _pauli_stack(n)
    # E(e_ij) expanded over the Pauli basis, then J = sum_l P_l (x) T_l^T
    t = np.einsum("lk,kji->lji", ptm.mat, stack) / dim
    j = np.einsum("lab,lji->aibj", stack.astype(complex), t).reshape(dim * dim, dim * dim)
    # aibj ordering: rows (a, i), cols (b, j) with the output index first
    return ChoiMatrix(n, j)


def diamond_distance(
    ideal: Ptm,
    noisy: Ptm,
    gap_tol: float = 1e-9,
    gap_required: float = 1e-8,
) -> sdp.DiamondResult:
    """Half diamond-norm distance between two channels via the SDP.

    Exact for n <= 2 in well under a second; n = 3 is supported but takes
    tens of seconds per call because the Newton systems are dense in
    4^3-dimensional Hermitian space.
    """
    if ideal.n != noisy.n:
        raise ValueError(f"size mismatch: {ideal.n} vs {noisy.n}")
    if ideal.n > DIAMOND_LIMIT:
        raise ValueError(f"diamond-norm SDP capped at n={DIAMOND_LIMIT}")
    delta = choi_of_ptm(noisy).mat - choi_of_ptm(ideal).mat
    return sdp.solve_diamond_sdp(
        delta, 2**ideal.n, gap_tol=gap_tol, gap_required=gap_required
    )


# ---------------------------------------------------------------------------
# statevector simulation
# ---------------------------------------------------------------------------


def _zero_state(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = 1.0
    return v


def ideal_output_probs(circuit: LayeredCircuit) -> np.ndarray:
    """Exact |amplitude|^2 vector of the noiseless circuit on |0...0>."""
    if circuit.n > STATEVECTOR_LIMIT:
        raise ValueError(f"statevector simulation capped at n={STATEVECTOR_LIMIT}")
    amps = apply_circuit(_zero_state(circuit.n), circuit)
    return np.abs(amps) ** 2


def statevector_simulate(
    circuit: LayeredCircuit,
    noise: NoiseModel | None,
    rng: np.random.Generator,
    shots: int,
    spam: SpamModel | None = None,
    layer_offset: int = 0,
) -> np.ndarray:
    """Sample measured bitstrings from the noisy circuit.

    Each shot draws one Pauli fault per layer (Monte Carlo unravelling of
    the stochastic layer errors) plus SPAM bit flips.  Each draw takes the
    uniforms ``rng.choice`` would and keeps only its hits, the shots with a
    non-identity label; a shot's fault pattern is its ((draw, label), ...)
    hits in draw order.  Shots sharing a pattern share one column of a
    (2^n, patterns) amplitude array that runs through the circuit in a
    single pass, in sorted pattern order (fault-free first); patterns are
    taken in chunks of at most ``_CHUNK_AMPLITUDES`` amplitudes.  Output
    samples read one block of ``shots`` uniforms, sliced in pattern order,
    so the generator's stream is that of one ``choice`` per draw and per
    pattern.  Returns integers with qubit 0 on the most significant bit.
    """
    n = circuit.n
    if n > STATEVECTOR_LIMIT:
        raise ValueError(f"statevector simulation capped at n={STATEVECTOR_LIMIT}")
    if shots < 1:
        raise ValueError("need at least one shot")

    # draw local fault labels for all shots, keeping each draw's hits (the
    # shots with a label > 0); each draw is (layer index, qubits, pulse):
    # prep flips enter as X faults before the first layer (index -1); faults
    # on Euler gates sit at their X90 pulse (0 or 1) inside the gate, faults
    # on Clifford gates use the exactly-equivalent compiled channel after it
    draws: list[tuple] = []
    hits: list[tuple] = []

    def draw(p, *entry):
        draws.append(entry)
        hits.append(_choice_hits(rng, p, shots))

    if spam is not None:
        for q in range(n):
            p = spam.prep[q]
            if p > 0.0:
                draw([1.0 - p, p, 0.0, 0.0], -1, (q,), None)
    if noise is not None:
        for li, layer in enumerate(circuit.layers):
            pos = li + layer_offset
            if isinstance(layer, OneQubitLayer):
                for q, gate in enumerate(layer.gates):
                    if isinstance(gate, EulerGate1Q):
                        eps = noise.xpi2_noise(pos, q).probs
                        if eps[0] >= 1.0:
                            continue
                        for pulse in (0, 1):
                            draw(eps, li, (q,), pulse)
                    else:
                        probs = noise.compiled_1q_channel(pos, q, gate)
                        if probs[0] >= 1.0:
                            continue
                        draw(probs, li, (q,), None)
            else:
                for pair in layer.pairs:
                    probs = noise.twoq_noise(pos, layer.gate, pair).probs
                    if probs[0] >= 1.0:
                        continue
                    draw(probs, li, tuple(pair), None)

    # a faulted shot's pattern key is its ((draw, label), ...) hits in draw
    # order; patterns run in sorted key order, the fault-free () first
    shot = np.concatenate([h[0] for h in hits] + [np.zeros(0, np.intp)])
    label = np.concatenate([h[1] for h in hits] + [np.zeros(0, np.intp)])
    index = np.repeat(np.arange(len(hits)), [len(h[0]) for h in hits])
    order = np.lexsort((index, shot))
    faulted, starts = np.unique(shot[order], return_index=True)
    pairs = list(zip(index[order].tolist(), label[order].tolist()))
    bounds = starts.tolist() + [len(pairs)]
    patterns = {(): np.setdiff1d(np.arange(shots), faulted).tolist()}
    for s, a, b in zip(faulted.tolist(), bounds, bounds[1:]):
        patterns.setdefault(tuple(pairs[a:b]), []).append(s)
    keys = sorted(key for key, ids in patterns.items() if ids)
    groups = [patterns[key] for key in keys]
    all_faults = np.zeros((len(keys), len(draws)), dtype=np.uint8)
    for g, key in enumerate(keys):
        all_faults[g, [di for di, _ in key]] = [lab for _, lab in key]
    # each distinct (draw, label) fault of the patterns, built once
    masks: dict[int, list] = {}
    for di, lab in sorted({hit for key in keys for hit in key}):
        masks.setdefault(di, []).append((lab, _pauli_masks(_local_pauli(n, draws[di][1], lab))))

    after: dict[int, list[int]] = {}
    pulses: dict[tuple[int, int], list[int]] = {}
    for di, (li, qubits, pulse) in enumerate(draws):
        if pulse is None:
            after.setdefault(li, []).append(di)
        else:
            pulses.setdefault((li, qubits[0]), []).append(di)
    unitaries = {
        li: [gate_unitary(g) for g in layer.gates]
        for li, layer in enumerate(circuit.layers)
        if isinstance(layer, OneQubitLayer)
    }
    pulse_rz = {
        (li, q): [_rz(phi) for phi in reversed(circuit.layers[li].gates[q].angles)]
        for li, q in pulses
    }

    # the patterns' output samples read consecutive slices of one block
    ends = np.cumsum([len(ids) for ids in groups])
    uniforms = np.split(rng.random(shots), ends[:-1])
    results = np.zeros(shots, dtype=np.int64)
    width = max(1, _CHUNK_AMPLITUDES // 2**n)
    for start in range(0, len(groups), width):
        chunk = groups[start : start + width]
        faults = all_faults[start : start + width]
        state = np.zeros((2**n, len(chunk)), dtype=complex)
        state[0] = 1.0
        _apply_faults(state, after.get(-1, ()), faults, masks)
        for li, layer in enumerate(circuit.layers):
            if isinstance(layer, OneQubitLayer):
                for q, u in enumerate(unitaries[li]):
                    pair = pulses.get((li, q), [])
                    hit = np.nonzero(faults[:, pair].any(axis=1))[0]
                    if len(hit):
                        # Z(phi3), X90, fault 0, Z(phi2), X90, fault 1, Z(phi1)
                        rz3, rz2, rz1 = pulse_rz[li, q]
                        sub = apply_1q(state[:, hit], rz3, q, n)
                        for di, rz in zip(pair, (rz2, rz1)):
                            sub = apply_1q(sub, _RX90, q, n)
                            _apply_faults(sub, (di,), faults[hit], masks)
                            sub = apply_1q(sub, rz, q, n)
                    state = apply_1q(state, u, q, n)
                    if len(hit):
                        state[:, hit] = sub
            else:
                state = apply_circuit_layer(state, layer, n)
            _apply_faults(state, after.get(li, ()), faults, masks)
        probs = np.abs(state) ** 2
        for j, (ids, block) in enumerate(zip(chunk, uniforms[start : start + width])):
            total = probs[:, j].sum()
            if not (np.isfinite(total) and total > 0.0):
                raise ValueError(f"output probabilities sum to {total}")
            results[ids] = _cdf(probs[:, j] / total).searchsorted(block, side="right")

    if spam is not None:
        results = _apply_meas_flips(results, spam, rng)
    return results


def _cdf(p) -> np.ndarray:
    """Cumulative distribution of ``p``, normalised as ``Generator.choice`` does."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def _choice_hits(rng: np.random.Generator, p, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Shots and labels of ``rng.choice(len(p), size=shots, p=p)`` whose label
    is not 0, from the same uniforms, leaving the generator in the same state."""
    cdf = _cdf(p)
    u = rng.random(shots)
    hit = np.nonzero(u >= cdf[0])[0]
    return hit, cdf.searchsorted(u[hit], side="right")


def _apply_faults(state, indices, faults, masks) -> None:
    """Apply the faults of draws ``indices``, in order and in place, each to
    the columns of ``state`` whose row of ``faults`` carries its label;
    ``masks`` lists each draw's labels with their :func:`_pauli_masks`."""
    for di in indices:
        column = faults[:, di]
        if di not in masks or not column.any():
            continue
        for lab, fault in masks[di]:
            hit = np.nonzero(column == lab)[0]
            if len(hit):
                state[:, hit] = _apply_pauli_masks(state[:, hit], *fault)


def _apply_meas_flips(
    results: np.ndarray, spam: SpamModel, rng: np.random.Generator
) -> np.ndarray:
    n = spam.n
    out = results.copy()
    for q in range(n):
        bitpos = n - 1 - q
        bits = (out >> bitpos) & 1
        p0 = spam.meas0[q]
        p1 = spam.meas1[q]
        flips = np.where(bits == 0, rng.random(len(out)) < p0, rng.random(len(out)) < p1)
        out = out ^ (flips.astype(np.int64) << bitpos)
    return out
