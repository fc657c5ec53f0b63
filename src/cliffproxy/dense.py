"""Exact small-n channel mathematics: transfer matrices, process fidelity,
Choi matrices, diamond distance, and statevector sampling.

Transfer matrices ("Ptm") are real 4^n x 4^n in the normalised Pauli basis,
ordered lexicographically in (I, X, Y, Z) per qubit with qubit 0 slowest,
matching the label order of :mod:`cliffproxy.pauli`; entries are
Tr(P_i E(P_j)) / 2^n.  With that normalisation the diagonal of a Pauli
channel's transfer matrix is exactly the Walsh transform of its
probability vector.

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
from .clifford import RX90 as _RX90, _rz
from .noise import NoiseModel, SpamModel, _local_pauli, layer_channel
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
    t = state.reshape(2**qubit, 2, -1)
    return np.einsum("ab,ibj->iaj", u, t).reshape(state.shape)


def apply_2q(state: np.ndarray, u4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    t = state.reshape((2,) * n + state.shape[1:])
    t = np.moveaxis(t, (a, b), (0, 1))
    rest = t.shape[2:]
    t = t.reshape(4, -1)
    t = (u4 @ t).reshape((2, 2) + rest)
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
    idx = np.arange(len(state), dtype=np.int64)
    out = state[idx ^ xmask]
    signs = 1.0 - 2.0 * _parity(idx, zmask)
    out *= signs.reshape((-1,) + (1,) * (state.ndim - 1))
    out *= p.phase * (-1j) ** n_y
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
    conj = np.einsum("ab,kbc,dc->kad", u, stack, np.conj(u))
    mat = np.real(np.einsum("iab,kba->ik", stack, conj)) / 2**n
    return Ptm(n, mat)


def _layer_unitary(layer, n: int) -> np.ndarray:
    dim = 2**n
    return apply_circuit_layer(np.eye(dim, dtype=complex), layer, n)


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


def _gate_error_ptm_1q(noise: NoiseModel, position: int, qubit: int, gate) -> np.ndarray:
    """Exact 4x4 transfer matrix of one gate's X90 error channels.

    Both faults are pushed through the remaining pulse factors of the gate
    itself.  For Clifford gates that push is a Pauli relabelling and the
    result is the compiled Pauli channel; for Euler gates the conjugated
    channels are genuine unitary mixtures and the result is not diagonal.
    """
    from .circuits import CliffordGate1Q
    from .pauli import pauli_walsh

    if isinstance(gate, CliffordGate1Q):
        return np.diag(pauli_walsh(noise.compiled_1q_channel(position, qubit, gate), 1))
    eps = noise.xpi2_noise(position, qubit).probs
    diag = np.diag(pauli_walsh(eps, 1))
    phi1, phi2, _ = gate.angles
    r_first = ptm_of_unitary(_rz(phi1) @ _RX90 @ _rz(phi2), 1).mat
    r_second = ptm_of_unitary(_rz(phi1), 1).mat
    # the first (earlier) fault conjugates through Z(phi2), X90, Z(phi1);
    # the second only through Z(phi1); the second acts after the first
    return (r_second @ diag @ r_second.T) @ (r_first @ diag @ r_first.T)


def circuit_ptm(
    circuit: LayeredCircuit,
    noise: NoiseModel | None = None,
    spam: SpamModel | None = None,
    layer_offset: int = 0,
) -> Ptm:
    """Transfer matrix of the (optionally noisy) circuit, n <= 4.

    Layer errors multiply in as diagonal transfer matrices after each
    layer; SPAM appears as boundary bit-flip channels.
    """
    n = circuit.n
    if n > PTM_LIMIT:
        raise ValueError(f"dense transfer matrices capped at n={PTM_LIMIT}")
    mat = np.eye(4**n)
    if spam is not None:
        mat = mat * _spam_eigenvalues(n, [spam.prep_factor(q) for q in range(n)])[None, :]
    for i, layer in enumerate(circuit.layers):
        mat = ptm_of_unitary(_layer_unitary(layer, n), n).mat @ mat
        if noise is None:
            continue
        pos = i + layer_offset
        if isinstance(layer, OneQubitLayer):
            err = np.array([[1.0]])
            for q, gate in enumerate(layer.gates):
                err = np.kron(err, _gate_error_ptm_1q(noise, pos, q, gate))
            mat = err @ mat
        else:
            chan = layer_channel(circuit, i, noise, layer_offset)
            mat = chan.dense_eigenvalues()[:, None] * mat
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
    the stochastic layer errors) plus SPAM bit flips.  Shots sharing a
    fault pattern share one column of a (2^n, patterns) amplitude array
    that runs through the circuit in a single pass; patterns are taken in
    chunks of at most ``_CHUNK_AMPLITUDES`` amplitudes, each sampled before
    the next starts.  Returns integers with qubit 0 on the most significant
    bit.
    """
    n = circuit.n
    if n > STATEVECTOR_LIMIT:
        raise ValueError(f"statevector simulation capped at n={STATEVECTOR_LIMIT}")
    if shots < 1:
        raise ValueError("need at least one shot")

    # draw local fault labels for all shots and group identical patterns;
    # each draw is (layer index, qubits, pulse, labels): prep flips enter as
    # X faults before the first layer (index -1); faults on Euler gates sit
    # at their X90 pulse (0 or 1) inside the gate, faults on Clifford gates
    # use the exactly-equivalent compiled channel after it (pulse None)
    draws: list[tuple] = []
    if spam is not None:
        for q in range(n):
            p = spam.prep[q]
            if p > 0.0:
                labels = rng.choice(4, size=shots, p=[1.0 - p, p, 0.0, 0.0])
                draws.append((-1, (q,), None, labels.astype(np.uint8)))
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
                            labels = rng.choice(4, size=shots, p=eps)
                            draws.append((li, (q,), pulse, labels.astype(np.uint8)))
                    else:
                        probs = noise.compiled_1q_channel(pos, q, gate)
                        if probs[0] >= 1.0:
                            continue
                        labels = rng.choice(4, size=shots, p=probs)
                        draws.append((li, (q,), None, labels.astype(np.uint8)))
            else:
                chan = layer_channel(circuit, li, noise, layer_offset)
                for qubits, probs in chan.terms:
                    if probs[0] >= 1.0:
                        continue
                    labels = rng.choice(len(probs), size=shots, p=probs)
                    draws.append((li, qubits, None, labels.astype(np.uint8)))

    all_labels = np.zeros((shots, len(draws)), dtype=np.uint8)
    for i, d in enumerate(draws):
        all_labels[:, i] = d[-1]
    patterns: dict[tuple, list[int]] = {(): []}
    nz_rows = np.nonzero(all_labels.any(axis=1))[0]
    patterns[()] = [int(s) for s in np.setdiff1d(np.arange(shots), nz_rows)]
    for shot in nz_rows:
        key = tuple((i, int(lab)) for i, lab in enumerate(all_labels[shot]) if lab)
        patterns.setdefault(key, []).append(int(shot))
    groups = [ids for _, ids in sorted(patterns.items()) if ids]

    after: dict[int, list[int]] = {}
    pulses: dict[tuple[int, int], list[int]] = {}
    for di, (li, qubits, pulse, _) in enumerate(draws):
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

    results = np.zeros(shots, dtype=np.int64)
    width = max(1, _CHUNK_AMPLITUDES // 2**n)
    for start in range(0, len(groups), width):
        chunk = groups[start : start + width]
        faults = all_labels[[ids[0] for ids in chunk]]
        state = np.zeros((2**n, len(chunk)), dtype=complex)
        state[0] = 1.0
        _apply_faults(state, n, draws, after.get(-1, ()), faults)
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
                            _apply_faults(sub, n, draws, (di,), faults[hit])
                            sub = apply_1q(sub, rz, q, n)
                    state = apply_1q(state, u, q, n)
                    if len(hit):
                        state[:, hit] = sub
            else:
                state = apply_circuit_layer(state, layer, n)
            _apply_faults(state, n, draws, after.get(li, ()), faults)
        probs = np.abs(state) ** 2
        for j, ids in enumerate(chunk):
            p = probs[:, j]
            results[ids] = rng.choice(2**n, size=len(ids), p=p / p.sum())

    if spam is not None:
        results = _apply_meas_flips(results, spam, rng)
    return results


def _apply_faults(state, n, draws, indices, faults) -> None:
    """Apply the faults of draws ``indices``, in order and in place, each to
    the columns of ``state`` whose row of ``faults`` carries its label."""
    for di in indices:
        column = faults[:, di]
        for lab in np.unique(column[column > 0]):
            hit = np.nonzero(column == lab)[0]
            fault = _local_pauli(n, draws[di][1], int(lab))
            state[:, hit] = apply_pauli(state[:, hit], fault)


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
