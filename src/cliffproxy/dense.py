"""Exact small-n channel mathematics: transfer matrices, process fidelity,
Choi matrices, diamond distance, and statevector sampling.

Transfer matrices ("Ptm") are real 4^n x 4^n in the normalised Pauli basis,
ordered lexicographically in (I, X, Y, Z) per qubit with qubit 0 slowest,
matching the label order of :mod:`cliffproxy.pauli`; entries are
Tr(P_i E(P_j)) / 2^n.  With that normalisation the diagonal of a Pauli
channel's transfer matrix is exactly the Walsh transform of its
probability vector.

A circuit's transfer matrix is built one brick at a time: each pair's
noisy 16 x 16 takes in the one-qubit gates before it, whose errors sit at
the X90 pulses inside the five-pulse form, where the statevector sampler
also puts them.  Both read noise only through ``NoiseModel.layer_tables``.

Computational-basis integers put qubit 0 on the most significant bit.
Dense transfer matrices are capped at n <= 4 and the diamond-norm SDP at
n <= 3 (one n = 3 solve takes under a second); statevector simulation
runs to n <= 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import sdp
from .circuits import LayeredCircuit, OneQubitLayer, TwoQubitLayer
from .clifford import _PAULIS, RX90 as _RX90
from .noise import _SWAP, NoiseModel, SpamModel

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
    stack = np.array([[[1.0]]], dtype=complex)
    for _ in range(n):
        stack = np.einsum("kab,lcd->klacbd", stack, _PAULIS).reshape(
            -1, stack.shape[1] * 2, stack.shape[1] * 2
        )
    return stack


@lru_cache(maxsize=4)
def _parities(dim: int) -> np.ndarray:
    """Parity of the set bits of each integer below ``dim``, a power of two."""
    v = np.arange(dim, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


@lru_cache(maxsize=1024)
def _local_masks(n: int, qubits, label: int) -> tuple[int, int, complex]:
    """X and Z bit masks (qubit 0 = msb) and phase, as phase Z^z X^x, of
    the Pauli with a local label's letters on ``qubits``, the first qubit
    taking the most significant digit."""
    x = z = 0
    phase = 1.0 + 0j
    for q in reversed(qubits):
        code, label = label & 3, label >> 2
        x |= (code in (1, 2)) << (n - 1 - q)
        z |= (code in (2, 3)) << (n - 1 - q)
        phase *= -1j if code == 2 else 1
    return x, z, phase


# CZ and CNOT (control first) with the first qubit on the high bit
_ENTANGLERS = {"CZ": np.diag([1.0, 1.0, 1.0, -1.0]), "CNOT": np.eye(4)[[0, 1, 3, 2]]}


def ptm_of_unitary(u: np.ndarray, n: int) -> Ptm:
    if n > PTM_LIMIT:
        raise ValueError(f"dense transfer matrices capped at n={PTM_LIMIT}")
    stack = _pauli_stack(n)
    conj = u @ stack @ u.conj().T
    mat = np.real(np.einsum("iab,kba->ik", stack, conj, optimize=True)) / 2**n
    return Ptm(n, mat)


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
_X90_PTM = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)


def _rz_ptms(phi: np.ndarray) -> np.ndarray:
    """Transfer matrices of Z(phi), stacked over the shape of ``phi``."""
    c, s = np.cos(phi), np.sin(phi)
    out = np.zeros(phi.shape + (4, 4))
    out[..., 0, 0] = out[..., 3, 3] = 1.0
    out[..., 1, 1] = out[..., 2, 2] = c
    out[..., 1, 2], out[..., 2, 1] = -s, s
    return out


def _gate_ptms_1q(angles: np.ndarray, eig: np.ndarray | None) -> np.ndarray:
    """Z(phi1) D X90 Z(phi2) D X90 Z(phi3), phi3 acting first, stacked over
    the rows (phi1, phi2, phi3) of ``angles``, where D is the matching row
    of X90 error diagonals ``eig`` (the identity when None)."""
    z = _rz_ptms(angles)
    pulse = _X90_PTM if eig is None else eig[..., None] * _X90_PTM
    return z[..., 0, :, :] @ pulse @ z[..., 1, :, :] @ pulse @ z[..., 2, :, :]


@lru_cache(maxsize=4)
def _entangler_ptm(gate: str) -> np.ndarray:
    return ptm_of_unitary(_ENTANGLERS[gate], 2).mat


def _ptm_columns(cols: np.ndarray, circuit: LayeredCircuit, noise: NoiseModel | None) -> np.ndarray:
    """The circuit's noisy transfer matrix times ``cols``, 4^n rows.

    Every one-qubit gate's 4 x 4 is built in one batched pass.  Each pair's
    16 x 16 takes in the one-qubit gates before it and puts its lower qubit
    on the high digit; it acts on the rows with the pair's two axes moved to
    the front.  An idle qubit's gate is one product on the (4^q, 4, rest)
    view of the rows.
    """
    n, layers = circuit.n, circuit.layers
    tables = None if noise is None else [noise.layer_tables(i, layer, n) for i, layer in enumerate(layers)]
    eig = None if noise is None else np.array([[e.eigenvalues for e in t.entries] for t in tables[::2]])
    gates = _gate_ptms_1q(np.stack([layer.angles for layer in layers[::2]]), eig)

    pairs = [(i, a, b) for i in range(1, len(layers), 2) for a, b in layers[i].pairs]
    fused = iter(())
    if pairs:
        pos, first, second = np.array(pairs).T
        ent = np.stack([_entangler_ptm(layers[i].gate) for i, _, _ in pairs])
        if noise is not None:
            ent *= np.concatenate([t.eig for t in tables[1::2]])[:, :, None]
        rev = first > second
        ent[rev] = ent[rev][:, _SWAP][:, :, _SWAP]
        lo = gates[pos // 2, np.minimum(first, second)]
        hi = gates[pos // 2, np.maximum(first, second)]
        fused = iter(ent @ (lo[:, :, None, :, None] * hi[:, None, :, None, :]).reshape(-1, 16, 16))

    mat = cols
    for i in range(0, len(layers), 2):
        brick = layers[i + 1].pairs if i + 1 < len(layers) else ()
        busy = {q for pair in brick for q in pair}
        for q in range(n):
            if q not in busy:
                mat = np.matmul(gates[i // 2, q], mat.reshape(4**q, 4, -1))
        for a, b in map(sorted, brick):
            t = np.moveaxis(mat.reshape((4,) * n + (-1,)), (a, b), (0, 1))
            mat = np.moveaxis((next(fused) @ t.reshape(16, -1)).reshape(t.shape), (0, 1), (a, b))
    return mat.reshape(cols.shape)


def circuit_ptm(
    circuit: LayeredCircuit,
    noise: NoiseModel | None = None,
    spam: SpamModel | None = None,
) -> Ptm:
    """Transfer matrix of the (optionally noisy) circuit, n <= 4: the
    identity's columns, scaled by the prep bit-flip diagonal, run through
    :func:`_ptm_columns`, then the rows scaled by the measurement diagonal.
    Each one-qubit gate's X90 error diagonal follows both its pulses, each
    pair's 16-entry error diagonal (in its listed qubit order) the pair."""
    n = circuit.n
    if n > PTM_LIMIT:
        raise ValueError(f"dense transfer matrices capped at n={PTM_LIMIT}")
    if spam is None:
        return Ptm(n, _ptm_columns(np.eye(4**n), circuit, noise))
    prep, meas = (_spam_eigenvalues(n, factors) for factors in spam.factors)
    return Ptm(n, meas[:, None] * _ptm_columns(np.diag(prep), circuit, noise))


def process_fidelity(ideal: Ptm, noisy: Ptm) -> float:
    """Tr(ideal^T noisy) / 4^n."""
    if ideal.n != noisy.n:
        raise ValueError(f"size mismatch: {ideal.n} vs {noisy.n}")
    return float(np.vdot(ideal.mat, noisy.mat)) / 4**ideal.n


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


def diamond_distance(ideal: Ptm, noisy: Ptm) -> sdp.DiamondResult:
    """Half diamond-norm distance between two channels via the SDP.

    With one BLAS thread an n = 2 solve takes about 13 ms and an n = 3
    solve about 0.3 s with a 19 MiB traced peak: each iteration solves the
    Newton system in O(4^{3n}) work without assembling it (see ``sdp``).
    """
    if ideal.n != noisy.n:
        raise ValueError(f"size mismatch: {ideal.n} vs {noisy.n}")
    if ideal.n > DIAMOND_LIMIT:
        raise ValueError(f"diamond-norm SDP capped at n={DIAMOND_LIMIT}")
    delta = choi_of_ptm(noisy).mat - choi_of_ptm(ideal).mat
    return sdp.solve_diamond_sdp(delta, 2**ideal.n)


# ---------------------------------------------------------------------------
# statevector simulation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _entangler_layer(layer: TwoQubitLayer, n: int) -> np.ndarray:
    """A CNOT layer's row gather ``state[op]``, or a CZ layer's +-1 diagonal
    ``state * op``, for (2^n, columns) statevectors."""
    ar = np.arange(2**n)
    cnot = layer.gate == "CNOT"
    op = ar if cnot else np.ones((2**n, 1))
    for a, b in layer.pairs:
        ca, cb = (ar >> (n - 1 - a)) & 1, (ar >> (n - 1 - b)) & 1
        op = op[ar ^ (ca << (n - 1 - b))] if cnot else op * (1 - 2 * (ca & cb))[:, None]
    return op


def apply_circuit_layer(state: np.ndarray, layer, n: int) -> np.ndarray:
    """One noiseless layer on (2^n, columns) amplitudes: each one-qubit gate
    one product of its unitary (built once per layer) on its qubit's (2^q, 2,
    rest) view, an entangling layer one :func:`_entangler_layer` gather or diagonal."""
    if isinstance(layer, OneQubitLayer):
        for q, u in enumerate(layer.unitaries):
            state = np.matmul(u, state.reshape(2**q, 2, -1)).reshape(state.shape)
        return state
    op = _entangler_layer(layer, n)
    return state[op] if layer.gate == "CNOT" else state * op


def ideal_output_probs(circuit: LayeredCircuit) -> np.ndarray:
    """Exact |amplitude|^2 vector of the noiseless circuit on |0...0>."""
    if circuit.n > STATEVECTOR_LIMIT:
        raise ValueError(f"statevector simulation capped at n={STATEVECTOR_LIMIT}")
    amps = np.eye(2**circuit.n, 1, dtype=complex)
    for layer in circuit.layers:
        amps = apply_circuit_layer(amps, layer, circuit.n)
    return np.abs(amps[:, 0]) ** 2


def statevector_simulate(
    circuit: LayeredCircuit,
    noise: NoiseModel | None,
    rng: np.random.Generator,
    shots: int,
    spam: SpamModel | None = None,
) -> np.ndarray:
    """Sample measured bitstrings from the noisy circuit.

    Each shot draws one Pauli fault per layer (Monte Carlo unravelling of
    the stochastic layer errors) plus SPAM bit flips.  Each draw takes the
    uniforms ``rng.choice`` would and keeps only its hits, the shots with a
    non-identity label; a shot's fault pattern is its ((draw, label), ...)
    hits in draw order.  Shots sharing a pattern share one column of a
    (2^n, patterns) amplitude array that runs through the circuit in a
    single pass, in sorted pattern order (fault-free first); patterns are
    taken in chunks of at most ``_CHUNK_AMPLITUDES`` amplitudes.  Each gate
    acts on all columns at once; after each layer, one step applies all of
    its Pauli faults, composed per column into one signed Pauli, and a few
    more its pulse faults, each a 2 x 2 operator after the Euler gate (see
    :func:`_layer_faults`), on the columns that carry them.  Output samples
    read one block of ``shots`` uniforms, sliced in pattern order, so the
    generator's stream is that of one ``choice`` per draw and per pattern.
    Returns integers with qubit 0 on the most significant bit.
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
            tables = noise.layer_tables(li, layer, n)
            if isinstance(layer, OneQubitLayer):
                for q, g in enumerate(layer.indices.tolist()):
                    probs = tables.entries[q].probs if g < 0 else tables.probs[q, g]
                    if probs[0] < 1.0:
                        for pulse in (0, 1) if g < 0 else (None,):
                            draw(probs, li, (q,), pulse)
            else:
                for pair, probs in zip(layer.pairs, tables.probs):
                    if probs[0] < 1.0:
                        draw(probs, li, tuple(pair), None)

    # a faulted shot's pattern key is its ((draw, label), ...) hits in draw
    # order; patterns run in sorted key order, the fault-free () first
    shot = np.concatenate([h[0] for h in hits] + [np.zeros(0, np.intp)])
    label = np.concatenate([h[1] for h in hits] + [np.zeros(0, np.intp)])
    index = np.repeat(np.arange(len(hits)), [len(h[0]) for h in hits])
    order = np.lexsort((index, shot))
    shot = shot[order]
    pairs = list(zip(index[order].tolist(), label[order].tolist()))
    bounds = np.flatnonzero(np.diff(shot, prepend=-1)).tolist() + [len(pairs)]
    free = np.ones(shots, dtype=bool)
    free[shot] = False
    patterns = {(): np.flatnonzero(free).tolist()}
    for s, a, b in zip(shot[bounds[:-1]].tolist(), bounds, bounds[1:]):
        patterns.setdefault(tuple(pairs[a:b]), []).append(s)
    keys = sorted(key for key, ids in patterns.items() if ids)

    # the patterns' output samples read consecutive slices of one block
    ends = np.cumsum([len(patterns[key]) for key in keys])
    uniforms = np.split(rng.random(shots), ends[:-1])
    results = np.zeros(shots, dtype=np.int64)
    width = max(1, _CHUNK_AMPLITUDES // 2**n)
    for start in range(0, len(keys), width):
        chunk = keys[start : start + width]
        faults = _layer_faults(circuit, draws, chunk)
        state = np.zeros((2**n, len(chunk)), dtype=complex)
        state[0] = 1.0
        # layer index -1 holds the prep flips
        for li, layer in [(-1, None), *enumerate(circuit.layers)]:
            if layer is not None:
                state = apply_circuit_layer(state, layer, n)
            for apply, *args in faults.get(li, ()):
                apply(state, *args)
        # choice's cumulative distribution for all patterns, one row each
        probs = np.abs(state.T, order="C") ** 2
        total = probs.sum(axis=1, keepdims=True)
        bad = ~(np.isfinite(total) & (total > 0.0))
        if bad.any():
            raise ValueError(f"output probabilities sum to {total[bad][0]}")
        cdf = np.cumsum(probs / total, axis=1)
        cdf /= cdf[:, -1:]
        for row, key, block in zip(cdf, chunk, uniforms[start : start + width]):
            results[patterns[key]] = row.searchsorted(block, side="right")

    if spam is not None:
        results = _apply_meas_flips(results, spam, rng)
    return results


def _layer_faults(circuit: LayeredCircuit, draws: list, keys: list) -> dict[int, list]:
    """The faults of pattern ``keys``, the columns of one chunk, as
    ``(apply, *args)`` steps to take after each layer index.

    A layer's Pauli faults compose, per column, into one signed Pauli
    phase Z^z X^x, all applied in one step.  A fault P at X90 pulse k of an
    Euler gate becomes W = A P A^dagger after the gate, with A = Z(phi1)
    for pulse 1 and Z(phi1) X90 Z(phi2) for pulse 0; step r applies each
    column's r-th such W in draw order, so pulse 0's W acts first.
    """
    n = circuit.n
    composed: dict[int, dict] = {}
    pulse_hits = []
    for col, key in enumerate(keys):
        count: dict[int, int] = {}
        for di, lab in key:
            li, qubits, pulse = draws[di]
            if pulse is None:
                x, z, phase = _local_masks(n, qubits, lab)
                acc = composed.setdefault(li, {}).setdefault(col, [col, 0, 0, 1.0 + 0j])
                # X^x moves left past the Z of the column's earlier faults
                acc[3] *= phase * (-1) ** (x & acc[2]).bit_count()
                acc[1] ^= x
                acc[2] ^= z
            else:
                count[li] = count.get(li, -1) + 1
                phi1, phi2, _ = circuit.layers[li].angles[qubits[0]].tolist()
                pulse_hits.append((li, count[li], col, n - 1 - qubits[0], pulse, lab, phi1, phi2))
    steps: dict[int, list] = {}
    if pulse_hits:
        li, rank, col, shift, pulse, lab, phi1, phi2 = map(np.array, zip(*sorted(pulse_hits)))
        # the diagonals of Z(phi1) and Z(phi2)
        e1, e2 = (np.exp(np.multiply.outer(phi, [-0.5j, 0.5j])) for phi in (phi1, phi2))
        a = e1[:, :, None] * np.where(pulse[:, None, None] == 0, _RX90 * e2[:, None, :], np.eye(2))
        w = a @ _PAULIS[lab] @ a.conj().swapaxes(1, 2)
        cuts = np.flatnonzero(np.diff(li, prepend=-1) | np.diff(rank, prepend=-1))
        for lo, hi in zip(cuts.tolist(), [*cuts[1:].tolist(), len(li)]):
            batch = (_apply_pulses, col[lo:hi], shift[lo:hi], w[lo:hi])
            steps.setdefault(int(li[lo]), []).append(batch)
    for li, accs in composed.items():
        steps.setdefault(li, []).append((_apply_paulis, *map(np.array, zip(*accs.values()))))
    return steps


def _apply_paulis(state, col, x, z, phase) -> None:
    """Replace each column ``col[j]`` of ``state`` by its image under the
    signed Pauli phase[j] Z^z[j] X^x[j] (bit masks, qubit 0 = msb)."""
    rows = np.arange(len(state))[:, None]
    signs = 1 - 2 * _parities(len(state))[rows & z]
    state[:, col] = state[rows ^ x, col] * (signs * phase)


def _apply_pulses(state, col, shift, w) -> None:
    """Replace each column ``col[j]`` of ``state`` by its image under the
    2 x 2 operator w[j] on the qubit at bit ``shift[j]``."""
    rows = np.arange(len(state))[:, None]
    bit = 1 << shift
    low, b = rows & ~bit, (rows & bit) >> shift
    j = np.arange(len(col))
    state[:, col] = w[j, b, 0] * state[low, col] + w[j, b, 1] * state[low | bit, col]


def _choice_hits(rng: np.random.Generator, p, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Shots and labels of ``rng.choice(len(p), size=shots, p=p)`` whose label
    is not 0, from the same uniforms, leaving the generator in the same state."""
    # the cumulative distribution as choice normalises it
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    u = rng.random(shots)
    hit = np.nonzero(u >= cdf[0])[0]
    return hit, cdf.searchsorted(u[hit], side="right")


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
