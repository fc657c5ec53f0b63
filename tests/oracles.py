"""Slow, direct implementations that the library's fast paths are checked
against.

* the signed tableau walk: whole-circuit tableaux, their exact inverse,
  and back-propagation of a signed Pauli;
* the dense unitary of a circuit;
* the Pauli twirl through a layer's tableau;
* the noisy statevector sampler before batching, one run per fault
  pattern.
"""

from __future__ import annotations

import numpy as np

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliString, sample_uniform

# ---------------------------------------------------------------------------
# tableau walk
# ---------------------------------------------------------------------------


def _gf2_inverse(rows: list[int], width: int) -> list[int]:
    """Invert a GF(2) matrix given as bit-mask rows."""
    aug = [rows[i] | (1 << (width + i)) for i in range(width)]
    for col in range(width):
        pivot = next((r for r in range(col, width) if (aug[r] >> col) & 1), None)
        if pivot is None:
            raise ValueError("singular symplectic matrix: invalid tableau")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(width):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    return [aug[i] >> width for i in range(width)]


def inverse(t: cl.CliffordTableau) -> cl.CliffordTableau:
    """Tableau of the inverse Clifford, with exact signs."""
    n = t.n
    # row r of the binary matrix maps generator r to its image bits (x|z)
    rows = [img.x_bits | (img.z_bits << n) for img in t.x_images + t.z_images]
    inv_rows = _gf2_inverse(rows, 2 * n)
    mask = (1 << n) - 1

    def signed_preimage(row_bits: int, target: PauliString) -> PauliString:
        cand = PauliString(n, row_bits & mask, row_bits >> n, 0)
        image = cl.conjugate(t, cand)
        if image.x_bits != target.x_bits or image.z_bits != target.z_bits:
            raise ValueError("inconsistent symplectic inverse")
        return cand if image.phase_exp == 0 else cand.negate()

    xs = [signed_preimage(inv_rows[q], PauliString.single(n, q, "X")) for q in range(n)]
    zs = [signed_preimage(inv_rows[n + q], PauliString.single(n, q, "Z")) for q in range(n)]
    return cl.CliffordTableau(n, xs, zs)


def layer_tableau(layer, n: int) -> cl.CliffordTableau:
    """Tableau of one layer, built row by row (gates act on disjoint qubits)."""
    if isinstance(layer, cc.OneQubitLayer):
        if not layer.is_clifford:
            raise cl.NotCliffordError("layer contains non-Clifford one-qubit gates")
        elems = cl.one_qubit_cliffords()
        xs, zs = [], []
        for q, gate in enumerate(layer.gates):
            elem = elems[gate.index]
            for (code, sign), dest in ((elem.x_image, xs), (elem.z_image, zs)):
                dest.append(PauliString.single(n, q, "IXYZ"[code], sign))
        return cl.CliffordTableau(n, xs, zs)
    gate_tab = cl.from_gate(layer.gate, (0, 1), 2)
    xs = [PauliString.single(n, q, "X") for q in range(n)]
    zs = [PauliString.single(n, q, "Z") for q in range(n)]
    for a, b in layer.pairs:
        for local, dest in ((gate_tab.x_images, xs), (gate_tab.z_images, zs)):
            for k, q in ((0, a), (1, b)):
                img = local[k]
                x_bits = ((img.x_bits & 1) << a) | (((img.x_bits >> 1) & 1) << b)
                z_bits = ((img.z_bits & 1) << a) | (((img.z_bits >> 1) & 1) << b)
                dest[q] = PauliString(n, x_bits, z_bits, img.phase_exp)
    return cl.CliffordTableau(n, xs, zs)


def circuit_tableau(circuit) -> cl.CliffordTableau:
    """Whole-circuit tableau of a Clifford-only layered circuit."""
    if not circuit.is_clifford:
        raise cl.NotCliffordError("circuit contains non-Clifford one-qubit gates")
    tab = cl.CliffordTableau.identity(circuit.n)
    for layer in circuit.layers:
        tab = cl.compose(tab, layer_tableau(layer, circuit.n))
    return tab


def backpropagate(circuit, p: PauliString) -> PauliString:
    """C' P C for the whole-circuit Clifford C, with exact sign."""
    if circuit.n != p.n:
        raise ValueError(f"size mismatch: circuit n={circuit.n}, Pauli n={p.n}")
    return cl.conjugate(inverse(circuit_tableau(circuit)), p)


# ---------------------------------------------------------------------------
# dense unitary and Pauli twirl
# ---------------------------------------------------------------------------


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (small n only)."""
    return dn.apply_circuit(np.eye(2**circuit.n, dtype=complex), circuit)


def tableau_twirl(circuit, rng):
    """``pauli_twirl`` with each frame F conjugated to C F C' by the layer's
    signed tableau; the same draws from ``rng``."""
    gates = [list(l.gates) if isinstance(l, cc.OneQubitLayer) else None for l in circuit.layers]
    for i, layer in enumerate(circuit.layers):
        if not isinstance(layer, cc.TwoQubitLayer):
            continue
        frame = sample_uniform(circuit.n, rng)
        conj = cl.conjugate(layer_tableau(layer, circuit.n), frame)
        for q in range(circuit.n):
            if frame.code(q):
                gates[i - 1][q] = cc._left_multiply(
                    gates[i - 1][q], cc._letter_elem_index(frame.code(q))
                )
            if conj.code(q):
                gates[i + 1][q] = cc._right_multiply(
                    gates[i + 1][q], cc._letter_elem_index(conj.code(q))
                )
    layers = [
        cc.OneQubitLayer(tuple(g)) if g is not None else circuit.layers[i]
        for i, g in enumerate(gates)
    ]
    return cc.LayeredCircuit(circuit.n, tuple(layers))


# ---------------------------------------------------------------------------
# statevector sampler, one run per fault pattern
# ---------------------------------------------------------------------------


def per_pattern_simulate(circuit, noise, rng, shots, spam=None, layer_offset=0):
    """The sampler before batching: the same draws, then one statevector run
    per distinct fault pattern in sorted order."""
    n = circuit.n
    draws = []
    if spam is not None:
        for q in range(n):
            p = spam.prep[q]
            if p > 0.0:
                labels = rng.choice(4, size=shots, p=[1.0 - p, p, 0.0, 0.0])
                draws.append(("post", -1, (q,), labels))
    if noise is not None:
        for li, layer in enumerate(circuit.layers):
            pos = li + layer_offset
            if isinstance(layer, cc.OneQubitLayer):
                for q, gate in enumerate(layer.gates):
                    if isinstance(gate, cc.EulerGate1Q):
                        eps = noise.xpi2_noise(pos, q).probs
                        if eps[0] >= 1.0:
                            continue
                        for pulse in (0, 1):
                            labels = rng.choice(4, size=shots, p=eps)
                            draws.append(("pulse", li, q, pulse, labels))
                    else:
                        probs = noise.compiled_1q_channel(pos, q, gate)
                        if probs[0] >= 1.0:
                            continue
                        labels = rng.choice(4, size=shots, p=probs)
                        draws.append(("post", li, (q,), labels))
            else:
                chan = nz.layer_channel(circuit, li, noise, layer_offset)
                for qubits, probs in chan.terms:
                    if probs[0] >= 1.0:
                        continue
                    labels = rng.choice(len(probs), size=shots, p=probs)
                    draws.append(("post", li, qubits, labels))

    patterns = {(): list(range(shots))}
    if draws:
        all_labels = np.stack([d[-1] for d in draws], axis=1)
        nz_rows = np.nonzero(all_labels.any(axis=1))[0]
        patterns[()] = [int(s) for s in np.setdiff1d(np.arange(shots), nz_rows)]
        for shot in nz_rows:
            key = tuple((i, int(lab)) for i, lab in enumerate(all_labels[shot]) if lab)
            patterns.setdefault(key, []).append(int(shot))

    results = np.zeros(shots, dtype=np.int64)
    for key, shot_ids in sorted(patterns.items()):
        if not shot_ids:
            continue
        post, pulse_faults = {}, {}
        for di, lab in key:
            entry = draws[di]
            if entry[0] == "post":
                post.setdefault(entry[1], []).append(nz._local_pauli(n, entry[2], lab))
            else:
                pulse_faults.setdefault((entry[1], entry[2]), {})[entry[3]] = lab
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        for fault in post.get(-1, []):
            state = dn.apply_pauli(state, fault)
        for li, layer in enumerate(circuit.layers):
            if isinstance(layer, cc.TwoQubitLayer):
                state = dn.apply_circuit_layer(state, layer, n)
            else:
                for q, gate in enumerate(layer.gates):
                    faults = pulse_faults.get((li, q))
                    if faults is None:
                        state = dn.apply_1q(state, cc.gate_unitary(gate), q, n)
                        continue
                    phi1, phi2, phi3 = gate.angles
                    for u, pulse in ((cl._rz(phi3), None), (cl.RX90, 0), (cl._rz(phi2), None), (cl.RX90, 1)):
                        state = dn.apply_1q(state, u, q, n)
                        if pulse in faults:
                            state = dn.apply_pauli(state, nz._local_pauli(n, (q,), faults[pulse]))
                    state = dn.apply_1q(state, cl._rz(phi1), q, n)
            for fault in post.get(li, []):
                state = dn.apply_pauli(state, fault)
        probs = np.abs(state) ** 2
        probs /= probs.sum()
        results[np.array(shot_ids)] = rng.choice(2**n, size=len(shot_ids), p=probs)

    if spam is not None:
        results = dn._apply_meas_flips(results, spam, rng)
    return results
