"""Slow, direct implementations that the library's fast paths are checked
against.

* the signed tableau walk: whole-circuit tableaux, their exact inverse,
  and back-propagation of a signed Pauli;
* the one-qubit group by closure from {H, S} on tableaux, with its
  conjugation, multiplication and named-element tables;
* one qubit's gate noise compiled one gate at a time: each X90 fault
  relabelled through the group element that follows its pulse, the two
  faults convolved letter by letter;
* the exact fold one gather per gate, every layer on its own, and the
  fused fold that gathers each gate's axes to the front of the array;
* the Pauli walk that looks up each gate's eigenvalues in the model;
* the dense unitary of a circuit;
* the Pauli twirl through a layer's tableau;
* the layer error channel, one local Pauli channel per gate, with the
  compiled one-qubit channel pushed to the end of each gate;
* the transfer matrix built from each layer's full 2^n unitary, with
  every layer's error multiplied in after it;
* the noisy statevector sampler before batching, one run per fault
  pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliString, pauli_walsh, sample_uniform

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
# one-qubit group by tableau closure, and the per-gate compiled channel
# ---------------------------------------------------------------------------

def _one_qubit_key(x_img: PauliString, z_img: PauliString) -> tuple:
    return (x_img.x_bits, x_img.z_bits, x_img.phase_exp, z_img.x_bits, z_img.z_bits, z_img.phase_exp)


def tableau_cliffords() -> list[tuple[cl.CliffordTableau, np.ndarray]]:
    """The 24 one-qubit elements as (tableau, unitary) pairs, found by
    closure from {H, S} on tableaux with the unitaries in lockstep, in
    breadth-first order."""
    x0 = PauliString.single(1, 0, "X")
    z0 = PauliString.single(1, 0, "Z")
    h_tab = cl.CliffordTableau(1, [z0], [x0])
    s_tab = cl.CliffordTableau(1, [PauliString.single(1, 0, "Y")], [z0])
    gens = ((h_tab, cl._H), (s_tab, cl._S))
    ident = cl.CliffordTableau.identity(1)
    queue = [(ident, np.eye(2, dtype=complex))]
    found = {_one_qubit_key(*ident.x_images, *ident.z_images)}
    order = [queue[0]]
    while queue:
        tab, mat = queue.pop(0)
        for gen_tab, gen_mat in gens:
            new_tab = cl.compose(tab, gen_tab)
            key = _one_qubit_key(new_tab.x_images[0], new_tab.z_images[0])
            if key not in found:
                found.add(key)
                order.append((new_tab, gen_mat @ mat))
                queue.append(order[-1])
    assert len(order) == 24
    return order


def tableau_conjugation_table(tabs) -> np.ndarray:
    """(24, 4, 2) table: (letter code, sign) of g P g' from each tableau."""
    table = np.empty((24, 4, 2), dtype=np.intp)
    for g, tab in enumerate(tabs):
        for code in range(4):
            image = cl.conjugate(tab, PauliString.from_label(1, code))
            table[g, code] = (image.code(0), image.sign)
    return table


def tableau_mult_table(tabs) -> np.ndarray:
    """24x24 table: index of U_i @ U_j, from composed tableaux."""
    index = {_one_qubit_key(t.x_images[0], t.z_images[0]): g for g, t in enumerate(tabs)}
    table = np.zeros((24, 24), dtype=np.int64)
    for i, ti in enumerate(tabs):
        for j, tj in enumerate(tabs):
            prod = cl.compose(tj, ti)  # j acts first under i @ j
            table[i, j] = index[_one_qubit_key(prod.x_images[0], prod.z_images[0])]
    return table


def tableau_named_indices(tabs) -> dict[str, int]:
    """Indices of the named elements, found by their signed images."""
    index = {
        ((t.x_images[0].code(0), t.x_images[0].sign), (t.z_images[0].code(0), t.z_images[0].sign)): g
        for g, t in enumerate(tabs)
    }

    def find(x_code, x_sign, z_code, z_sign):
        return index[((x_code, x_sign), (z_code, z_sign))]

    return {
        "I": find(1, 1, 3, 1),
        "H": find(3, 1, 1, 1),
        "S": find(2, 1, 3, 1),
        "X": find(1, 1, 3, -1),
        "Y": find(1, -1, 3, -1),
        "Z": find(1, -1, 3, 1),
        "SX": find(1, 1, 2, -1),  # X90: X -> X, Z -> -Y
    }


def _convolve_local(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Distribution of the product of two independent one-qubit faults."""
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            out[nz._CODE_XOR[i, j]] += p1[i] * p2[j]
    return out


def per_gate_compiled_channels(noise, position, qubit, elements) -> np.ndarray:
    """``NoiseModel.compiled_1q_channel`` one gate at a time, as a (25, 4)
    array: rows 0-23 for the Clifford indices, row 24 for an Euler gate.

    Each X90 fault is relabelled through the group element that follows
    its pulse, found by products in the tableau multiplication table;
    ``elements`` are the (tableau, unitary) pairs of :func:`tableau_cliffords`.
    """
    tabs = [tab for tab, _ in elements]
    mult = tableau_mult_table(tabs)
    conj = tableau_conjugation_table(tabs)
    named = tableau_named_indices(tabs)

    def zrot_index(phi):
        quarter = round(phi / (np.pi / 2)) % 4
        assert abs(phi - round(phi / (np.pi / 2)) * (np.pi / 2)) < 1e-9
        idx = 0
        for _ in range(quarter):
            idx = mult[idx, named["S"]]
        return idx

    def push(probs, elem):
        out = np.zeros_like(probs)
        for code in range(4):
            out[conj[elem, code, 0]] += probs[code]
        return out

    eps = noise.xpi2_noise(position, qubit).probs
    rows = []
    for _, mat in elements:
        phi1, phi2, _ = cl._snap_clifford_angles(cl.zxzxz_angles(mat), mat)
        tail = zrot_index(phi1)
        mid = mult[mult[tail, named["SX"]], zrot_index(phi2)]
        rows.append(_convolve_local(push(eps, mid), push(eps, tail)))
    rows.append(_convolve_local(eps, eps))
    return np.array(rows)


# ---------------------------------------------------------------------------
# exact fold, one gather per gate
# ---------------------------------------------------------------------------


def _gather_map(h, order, batch, qubits, local_map, eig):
    """``h <- eig * (h o map)`` on the axes of ``qubits``, for ``local_map``
    and ``eig`` with 4^k entries per circuit (or one shared row); moves the
    gate's axes to the front and returns the new axis order."""
    k = len(qubits)
    shape = (-1,) + (4,) * k
    index = [slice(None)] * h.ndim
    index[0] = batch.reshape((-1,) + (1,) * k)
    for j, q in enumerate(qubits):
        index[1 + order.index(q)] = ((local_map >> (2 * (k - 1 - j))) & 3).reshape(shape)
    h = h[tuple(index)]
    h *= eig.reshape(shape + (1,) * (h.ndim - 1 - k))
    return h, list(qubits) + [q for q in order if q not in qubits]


def per_gate_fold(template, gates, noise, layer_offset=0) -> np.ndarray:
    """``noise._fold`` with one gather per gate of every layer: (K, 4^n)
    transfer-matrix diagonals of the entangling layers of ``template`` with
    the one-qubit Clifford indices ``gates``, shape (K, one-qubit layers, n).

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
        if isinstance(layer, cc.OneQubitLayer):
            for q in range(n):
                g = gates[:, i // 2, q]
                eig = noise.compiled_1q_eigenvalues(pos, q)[g]
                h, order = _gather_map(h, order, batch, (q,), inverse_conj[g], eig)
        else:
            local_map = cl.twoq_conjugation_codes(layer.gate)[None]
            for pair in layer.pairs:
                eig = noise.twoq_noise(pos, layer.gate, pair).eigenvalues[None]
                h, order = _gather_map(h, order, batch, pair, local_map, eig)
    h = h.transpose([0] + [1 + order.index(q) for q in range(n)])
    return h.reshape(len(gates), 4**n)


def _gather(h, order, rows, qubits, letters, eig):
    """``h <- eig * (h o map)`` on the axes of ``qubits``, which move to
    axes 1..k; the axes behind the gate's deepest one stay in place.
    ``letters`` (k, K, 4^k) holds each mapped label's letter on each qubit
    and ``eig`` (K, 4^k) the eigenvalue rows.  Returns the new axis order."""
    k = len(qubits)
    shape = (-1,) + (4,) * k
    index = [slice(None)] * h.ndim
    index[0] = rows.reshape(shape[:1] + (1,) * k)
    for q, letter in zip(qubits, letters):
        index[1 + order.index(q)] = letter.reshape(shape)
    h = h[tuple(index)]
    h *= eig.reshape(shape + (1,) * (h.ndim - 1 - k))
    return h, list(qubits) + [q for q in order if q not in qubits]


def gather_fold(template, gates, noise, layer_offset=0) -> np.ndarray:
    """``noise._fold`` with the same fused tables, each applied as one
    gather that moves the gate's axes to the front of the array; each
    layer's gates gather shallowest first, and one transpose at the end
    restores the axes."""
    n = template.n
    k, layers = gates.shape[:2]
    depth = layers - 1
    rows = np.arange(k)[:, None]

    def one_qubit_layer(j):
        table = noise._compiled_1q_layer(2 * j + layer_offset, n)
        return gates[:, j].T.astype(np.intp), table

    def letters(labels, w):
        return (labels[:, None] >> nz._SHIFTS[w][..., None]) & 3

    h = np.ones((k,) + (4,) * n)
    order = list(range(n))
    for j in range(max(depth, 1)):
        layer = template.layers[2 * j + 1] if depth else cc.TwoQubitLayer(())
        pre = one_qubit_layer(j)
        post = one_qubit_layer(depth) if j == depth - 1 else None
        paired = [q for pair in layer.pairs for q in pair]
        idle = [(q,) for q in range(n) if q not in paired]
        gathers = []
        if layer.pairs:
            twoq = np.array([
                noise.twoq_noise(2 * j + 1 + layer_offset, layer.gate, pair).eigenvalues
                for pair in layer.pairs
            ])
            digits = nz._DIGITS[2][:, cl.twoq_conjugation_codes(layer.gate)]
            labels, eig = nz._fused_tables(np.array(layer.pairs), digits, twoq, pre, post)
            gathers += zip(layer.pairs, letters(labels, 2), eig)
        if idle:
            labels, eig = nz._fused_tables(np.array(idle), nz._DIGITS[1], None, pre, post)
            gathers += zip(idle, letters(labels, 1), eig)
        gathers.sort(key=lambda gate: max(order.index(q) for q in gate[0]))
        for qubits, gate_letters, eig in gathers:
            h, order = _gather(h, order, rows, qubits, gate_letters, eig)
    h = h.transpose([0] + [1 + order.index(q) for q in range(n)])
    return h.reshape(k, 4**n)


# ---------------------------------------------------------------------------
# Pauli walk, one gate at a time
# ---------------------------------------------------------------------------


def per_gate_walk(circuit, noise, codes, layer_offset=0) -> tuple[float, list[int]]:
    """``noise.propagate_codes`` with each gate's eigenvalue row looked up
    in the model at its position, and its conjugation map built, as the
    walk reaches it; the same products in the same order."""
    codes = list(codes)
    inverse_conj = cl.inverse_conjugation_codes().tolist()
    lam = 1.0
    for i in range(len(circuit.layers) - 1, -1, -1):
        layer = circuit.layers[i]
        pos = i + layer_offset
        layer_eig = 1.0
        if isinstance(layer, cc.OneQubitLayer):
            gates = [gate.index for gate in layer.gates]
            if noise is not None:
                for q, g in enumerate(gates):
                    layer_eig *= noise.compiled_1q_eigenvalues(pos, q)[g].tolist()[codes[q]]
            codes = [inverse_conj[g][c] for g, c in zip(gates, codes)]
        else:
            local_map = cl.twoq_conjugation_codes(layer.gate).tolist()
            for a, b in layer.pairs:
                label = 4 * codes[a] + codes[b]
                if noise is not None:
                    eig = noise.twoq_noise(pos, layer.gate, (a, b)).eigenvalues
                    layer_eig *= eig.tolist()[label]
                codes[a], codes[b] = divmod(local_map[label], 4)
        lam *= layer_eig
    return float(lam), codes


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
# layer error channels and the layer-unitary transfer matrix
# ---------------------------------------------------------------------------


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

    def dense_eigenvalues(self) -> np.ndarray:
        """Transfer-matrix diagonal over all 4^n labels: the product of the
        local diagonals, each broadcast over its qubits' axes."""
        out = np.ones((4,) * self.n)
        for qubits, probs in self.terms:
            eig = pauli_walsh(probs, len(qubits))
            local = eig.reshape((4,) * len(qubits)).transpose(np.argsort(qubits))
            shape = [1] * self.n
            for q in qubits:
                shape[q] = 4
            out *= local.reshape(shape)
        return out.reshape(4**self.n)


def layer_channel(circuit, layer_index, noise, layer_offset=0) -> LayerErrorChannel:
    """Error channel inserted after one layer of the circuit."""
    layer = circuit.layers[layer_index]
    pos = layer_index + layer_offset
    terms = []
    if isinstance(layer, cc.TwoQubitLayer):
        for pair in layer.pairs:
            probs = noise.twoq_noise(pos, layer.gate, pair).probs
            terms.append((tuple(pair), probs))
    else:
        for q, gate in enumerate(layer.gates):
            probs = noise.compiled_1q_channel(pos, q, gate)
            terms.append(((q,), probs))
    return LayerErrorChannel(circuit.n, tuple(terms))


def _gate_error_ptm_1q(noise, position, qubit, gate) -> np.ndarray:
    """Exact 4x4 transfer matrix of one gate's X90 error channels.

    Both faults are pushed through the remaining pulse factors of the gate
    itself.  For Clifford gates that push is a Pauli relabelling and the
    result is the compiled Pauli channel; for Euler gates the conjugated
    channels are genuine unitary mixtures and the result is not diagonal.
    """
    if isinstance(gate, cc.CliffordGate1Q):
        return np.diag(pauli_walsh(noise.compiled_1q_channel(position, qubit, gate), 1))
    eps = noise.xpi2_noise(position, qubit).probs
    diag = np.diag(pauli_walsh(eps, 1))
    phi1, phi2, _ = gate.angles
    r_first = dn.ptm_of_unitary(cl._rz(phi1) @ cl.RX90 @ cl._rz(phi2), 1).mat
    r_second = dn.ptm_of_unitary(cl._rz(phi1), 1).mat
    # the first (earlier) fault conjugates through Z(phi2), X90, Z(phi1);
    # the second only through Z(phi1); the second acts after the first
    return (r_second @ diag @ r_second.T) @ (r_first @ diag @ r_first.T)


def layer_unitary_ptm(circuit, noise=None, spam=None, layer_offset=0) -> dn.Ptm:
    """``circuit_ptm`` from each layer's full 2^n unitary, with the layer's
    error transfer matrix multiplied in after it: a Kronecker product of
    the per-gate one-qubit error matrices, or the entangling layer's
    dense error diagonal."""
    n = circuit.n
    mat = np.eye(4**n)
    if spam is not None:
        mat = mat * dn._spam_eigenvalues(n, [spam.prep_factor(q) for q in range(n)])[None, :]
    for i, layer in enumerate(circuit.layers):
        unitary = dn.apply_circuit_layer(np.eye(2**n, dtype=complex), layer, n)
        mat = dn.ptm_of_unitary(unitary, n).mat @ mat
        if noise is None:
            continue
        pos = i + layer_offset
        if isinstance(layer, cc.OneQubitLayer):
            err = np.array([[1.0]])
            for q, gate in enumerate(layer.gates):
                err = np.kron(err, _gate_error_ptm_1q(noise, pos, q, gate))
            mat = err @ mat
        else:
            chan = layer_channel(circuit, i, noise, layer_offset)
            mat = chan.dense_eigenvalues()[:, None] * mat
    if spam is not None:
        mat = dn._spam_eigenvalues(n, [spam.meas_factor(q) for q in range(n)])[:, None] * mat
    return dn.Ptm(n, mat)


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
                chan = layer_channel(circuit, li, noise, layer_offset)
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
