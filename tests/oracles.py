"""Slow, direct implementations that the library's fast paths are checked
against.

* the Euler decomposition one gate at a time: each Haar gate's normals
  drawn and converted on their own, and the five-pulse matrix and angles
  of a single 2x2;
* gate objects: each gate's unitary, Pauli frames compiled into a gate,
  and circuits joined by merging the boundary one-qubit layers gate by
  gate;
* the signed tableau walk: whole-circuit tableaux, their exact inverse,
  and back-propagation of a signed Pauli;
* the one-qubit group by closure from {H, S} on tableaux, with its
  conjugation, multiplication and named-element tables;
* one qubit's gate noise compiled one gate at a time: each X90 fault
  relabelled through the group element that follows its pulse, the two
  faults convolved letter by letter;
* a noise model's position keys moved to a layer offset;
* the exact fold one gather per gate, every layer on its own, and the
  fused fold that gathers each gate's axes to the front of the array;
* the Pauli walk that looks up each gate's eigenvalues in the model, and
  per-layer infidelities read one gate at a time;
* direct fidelity estimation on circuit objects: a PauliString per
  observable, and ``cliffordize`` and ``concatenate`` per twirl;
* the dense unitary of a circuit, each layer a Kronecker product of gate
  unitaries or of explicit CZ / CNOT matrices with the qubits permuted;
* the Pauli twirl through a layer's tableau;
* the layer error channel, one local Pauli channel per gate, with the
  compiled one-qubit channel pushed to the end of each gate;
* the transfer matrix built from each layer's full 2^n unitary, with
  every layer's error multiplied in after it;
* the noisy statevector sampler before batching, one run per fault
  pattern;
* the diamond-norm SDP that decomposes each cone matrix once per use and
  assembles each Newton system in an orthonormal basis of Hermitian
  matrices, forming every entry of the congruence matrices and multiplying
  out the dense partial-trace matrix, then LU-solves it;
* the structured diamond-norm SDP one problem at a time, each cone matrix,
  step length and Newton factorisation on its own 2-D arrays, which the
  lockstep solver must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import estimators as est
from cliffproxy import noise as nz
from cliffproxy import sdp
from cliffproxy.pauli import (
    XZ_FROM_CODE,
    PauliString,
    pauli_walsh,
    sample_uniform,
    sample_uniform_nonidentity,
)

# ---------------------------------------------------------------------------
# Euler decomposition, one gate at a time
# ---------------------------------------------------------------------------


def rz(phi: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]], dtype=complex)


def euler_unitary(phi1: float, phi2: float, phi3: float) -> np.ndarray:
    """Matrix of Z(phi1) X90 Z(phi2) X90 Z(phi3); phi3 acts first."""
    return rz(phi1) @ cl.RX90 @ rz(phi2) @ cl.RX90 @ rz(phi3)


def _wrap_angle(phi: float) -> float:
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi + 1e-15:
        out = math.pi
    return out


def zxzxz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Euler angles reproducing a 2x2 unitary up to global phase."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    s = abs(u[0, 0])
    c = abs(u[0, 1])
    norm = math.hypot(s, c)
    if norm < 1e-12:
        raise ValueError("matrix is not unitary")
    s, c = s / norm, c / norm
    phi2 = 2.0 * math.atan2(s, c)
    if s > cl._EULER_TOL and c > cl._EULER_TOL:
        gamma = (np.angle(u[0, 1]) + np.angle(u[1, 0]) + math.pi) / 2.0
        sum13 = 2.0 * (gamma - cl._HALF_PI - np.angle(u[0, 0]))
        diff13 = 2.0 * (gamma - cl._HALF_PI - np.angle(u[0, 1]))
        phi1 = _wrap_angle((sum13 + diff13) / 2.0)
        phi3 = _wrap_angle((sum13 - diff13) / 2.0)
    elif s <= cl._EULER_TOL:
        # phi2 = 0: only phi1 - phi3 is determined
        phi1 = 0.0
        phi3 = _wrap_angle(np.angle(u[0, 1]) - np.angle(u[1, 0]))
        phi2 = 0.0
    else:
        # phi2 = pi: only phi1 + phi3 is determined
        phi1 = 0.0
        phi3 = _wrap_angle(np.angle(u[1, 1]) - np.angle(u[0, 0]) - math.pi)
        phi2 = math.pi
    return (_wrap_angle(phi1), _wrap_angle(phi2), _wrap_angle(phi3))


def haar_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    """The five-pulse angles of one Haar-random SU(2) gate: a uniform unit
    quaternion (a, b, c, d) as the unitary a*I - i(b*X + c*Y + d*Z)."""
    q = rng.standard_normal(4)
    q /= math.sqrt(float(q @ q))
    a, b, c, d = q
    u = np.array(
        [[a - 1j * d, -c - 1j * b], [c - 1j * b, a + 1j * d]], dtype=complex
    )
    return zxzxz_angles(u)


# ---------------------------------------------------------------------------
# gate objects
# ---------------------------------------------------------------------------


def gate_unitary(gate) -> np.ndarray:
    """The 2x2 matrix of a gate object: a Clifford's group representative,
    an Euler gate's built from its own angles."""
    if isinstance(gate, cc.CliffordGate1Q):
        return cl.one_qubit_cliffords()[gate.index].unitary
    return euler_unitary(*gate.angles)


def left_multiply(gate, letter_index: int):
    """Compile a Pauli frame, a Clifford index, applied after the gate."""
    if isinstance(gate, cc.CliffordGate1Q):
        return cc.CliffordGate1Q(cl.clifford_mult(letter_index, gate.index))
    u = cl.one_qubit_cliffords()[letter_index].unitary @ gate_unitary(gate)
    return cc.EulerGate1Q(*zxzxz_angles(u))


def right_multiply(gate, letter_index: int):
    """Compile a Pauli frame, a Clifford index, applied before the gate."""
    if isinstance(gate, cc.CliffordGate1Q):
        return cc.CliffordGate1Q(cl.clifford_mult(gate.index, letter_index))
    u = gate_unitary(gate) @ cl.one_qubit_cliffords()[letter_index].unitary
    return cc.EulerGate1Q(*zxzxz_angles(u))


def merge_1q_layers(first, second):
    """Compose two adjacent one-qubit layers (first applied first)."""
    merged = []
    for g1, g2 in zip(first.gates, second.gates):
        if isinstance(g1, cc.CliffordGate1Q) and isinstance(g2, cc.CliffordGate1Q):
            merged.append(cc.CliffordGate1Q(cl.clifford_mult(g2.index, g1.index)))
        else:
            u = gate_unitary(g2) @ gate_unitary(g1)
            merged.append(cc.EulerGate1Q(*zxzxz_angles(u)))
    return cc.OneQubitLayer(tuple(merged))


def concatenate(first, second):
    """Run ``first`` then ``second``, merging the boundary one-qubit layers."""
    if first.n != second.n:
        raise ValueError(f"size mismatch: {first.n} vs {second.n}")
    boundary = merge_1q_layers(first.layers[-1], second.layers[0])
    layers = first.layers[:-1] + (boundary,) + second.layers[1:]
    return cc.LayeredCircuit(first.n, layers)


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
    """``NoiseModel.layer_tables(...).probs[qubit]`` of a one-qubit layer,
    one gate at a time, as a (25, 4) array: rows 0-23 for the Clifford
    indices, row 24 for an Euler gate.

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


def rebased(model, offset: int):
    """The model a circuit run from layer ``offset`` on sees: position
    ``i`` of the result holds ``model``'s entries at ``i + offset``.  A
    Markovian model has no positions and is returned as it is."""
    if model.markovian or offset == 0:
        return model

    def rebase(table):
        return {(key[0] - offset,) + key[1:]: v for key, v in table.items()}

    return nz.NoiseModel(False, rebase(model.one_qubit), rebase(model.two_qubit))


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
                eig = noise.layer_tables(pos, layer).eig[q][g]
                h, order = _gather_map(h, order, batch, (q,), inverse_conj[g], eig)
        else:
            local_map = cl.twoq_conjugation_codes(layer.gate)[None]
            for pair in layer.pairs:
                eig = noise.twoq_noise(pos, layer.gate, pair).eigenvalues[None]
                h, order = _gather_map(h, order, batch, pair, local_map, eig)
    h = h.transpose([0] + [1 + order.index(q) for q in range(n)])
    return h.reshape(len(gates), 4**n)


def _one_qubit_rows(qubits, layer, digits):
    """Labels before a one-qubit layer, and the products of its
    eigenvalues, for G gates on ``qubits`` (G, w) whose labels after it
    carry the letters ``digits`` (w, L): both (G, K, L).  ``layer`` is the
    layer's (n, K) Clifford indices and its (n, 24, 4) eigenvalue table."""
    gates, table = layer
    at = gates[qubits], np.arange(len(digits))[:, None]
    shifted = (cl.inverse_conjugation_codes()[:, digits] << 2 * np.arange(len(digits))[::-1, None])[at]
    eig = table[:, :, digits][(qubits[..., None],) + at]
    if len(digits) == 1:
        return shifted[:, 0], eig[:, 0]
    return shifted[:, 0] | shifted[:, 1], eig[:, 0] * eig[:, 1]


def fused_tables(qubits, digits, gate_eig, pre, post):
    """Tables of G gates of width w on ``qubits`` (G, w), composed with the
    one-qubit layers around them, one layer at a time: the rows that
    ``noise._step_tables`` gathers from its per-model tables.

    ``digits`` (w, 4^w) holds the letters of the image of each of a gate's
    labels under its conjugation, and ``gate_eig`` (G, 4^w) the gates'
    eigenvalues, or is None for idle qubits.  ``pre`` and ``post`` are the
    one-qubit layers before and after the gates, as :func:`_one_qubit_rows`
    takes them; ``post`` may be None.
    Returns the mapped labels and the eigenvalue rows, both (G, K, 4^w),
    that ``noise._apply_gate`` takes.
    """
    labels, eig = _one_qubit_rows(qubits, pre, digits)
    if gate_eig is not None:
        eig = gate_eig[:, None] * eig
    if post is not None:
        # each output label reads the tables at its label before ``post``
        before, post_eig = _one_qubit_rows(qubits, post, nz._DIGITS[qubits.shape[1]])
        eig = post_eig * np.take_along_axis(eig, before, axis=-1)
        labels = np.take_along_axis(labels, before, axis=-1)
    return labels, eig


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
        table = noise.layer_tables(2 * j + layer_offset, template.layers[2 * j]).eig
        return gates[:, j].T.astype(np.intp), table

    def letters(labels, w):
        return (labels[:, None] >> 2 * np.arange(w)[::-1, None, None]) & 3

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
            labels, eig = fused_tables(np.array(layer.pairs), digits, twoq, pre, post)
            gathers += zip(layer.pairs, letters(labels, 2), eig)
        if idle:
            labels, eig = fused_tables(np.array(idle), nz._DIGITS[1], None, pre, post)
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
                    eig = noise.layer_tables(pos, layer).eig[q]
                    layer_eig *= eig[g].tolist()[codes[q]]
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


def per_gate_layer_infidelities(circuit, noise) -> list[float]:
    """``noise.layer_infidelities`` one gate object at a time: a one-qubit
    gate reads its row of the compiled table (row 24 for an Euler gate), a
    pair its entry's identity probability."""
    out = []
    for pos, layer in enumerate(circuit.layers):
        p_identity = 1.0
        if isinstance(layer, cc.OneQubitLayer):
            probs = noise.layer_tables(pos, layer).probs
            for q, gate in enumerate(layer.gates):
                p_identity *= probs[q, gate.index if isinstance(gate, cc.CliffordGate1Q) else 24, 0]
        else:
            for pair in layer.pairs:
                p_identity *= noise.twoq_noise(pos, layer.gate, pair).probs[0]
        out.append(1.0 - float(p_identity))
    return out


# ---------------------------------------------------------------------------
# direct fidelity estimation on circuit objects
# ---------------------------------------------------------------------------


def object_walk(circuit, noise, spam, p, layer_offset=0) -> float:
    """The estimators' walk for a PauliString through a circuit object:
    :func:`per_gate_walk` times the prep and measurement factors."""
    lam, codes = per_gate_walk(circuit, noise, [p.code(q) for q in range(p.n)], layer_offset)
    if spam is not None:
        for q, code in enumerate(codes):
            if code:
                lam *= spam.prep_factor(q)
        for q in p.support:
            lam *= spam.meas_factor(q)
    return lam


def object_sample_paulis(
    circuit, noise, spam, config, rng, target=None, append=None, layer_offset=0
) -> list:
    """``estimators._sample_paulis`` on objects: the fixed Clifford
    ``circuit``, or per twirl ``cliffordize(target)``, followed by
    ``concatenate`` with ``append`` if given."""
    out = []
    for _ in range(config.num_paulis):
        p = sample_uniform_nonidentity((circuit or target).n, rng)
        if target is None:
            expected = object_walk(circuit, noise, spam, p, layer_offset)
            value = est._draw_parity(expected, config.shots_per_pauli, rng)
        else:
            values = []
            for _ in range(config.num_twirls):
                circ = cc.cliffordize(target, rng)
                if append is not None:
                    circ = concatenate(circ, append)
                expected = object_walk(circ, noise, spam, p)
                values.append(est._draw_parity(expected, config.shots_per_twirl, rng))
            value = float(np.mean(values))
        out.append(est._PauliSample(str(p), value))
    return out


def object_dfe(circuit, noise, spam, config, rng, target=None) -> est.FidelityEstimate:
    samples = object_sample_paulis(circuit, noise, spam, config, rng, target)
    return est._aggregate(samples, (circuit or target).n, config, {"protocol": "dfe"})


def object_dfe_with_reference(
    circuit, scrambler, noise, spam, config, rng, target=None
) -> est.FidelityEstimate:
    """``estimators.dfe_with_reference``; the reference run reads the
    scrambler's entries at its positions in the composed circuit."""
    body = circuit or target
    if target is None:
        composed = concatenate(circuit, scrambler)
        num = object_sample_paulis(composed, noise, spam, config, rng)
    else:
        num = object_sample_paulis(None, noise, spam, config, rng, target, scrambler)
    offset = len(body.layers) - 1
    den = object_sample_paulis(scrambler, noise, spam, config, rng, layer_offset=offset)
    est_num = est._aggregate(num, body.n, config, {"protocol": "dfe_reference_numerator"})
    est_den = est._aggregate(den, body.n, config, {"protocol": "dfe_reference_denominator"})
    ratio = est_num.mean / est_den.mean
    rel = math.sqrt(
        (est_num.stderr / max(abs(est_num.mean), 1e-12)) ** 2
        + (est_den.stderr / est_den.mean) ** 2
    )
    meta = {
        "protocol": "dfe_reference",
        "numerator": est_num.mean,
        "denominator": est_den.mean,
    }
    return est.FidelityEstimate(
        ratio, abs(ratio) * rel, est_num.num_samples + est_den.num_samples, meta
    )


def object_readout_mitigated_dfe(
    circuit, noise, spam, config, calib_shots, rng, target=None
) -> est.FidelityEstimate:
    """``estimators.readout_mitigated_dfe``, calibration draws first."""
    n = (circuit or target).n
    divisors = np.ones(n)
    if spam is not None:
        for q in range(n):
            p = spam.prep[q]
            e0_true = p * (1.0 - spam.meas1[q]) + (1.0 - p) * spam.meas0[q]
            e1_true = p * (1.0 - spam.meas0[q]) + (1.0 - p) * spam.meas1[q]
            e0_hat = rng.binomial(calib_shots, e0_true) / calib_shots
            e1_hat = rng.binomial(calib_shots, e1_true) / calib_shots
            divisors[q] = 1.0 - e0_hat - e1_hat
    samples = object_sample_paulis(circuit, noise, spam, config, rng, target)
    for s in samples:
        for q in PauliString.from_text(s.pauli).support:
            s.divisor *= divisors[q]
    return est._aggregate(samples, n, config, {"protocol": "dfe_readout_mitigated"})


def object_layer_fidelity_estimate(layers, n, noise, depths, config, rng, spam=None):
    """``estimators.layer_fidelity_estimate``: each layer repeated m times
    between identity layers, Cliffordized, and estimated by :func:`object_dfe`."""
    depths = sorted(int(m) for m in depths)
    dim4 = 4**n
    polarizations, stderrs, intercepts = [], [], []
    dropped = 0
    for layer in layers:
        xs, ys, ws = [], [], []
        for m in depths:
            circ = cc.cliffordize(
                cc.LayeredCircuit(n, (cc.identity_layer(n),) + (layer, cc.identity_layer(n)) * m),
                rng,
            )
            res = object_dfe(circ, noise, spam, config, rng)
            p_hat = est.fidelity_to_polarization(res.mean, n)
            sigma_p = res.stderr * dim4 / (dim4 - 1)
            if p_hat <= 0.0:
                dropped += 1
                continue
            xs.append(m)
            ys.append(math.log(p_hat))
            ws.append((p_hat / sigma_p) ** 2 if sigma_p > 0 else 1e12)
        x, y, w = np.array(xs), np.array(ys), np.array(ws)
        sw = w.sum()
        sx, sy = float(w @ x), float(w @ y)
        sxx, sxy = float(w @ (x * x)), float(w @ (x * y))
        det = sw * sxx - sx * sx
        p = math.exp((sw * sxy - sx * sy) / det)
        polarizations.append(p)
        stderrs.append(p * math.sqrt(sw / det))
        intercepts.append(math.exp((sxx * sy - sx * sxy) / det))
    return est.LayerFidelityResult(
        n, tuple(layers), tuple(polarizations), tuple(stderrs), tuple(intercepts), dropped
    )


# ---------------------------------------------------------------------------
# dense unitary and Pauli twirl
# ---------------------------------------------------------------------------


def apply_1q(state: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2 x 2 unitary ``u`` to one qubit's axis of ``state``."""
    t = state.reshape(2**qubit, 2, -1)
    return np.einsum("ab,ibj->iaj", u, t).reshape(state.shape)


def apply_2q(state: np.ndarray, u4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Apply the 4 x 4 unitary ``u4`` to the axes of qubits (a, b), ``a``
    the high bit."""
    t = state.reshape((2,) * n + state.shape[1:])
    t = np.moveaxis(t, (a, b), (0, 1))
    rest = t.shape[2:]
    t = t.reshape(4, -1)
    t = (u4 @ t).reshape((2, 2) + rest)
    t = np.moveaxis(t, (0, 1), (a, b))
    return t.reshape(state.shape)


# CZ and CNOT (control first) with the first qubit on the high bit
ENTANGLERS = {
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}


def _embed(u: np.ndarray, qubits, n: int) -> np.ndarray:
    """The n-qubit unitary of ``u`` on ``qubits``, the first on the high
    bit: u (x) identity with the qubits in the order ``qubits`` then the
    rest, permuted back to qubit order (qubit 0 = msb)."""
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    full = np.kron(u, np.eye(2 ** (n - len(qubits)))).reshape((2,) * (2 * n))
    axes = np.argsort(order)
    return full.transpose([*axes, *(n + axes)]).reshape(2**n, 2**n)


def layer_unitary(layer, n: int) -> np.ndarray:
    """Dense 2^n unitary of one layer: the Kronecker product of the gate
    unitaries, or the product of each pair's embedded CZ / CNOT."""
    if isinstance(layer, cc.OneQubitLayer):
        out = np.eye(1, dtype=complex)
        for gate in layer.gates:
            out = np.kron(out, gate_unitary(gate))
        return out
    out = np.eye(2**n, dtype=complex)
    for pair in layer.pairs:
        out = _embed(ENTANGLERS[layer.gate], pair, n) @ out
    return out


def circuit_unitary(circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (small n only)."""
    out = np.eye(2**circuit.n, dtype=complex)
    for layer in circuit.layers:
        out = layer_unitary(layer, circuit.n) @ out
    return out


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
                gates[i - 1][q] = left_multiply(
                    gates[i - 1][q], cl.one_qubit_gate_index("IXYZ"[frame.code(q)])
                )
            if conj.code(q):
                gates[i + 1][q] = right_multiply(
                    gates[i + 1][q], cl.one_qubit_gate_index("IXYZ"[conj.code(q)])
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
        table = noise.layer_tables(pos, layer).probs
        for q, gate in enumerate(layer.gates):
            probs = table[q, gate.index if isinstance(gate, cc.CliffordGate1Q) else 24]
            terms.append(((q,), probs))
    return LayerErrorChannel(circuit.n, tuple(terms))


def _gate_error_ptm_1q(noise, position, layer, qubit) -> np.ndarray:
    """Exact 4x4 transfer matrix of one gate's X90 error channels.

    Both faults are pushed through the remaining pulse factors of the gate
    itself.  For Clifford gates that push is a Pauli relabelling and the
    result is the compiled Pauli channel; for Euler gates the conjugated
    channels are genuine unitary mixtures and the result is not diagonal.
    """
    gate = layer.gates[qubit]
    if isinstance(gate, cc.CliffordGate1Q):
        probs = noise.layer_tables(position, layer).probs[qubit, gate.index]
        return np.diag(pauli_walsh(probs, 1))
    eps = noise.xpi2_noise(position, qubit).probs
    diag = np.diag(pauli_walsh(eps, 1))
    phi1, phi2, _ = gate.angles
    r_first = dn.ptm_of_unitary(rz(phi1) @ cl.RX90 @ rz(phi2), 1).mat
    r_second = dn.ptm_of_unitary(rz(phi1), 1).mat
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
        mat = dn.ptm_of_unitary(layer_unitary(layer, n), n).mat @ mat
        if noise is None:
            continue
        pos = i + layer_offset
        if isinstance(layer, cc.OneQubitLayer):
            err = np.array([[1.0]])
            for q in range(n):
                err = np.kron(err, _gate_error_ptm_1q(noise, pos, layer, q))
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


def local_pauli(n: int, qubits, label: int) -> PauliString:
    """n-qubit Pauli, sign +1, with a local label's letters on ``qubits``
    (the first qubit takes the most significant digit)."""
    x = z = 0
    for q in reversed(qubits):
        xq, zq = XZ_FROM_CODE[label & 3]
        label >>= 2
        x |= xq << q
        z |= zq << q
    return PauliString(n, x, z)


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    """Apply a signed Pauli to a statevector (qubit 0 = msb); trailing axes
    of ``state`` are batch axes."""
    n = p.n
    xmask = zmask = n_y = 0
    for q in range(n):
        code = p.code(q)
        xmask |= (code in (1, 2)) << (n - 1 - q)
        zmask |= (code in (2, 3)) << (n - 1 - q)
        n_y += code == 2
    idx = np.arange(len(state), dtype=np.int64)
    signs = 1.0 - 2.0 * np.array([bin(i & zmask).count("1") % 2 for i in idx])
    out = state[idx ^ xmask] * signs.reshape((-1,) + (1,) * (state.ndim - 1))
    return out * (p.phase * (-1j) ** n_y)


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
                        probs = noise.layer_tables(pos, layer).probs[q, gate.index]
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
                post.setdefault(entry[1], []).append(local_pauli(n, entry[2], lab))
            else:
                pulse_faults.setdefault((entry[1], entry[2]), {})[entry[3]] = lab
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        for fault in post.get(-1, []):
            state = apply_pauli(state, fault)
        for li, layer in enumerate(circuit.layers):
            if isinstance(layer, cc.TwoQubitLayer):
                for a, b in layer.pairs:
                    state = apply_2q(state, ENTANGLERS[layer.gate], a, b, n)
            else:
                for q, gate in enumerate(layer.gates):
                    faults = pulse_faults.get((li, q))
                    if faults is None:
                        state = apply_1q(state, gate_unitary(gate), q)
                        continue
                    phi1, phi2, phi3 = gate.angles
                    for u, pulse in ((rz(phi3), None), (cl.RX90, 0), (rz(phi2), None), (cl.RX90, 1)):
                        state = apply_1q(state, u, q)
                        if pulse in faults:
                            state = apply_pauli(state, local_pauli(n, (q,), faults[pulse]))
                    state = apply_1q(state, rz(phi1), q)
            for fault in post.get(li, []):
                state = apply_pauli(state, fault)
        probs = np.abs(state) ** 2
        probs /= probs.sum()
        results[np.array(shot_ids)] = rng.choice(2**n, size=len(shot_ids), p=probs)

    if spam is not None:
        results = dn._apply_meas_flips(results, spam, rng)
    return results


# ---------------------------------------------------------------------------
# diamond-norm SDP
# ---------------------------------------------------------------------------


def _eigh_fun(a: np.ndarray, fun) -> np.ndarray:
    w, v = np.linalg.eigh(sdp._herm(a))
    return sdp._herm((v * fun(w)) @ v.conj().T)


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    return _eigh_fun(a, lambda w: np.sqrt(np.clip(w, 0.0, None)))


def _inv_psd(a: np.ndarray) -> np.ndarray:
    return _eigh_fun(a, lambda w: 1.0 / w)


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Hermitian T with T Z T = X (the Nesterov-Todd scaling point)."""
    lx = _sqrt_psd(x)
    inner = sdp._herm(lx @ z @ lx)
    inner_isqrt = _eigh_fun(inner, lambda w: 1.0 / np.sqrt(np.clip(w, 1e-300, None)))
    return sdp._herm(lx @ inner_isqrt @ lx)


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still positive definite."""
    w, v = np.linalg.eigh(sdp._herm(x))
    w = np.clip(w, 1e-300, None)
    scale = (v / np.sqrt(w)) @ v.conj().T
    m = sdp._herm(scale @ dx @ scale)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


class HermBasis:
    """Orthonormal real basis bookkeeping for D x D Hermitian matrices: the
    diagonal, then sqrt(2) times the real and the imaginary parts of the
    entries above it."""

    def __init__(self, dim: int):
        self.dim = dim
        iu = np.triu_indices(dim, 1)
        self.rows = iu[0]
        self.cols = iu[1]
        self.num_off = len(iu[0])
        self.size = dim * dim

    def vec(self, m: np.ndarray) -> np.ndarray:
        re = np.real(m[self.rows, self.cols])
        im = np.imag(m[self.rows, self.cols])
        return np.concatenate(
            [np.real(np.diagonal(m)), math.sqrt(2.0) * re, math.sqrt(2.0) * im]
        )

    def unvec(self, v: np.ndarray) -> np.ndarray:
        d = self.dim
        m = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(m, v[:d])
        off = (v[d : d + self.num_off] + 1j * v[d + self.num_off :]) / math.sqrt(2.0)
        m[self.rows, self.cols] = off
        m[self.cols, self.rows] = np.conj(off)
        return m


def tat_matrix(basis: HermBasis, t: np.ndarray, chunk: int = 16) -> np.ndarray:
    """Matrix of the congruence map A -> T A T in ``basis``, every entry of
    every image T B T formed and scattered into its column."""
    d = basis.dim
    g = np.empty((basis.size, basis.size), dtype=float)
    tc = np.conj(t)

    def fill(cols: np.ndarray, mats: np.ndarray) -> None:
        # mats: (len(cols), d, d) images T B T
        diag = np.real(mats[:, np.arange(d), np.arange(d)])
        off = mats[:, basis.rows, basis.cols]
        block = np.concatenate(
            [diag, math.sqrt(2.0) * np.real(off), math.sqrt(2.0) * np.imag(off)],
            axis=1,
        )
        g[:, cols] = block.T

    # diagonal basis elements: T e_kk T = t_k t_k^dag
    outer_diag = np.einsum("ik,jk->kij", t, tc)
    fill(np.arange(d), outer_diag)
    # off-diagonal elements in chunks over the first index
    for start in range(0, basis.num_off, chunk * d):
        stop = min(start + chunk * d, basis.num_off)
        ks = basis.rows[start:stop]
        ls = basis.cols[start:stop]
        p1 = np.einsum("ia,ja->aij", t[:, ks], tc[:, ls])
        p2 = np.einsum("ia,ja->aij", t[:, ls], tc[:, ks])
        fill(d + np.arange(start, stop), (p1 + p2) / math.sqrt(2.0))
        fill(
            d + basis.num_off + np.arange(start, stop),
            1j * (p1 - p2) / math.sqrt(2.0),
        )
    return g


def partial_trace_matrix(basis_big: HermBasis, d_out: int, d_in: int) -> np.ndarray:
    """Basis matrix of Tr_out: Herm(d_out*d_in) -> Herm(d_in)."""
    basis_small = HermBasis(d_in)
    pt = np.zeros((basis_small.size, basis_big.size), dtype=float)
    dim = basis_big.dim

    def small_plus_index(a: int, b: int) -> int:
        # position of the (a, b) pair, a < b, in triu ordering
        return int(np.flatnonzero((basis_small.rows == a) & (basis_small.cols == b))[0])

    for i in range(dim):
        alpha, a = divmod(i, d_in)
        pt[a, i] = 1.0
    for idx in range(basis_big.num_off):
        i = basis_big.rows[idx]
        j = basis_big.cols[idx]
        alpha, a = divmod(i, d_in)
        beta, b = divmod(j, d_in)
        if alpha != beta:
            continue
        if a < b:
            pos = small_plus_index(a, b)
            sign = 1.0
        else:
            pos = small_plus_index(b, a)
            sign = -1.0
        pt[d_in + pos, basis_big.dim + idx] = 1.0
        pt[d_in + basis_small.num_off + pos, basis_big.dim + basis_big.num_off + idx] = sign
    return pt


def newton_matrix(
    basis: HermBasis, basis_rho: HermBasis, pt: np.ndarray, tw: np.ndarray, ts: np.ndarray, trho: np.ndarray
) -> np.ndarray:
    """The Newton matrix of the dual step (Y, t) in ``basis``: the congruence
    matrices of T_w and T_s plus P^T G_rho P, P = ``pt`` the partial trace,
    bordered by -vec(I_out (x) T_rho^2) and tr T_rho^2."""
    size = basis.size
    trho2 = sdp._herm(trho @ trho)
    c_vec = basis.vec(np.kron(np.eye(basis.dim // basis_rho.dim), trho2))
    m = np.empty((size + 1, size + 1), dtype=float)
    top = m[:size, :size]
    top[...] = tat_matrix(basis, tw)
    top += tat_matrix(basis, ts)
    top += pt.T @ tat_matrix(basis_rho, trho) @ pt
    m[:size, -1] = -c_vec
    m[-1, :size] = -c_vec
    m[-1, -1] = float(np.real(np.trace(trho2)))
    return m


def dense_diamond_sdp(
    delta_choi: np.ndarray,
    d_in: int,
    gap_tol: float = 1e-9,
    gap_required: float = 1e-8,
    max_iter: int = 200,
    step_fraction: float = 0.98,
) -> sdp.DiamondResult:
    """``solve_diamond_sdp`` with three eigendecompositions per cone matrix
    and iteration, the full congruence matrices and the dense partial-trace
    matrix product in the Newton system."""
    j = sdp._herm(np.asarray(delta_choi, dtype=complex))
    big = j.shape[0]
    if j.shape != (big, big) or big % d_in != 0:
        raise ValueError("Choi matrix shape inconsistent with d_in")
    d_out = big // d_in

    basis = HermBasis(big)
    basis_rho = HermBasis(d_in)
    pt = partial_trace_matrix(basis, d_out, d_in)
    eye_out = np.eye(d_out)

    # feasible interior start
    w = np.eye(big, dtype=complex) / (2.0 * d_in)
    s = w.copy()
    rho = np.eye(d_in, dtype=complex) / d_in
    beta = float(np.linalg.norm(j, 2)) + 1.0
    y = -beta * np.eye(big, dtype=complex)
    t = -(beta * d_out + 1.0)

    def slacks(yv, tv):
        zw = -j - yv
        zs = -yv
        zrho = sdp._tr_out(yv, d_out, d_in) - tv * np.eye(d_in)
        return zw, zs, zrho

    zw, zs, zrho = slacks(y, t)
    total_dim = 2 * big + d_in
    best_gap = np.inf
    best_value = 0.0
    stall = 0
    iterations = 0

    for it in range(1, max_iter + 1):
        iterations = it
        gap = sdp._ip(w, zw) + sdp._ip(s, zs) + sdp._ip(rho, zrho)
        primal = sdp._ip(j, w)
        dual = -t
        value = 0.5 * (primal + dual)
        if not (np.isfinite(gap) and np.isfinite(value)):
            break
        if abs(gap) <= gap_tol:
            return sdp.DiamondResult(value, abs(gap), it - 1)
        if abs(gap) < best_gap * 0.9999:
            best_gap = abs(gap)
            best_value = value
            stall = 0
        else:
            stall += 1
            if stall >= 10:
                break
        mu = gap / total_dim
        if mu <= 0:
            break

        tw = _nt_scaling(w, zw)
        ts = _nt_scaling(s, zs)
        trho = _nt_scaling(rho, zrho)
        zw_inv = _inv_psd(zw)
        zs_inv = _inv_psd(zs)
        zrho_inv = _inv_psd(zrho)

        trho2 = sdp._herm(trho @ trho)
        m = newton_matrix(basis, basis_rho, pt, tw, ts, trho)

        def newton(rw, rs, rrho):
            b_mat = np.kron(eye_out, rrho) - rw - rs
            rhs = np.concatenate([basis.vec(b_mat), [-float(np.real(np.trace(rrho)))]])
            sol = np.linalg.solve(m, rhs)
            dy = basis.unvec(sol[:-1])
            dt = float(sol[-1])
            dzw = -dy
            dzs = -dy
            dzrho = sdp._tr_out(dy, d_out, d_in) - dt * np.eye(d_in)
            dw = sdp._herm(rw + tw @ dy @ tw)
            ds = sdp._herm(rs + ts @ dy @ ts)
            drho = sdp._herm(rrho - trho @ sdp._tr_out(dy, d_out, d_in) @ trho + dt * trho2)
            return dw, ds, drho, dy, dt, dzw, dzs, dzrho

        def step_sizes(dw, ds, drho, dzw, dzs, dzrho):
            ap = min(_max_step(w, dw), _max_step(s, ds), _max_step(rho, drho), 1.0 / step_fraction)
            ad = min(_max_step(zw, dzw), _max_step(zs, dzs), _max_step(zrho, dzrho), 1.0 / step_fraction)
            return min(1.0, step_fraction * ap), min(1.0, step_fraction * ad)

        # predictor
        aff = newton(-w, -s, -rho)
        ap, ad = step_sizes(aff[0], aff[1], aff[2], aff[5], aff[6], aff[7])
        mu_aff = (
            sdp._ip(w + ap * aff[0], zw + ad * aff[5])
            + sdp._ip(s + ap * aff[1], zs + ad * aff[6])
            + sdp._ip(rho + ap * aff[2], zrho + ad * aff[7])
        ) / total_dim
        sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

        # corrector with a second-order term
        def corr(x, dx_aff, z_inv, dz_aff):
            second = dx_aff @ dz_aff @ z_inv
            return sdp._herm(sigma * mu * z_inv - x - 0.5 * (second + second.conj().T))

        dw, ds, drho, dy, dt, dzw, dzs, dzrho = newton(
            corr(w, aff[0], zw_inv, aff[5]),
            corr(s, aff[1], zs_inv, aff[6]),
            corr(rho, aff[2], zrho_inv, aff[7]),
        )
        if not all(
            np.all(np.isfinite(m)) for m in (dw, ds, drho, dy)
        ) or not np.isfinite(dt):
            break
        ap, ad = step_sizes(dw, ds, drho, dzw, dzs, dzrho)

        w = sdp._herm(w + ap * dw)
        s = sdp._herm(s + ap * ds)
        rho = sdp._herm(rho + ap * drho)
        y = sdp._herm(y + ad * dy)
        t = t + ad * dt
        zw, zs, zrho = slacks(y, t)

    gap = sdp._ip(w, zw) + sdp._ip(s, zs) + sdp._ip(rho, zrho)
    value = 0.5 * (sdp._ip(j, w) - t)
    if np.isfinite(gap) and np.isfinite(value) and abs(gap) < best_gap:
        best_gap = abs(gap)
        best_value = value
    if best_gap > gap_required:
        raise sdp.SdpConvergenceError(
            f"diamond SDP stalled at duality gap {best_gap:.3e} (required {gap_required:.1e})",
            best_gap,
        )
    return sdp.DiamondResult(best_value, best_gap, iterations)


def _one_with_spectrum(eig, f):
    return sdp._herm((eig[1] * f) @ eig[1].conj().T)


def _one_isqrt(eig):
    return (eig[1] / np.sqrt(np.clip(eig[0], sdp._FLOOR, None))) @ eig[1].conj().T


def _one_max_step(isqrt, dx):
    scaled = sdp._herm(isqrt @ dx @ isqrt)
    if not np.isfinite(scaled).all():
        raise np.linalg.LinAlgError("scaled step is not finite")
    lam_min = float(np.linalg.eigvalsh(scaled)[0])
    return np.inf if lam_min >= 0.0 else -1.0 / lam_min


def _one_newton_solver(tw, ts, trho, units):
    """``sdp._newton_solver`` of one problem, on 2-D arrays."""
    big, d_in = len(tw), len(trho)
    d_out = big // d_in
    m_isqrt = _one_isqrt(np.linalg.eigh(sdp._herm(tw + ts)))
    alpha, v = np.linalg.eigh(sdp._herm(m_isqrt @ tw @ m_isqrt))
    f = m_isqrt @ v
    fh = f.conj().T
    beta = np.real(np.diagonal(fh @ ts @ f))
    den = np.outer(alpha, alpha) + np.outer(beta, beta)
    xs = fh @ units @ f
    images = (f @ (xs / den) @ fh).reshape(-1, d_out, d_in, d_out, d_in)
    xs = xs.reshape(d_in * d_in, big * big)
    k_l = np.einsum("kaiaj->ijk", images).reshape(d_in**2, -1)
    lam, q = np.linalg.eigh(trho)
    g = q * np.sqrt(np.clip(lam, 0.0, None))
    gh = np.kron(g.conj().T, g.T)
    k = np.eye(d_in**2) + gh @ k_l @ gh.conj().T
    k = 0.5 * (k + k.conj().T)
    g_eye = (g.conj().T @ g).ravel()
    k_eye = np.linalg.solve(k, g_eye)
    tr_k_eye = sdp._ip(g_eye, k_eye)

    def solve(r_ws, r_rho):
        b = (r_rho.ravel() @ xs).reshape(big, big) - fh @ r_ws @ f
        k_u = np.linalg.solve(k, gh @ (xs.conj() @ (b / den).ravel()))
        r0 = -float(np.real(np.trace(r_rho)))
        dt = (r0 + sdp._ip(g_eye, k_u)) / tr_k_eye
        z = ((gh.conj().T @ (k_u - dt * k_eye)) @ xs).reshape(big, big)
        return sdp._herm(f @ ((b - z) / den) @ fh), dt

    return solve


@np.errstate(all="ignore")
def unstacked_diamond_sdp(delta_choi: np.ndarray, d_in: int) -> sdp.DiamondResult:
    """``solve_diamond_sdp`` one problem at a time, as it was before the
    lockstep groups, with the tolerances read from ``sdp`` when called."""
    j = np.asarray(delta_choi, dtype=complex)
    big = j.shape[0]
    if j.shape != (big, big) or big % d_in != 0:
        raise ValueError("Choi matrix shape inconsistent with d_in")
    if np.max(np.abs(j - j.conj().T)) > 1e-10:
        raise ValueError("Choi matrix must be Hermitian")
    j = sdp._herm(j)
    d_out = big // d_in
    eye_in = np.eye(d_in)
    units = sdp._units(d_out, d_in)
    fraction = sdp._STEP_FRACTION

    w = np.eye(big, dtype=complex) / (2.0 * d_in)
    s = w.copy()
    rho = np.eye(d_in, dtype=complex) / d_in
    beta = float(np.linalg.norm(j, 2)) + 1.0
    y = -beta * np.eye(big, dtype=complex)
    t = -(beta * d_out + 1.0)

    def slacks(yv, tv):
        return -j - yv, -yv, sdp._tr_out(yv, d_out, d_in) - tv * eye_in

    zw, zs, zrho = slacks(y, t)
    total_dim = 2 * big + d_in
    best_gap, best_value = np.inf, 0.0
    stall = iterations = clips = 0
    try:
        for it in range(1, sdp._MAX_ITER + 1):
            iterations = it
            gap = sdp._ip(w, zw) + sdp._ip(s, zs) + sdp._ip(rho, zrho)
            value = 0.5 * (sdp._ip(j, w) + -t)
            if not (np.isfinite(gap) and np.isfinite(value)):
                break
            if abs(gap) <= sdp._GAP_TOL:
                return sdp.DiamondResult(value, abs(gap), it - 1, clips)
            if abs(gap) < best_gap * 0.9999:
                best_gap, best_value, stall = abs(gap), value, 0
            else:
                stall += 1
                if stall >= 10:
                    break
            mu = gap / total_dim
            if mu <= 0:
                break

            eigs = [np.linalg.eigh(sdp._herm(x)) for x in (w, s, rho, zw, zs, zrho)]
            isqrts = [_one_isqrt(e) for e in eigs]
            roots = [_one_with_spectrum(e, np.sqrt(np.clip(e[0], 0.0, None))) for e in eigs[:3]]
            inners = [np.linalg.eigh(sdp._herm(lx @ z @ lx)) for lx, z in zip(roots, (zw, zs, zrho))]
            tw, ts, trho = (
                sdp._herm(lx @ _one_with_spectrum(e, 1.0 / np.sqrt(np.clip(e[0], sdp._FLOOR, None))) @ lx)
                for lx, e in zip(roots, inners)
            )
            zw_inv, zs_inv, zrho_inv = (_one_with_spectrum(e, 1.0 / e[0]) for e in eigs[3:])
            clips += sum(int(e[0][0] < sdp._FLOOR) for e in eigs + inners)
            trho2 = sdp._herm(trho @ trho)
            newton_solve = _one_newton_solver(tw, ts, trho, units)

            def newton(rw, rs, rrho):
                dy, dt = newton_solve(rw + rs, rrho)
                dy_in = sdp._tr_out(dy, d_out, d_in)
                dw = sdp._herm(rw + tw @ dy @ tw)
                ds = sdp._herm(rs + ts @ dy @ ts)
                drho = sdp._herm(rrho - trho @ dy_in @ trho + dt * trho2)
                return dw, ds, drho, dy, dt, -dy, -dy, dy_in - dt * eye_in

            def step_sizes(*dx):
                steps = [_one_max_step(r, d) for r, d in zip(isqrts, dx)]
                ap = min(*steps[:3], 1.0 / fraction)
                ad = min(*steps[3:], 1.0 / fraction)
                return min(1.0, fraction * ap), min(1.0, fraction * ad)

            aff = newton(-w, -s, -rho)
            ap, ad = step_sizes(aff[0], aff[1], aff[2], aff[5], aff[6], aff[7])
            mu_aff = (
                sdp._ip(w + ap * aff[0], zw + ad * aff[5])
                + sdp._ip(s + ap * aff[1], zs + ad * aff[6])
                + sdp._ip(rho + ap * aff[2], zrho + ad * aff[7])
            ) / total_dim
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

            def corr(x, dx_aff, z_inv, dz_aff):
                second = dx_aff @ dz_aff @ z_inv
                return sdp._herm(sigma * mu * z_inv - x - 0.5 * (second + second.conj().T))

            dw, ds, drho, dy, dt, dzw, dzs, dzrho = newton(
                corr(w, aff[0], zw_inv, aff[5]),
                corr(s, aff[1], zs_inv, aff[6]),
                corr(rho, aff[2], zrho_inv, aff[7]),
            )
            if not all(np.all(np.isfinite(a)) for a in (dw, ds, drho, dy)) or not np.isfinite(dt):
                break
            ap, ad = step_sizes(dw, ds, drho, dzw, dzs, dzrho)
            w = sdp._herm(w + ap * dw)
            s = sdp._herm(s + ap * ds)
            rho = sdp._herm(rho + ap * drho)
            y = sdp._herm(y + ad * dy)
            t = t + ad * dt
            zw, zs, zrho = slacks(y, t)
    except np.linalg.LinAlgError as exc:
        raise sdp.SdpConvergenceError(
            f"diamond SDP broke down ({exc}) at duality gap {best_gap:.3e}", best_gap
        ) from exc

    gap = sdp._ip(w, zw) + sdp._ip(s, zs) + sdp._ip(rho, zrho)
    value = 0.5 * (sdp._ip(j, w) - t)
    if np.isfinite(gap) and np.isfinite(value) and abs(gap) < best_gap:
        best_gap, best_value = abs(gap), value
    if best_gap > sdp._GAP_REQUIRED:
        raise sdp.SdpConvergenceError(
            f"diamond SDP stalled at duality gap {best_gap:.3e} (required {sdp._GAP_REQUIRED:.1e})",
            best_gap,
        )
    return sdp.DiamondResult(best_value, best_gap, iterations, clips)
