"""Layered circuits: alternating one-qubit layers and disjoint entangling layers.

A :class:`LayeredCircuit` always begins and ends with a one-qubit layer and
strictly alternates between one-qubit and two-qubit layers.  Every
one-qubit gate is either a Clifford group element (by index) or an Euler
triple for Z(phi1) X90 Z(phi2) X90 Z(phi3); the five-pulse form is never
shortened, so all one-qubit gates expose the same number of X90 pulses to
the noise model.

Generators cover brickwork sampling (disordered and periodic), Haar
one-qubit gates, Cliffordization, randomized-compiling Pauli twirls, and
short scrambling circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clifford as cl
from .pauli import sample_uniform

__all__ = [
    "CliffordGate1Q",
    "EulerGate1Q",
    "OneQubitLayer",
    "TwoQubitLayer",
    "LayeredCircuit",
    "BrickworkSpec",
    "brickwork_pairs",
    "sample_brickwork",
    "sample_periodic",
    "cliffordize",
    "pauli_twirl",
    "scrambling_circuit",
    "haar_su2",
    "concatenate",
    "gate_unitary",
    "circuit_to_dict",
    "circuit_from_dict",
]


@dataclass(frozen=True)
class CliffordGate1Q:
    """Single-qubit Clifford gate by group index (0..23)."""

    index: int

    def __post_init__(self):
        if not 0 <= self.index < 24:
            raise ValueError(f"Clifford index {self.index} out of range")


@dataclass(frozen=True)
class EulerGate1Q:
    """Arbitrary single-qubit gate as Z(phi1) X90 Z(phi2) X90 Z(phi3)."""

    phi1: float
    phi2: float
    phi3: float

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.phi1, self.phi2, self.phi3)


Gate1Q = CliffordGate1Q | EulerGate1Q

_CLIFFORD_GATES = tuple(CliffordGate1Q(k) for k in range(24))
IDENTITY_GATE = _CLIFFORD_GATES[0]


def gate_unitary(gate: Gate1Q) -> np.ndarray:
    if isinstance(gate, CliffordGate1Q):
        return cl.one_qubit_cliffords()[gate.index].unitary
    return cl.euler_unitary(*gate.angles)


@dataclass(frozen=True)
class OneQubitLayer:
    gates: tuple[Gate1Q, ...]

    @property
    def n(self) -> int:
        return len(self.gates)

    @property
    def is_clifford(self) -> bool:
        return all(isinstance(g, CliffordGate1Q) for g in self.gates)


@dataclass(frozen=True)
class TwoQubitLayer:
    pairs: tuple[tuple[int, int], ...]
    gate: str = "CZ"

    def __post_init__(self):
        if self.gate not in ("CZ", "CNOT"):
            raise ValueError(f"unsupported entangling gate {self.gate!r}")
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))


Layer = OneQubitLayer | TwoQubitLayer


@dataclass(frozen=True)
class LayeredCircuit:
    """Alternating one-qubit / entangling layers on ``n`` qubits."""

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers or not isinstance(layers[0], OneQubitLayer):
            raise ValueError("circuit must begin with a one-qubit layer")
        if not isinstance(layers[-1], OneQubitLayer):
            raise ValueError("circuit must end with a one-qubit layer")
        for i, layer in enumerate(layers):
            want_1q = i % 2 == 0
            if want_1q != isinstance(layer, OneQubitLayer):
                raise ValueError(f"layer {i} breaks the 1q/2q alternation")
            if isinstance(layer, OneQubitLayer):
                if layer.n != self.n:
                    raise ValueError(
                        f"layer {i} has {layer.n} gates, expected {self.n}"
                    )
            else:
                seen: set[int] = set()
                for a, b in layer.pairs:
                    if a == b:
                        raise ValueError(f"layer {i} pairs qubit {a} with itself")
                    for q in (a, b):
                        if not 0 <= q < self.n:
                            raise ValueError(f"layer {i} touches qubit {q} out of range")
                        if q in seen:
                            raise ValueError(f"layer {i} touches qubit {q} twice")
                        seen.add(q)

    @property
    def depth(self) -> int:
        """Number of entangling layers."""
        return sum(1 for l in self.layers if isinstance(l, TwoQubitLayer))

    @property
    def is_clifford(self) -> bool:
        return all(
            l.is_clifford for l in self.layers if isinstance(l, OneQubitLayer)
        )

    def entangling_layers(self) -> tuple[TwoQubitLayer, ...]:
        return tuple(l for l in self.layers if isinstance(l, TwoQubitLayer))

    @classmethod
    def identity(cls, n: int) -> "LayeredCircuit":
        return cls(n, (identity_layer(n),))


def identity_layer(n: int) -> OneQubitLayer:
    return OneQubitLayer((IDENTITY_GATE,) * n)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrickworkSpec:
    """Brickwork layout: alternating brick offsets on a line or ring."""

    n: int
    layer_pairs: int
    topology: str = "line"
    offset: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("brickwork circuits need n >= 2")
        if self.layer_pairs < 1:
            raise ValueError("need at least one layer pair")
        if self.topology not in ("line", "ring"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.offset not in (0, 1):
            raise ValueError("offset must be 0 or 1")


def brickwork_pairs(n: int, layer_index: int, topology: str = "line", offset: int = 0):
    """Disjoint pairs of one brick layer.

    Even layers pair (0,1),(2,3),... and odd layers pair (1,2),(3,4),...
    On a ring with even n the odd layers additionally wrap with (n-1, 0);
    odd-n rings fall back to the line pattern so layers stay disjoint.
    """
    parity = (layer_index + offset) % 2
    pairs = [(q, q + 1) for q in range(parity, n - 1, 2)]
    if topology == "ring" and parity == 1 and n % 2 == 0:
        pairs.append((n - 1, 0))
    return tuple(pairs)


def _draw_cliffords(rng: np.random.Generator, k: int, layers: int, n: int) -> np.ndarray:
    """(k, layers, n) uniform one-qubit Clifford indices.  Drawn as int64 and
    cast: that consumes ``rng`` exactly as k * layers draws of
    ``rng.integers(24, size=n)``, where an int8 draw would not."""
    return rng.integers(24, size=(k, layers, n)).astype(np.int8)


def _clifford_layer(indices: np.ndarray) -> OneQubitLayer:
    return OneQubitLayer(tuple(_CLIFFORD_GATES[k] for k in indices.tolist()))


def _sample_1q_layer(n: int, kind: str, rng: np.random.Generator) -> OneQubitLayer:
    if kind == "clifford":
        return _clifford_layer(_draw_cliffords(rng, 1, 1, n)[0, 0])
    if kind == "haar":
        return OneQubitLayer(tuple(haar_su2(rng) for _ in range(n)))
    raise ValueError(f"unknown one-qubit gate kind {kind!r}")


def sample_brickwork(
    spec: BrickworkSpec, kind: str, rng: np.random.Generator
) -> LayeredCircuit:
    """Disordered brickwork circuit with i.i.d. random one-qubit layers."""
    layers: list[Layer] = [_sample_1q_layer(spec.n, kind, rng)]
    for d in range(spec.layer_pairs):
        layers.append(
            TwoQubitLayer(brickwork_pairs(spec.n, d, spec.topology, spec.offset))
        )
        layers.append(_sample_1q_layer(spec.n, kind, rng))
    return LayeredCircuit(spec.n, tuple(layers))


def sample_periodic(
    spec: BrickworkSpec, kind: str, rng: np.random.Generator
) -> LayeredCircuit:
    """Periodic circuit repeating one sampled (entangling, one-qubit) pair.

    The leading one-qubit layer is the identity so that the circuit is an
    exact power of the repeated unit: the tableau of the 2k-pair circuit is
    the square of the k-pair circuit's tableau.
    """
    brick_parity = int(rng.integers(2))
    entangling = TwoQubitLayer(
        brickwork_pairs(spec.n, brick_parity, spec.topology, spec.offset)
    )
    unit_1q = _sample_1q_layer(spec.n, kind, rng)
    layers: list[Layer] = [identity_layer(spec.n)]
    for _ in range(spec.layer_pairs):
        layers.append(entangling)
        layers.append(unit_1q)
    return LayeredCircuit(spec.n, tuple(layers))


def scrambling_circuit(n: int, depth: int = 4, rng: np.random.Generator | None = None) -> LayeredCircuit:
    """Short Clifford brickwork used to decorrelate Pauli supports.

    A handful of layers suffices to make a pushed-through random Pauli look
    like a fresh uniform sample; depth 4 is the default working depth.
    """
    if depth < 1:
        raise ValueError("scrambling depth must be at least 1")
    if rng is None:
        raise ValueError("an rng is required")
    return sample_brickwork(BrickworkSpec(n, depth, "line"), "clifford", rng)


def haar_su2(rng: np.random.Generator) -> EulerGate1Q:
    """Haar-random SU(2) element as Euler angles.

    Samples a uniform unit quaternion (a, b, c, d) and converts the unitary
    a*I - i(b*X + c*Y + d*Z) to the five-pulse form.
    """
    q = rng.standard_normal(4)
    q /= math.sqrt(float(q @ q))
    a, b, c, d = q
    u = np.array(
        [[a - 1j * d, -c - 1j * b], [c - 1j * b, a + 1j * d]], dtype=complex
    )
    return EulerGate1Q(*cl.zxzxz_angles(u))


def cliffordize(circuit: LayeredCircuit, rng: np.random.Generator) -> LayeredCircuit:
    """Replace every one-qubit gate by an i.i.d. uniform Clifford.

    Entangling layers are passed through untouched.
    """
    # layers alternate, one-qubit layers at even positions
    layers = list(circuit.layers)
    gates = _draw_cliffords(rng, 1, len(layers[::2]), circuit.n)[0]
    layers[::2] = [_clifford_layer(row) for row in gates]
    return LayeredCircuit(circuit.n, tuple(layers))


def _left_multiply(gate: Gate1Q, letter_index: int) -> Gate1Q:
    """Compile a Pauli frame applied after the gate."""
    if letter_index == 0:
        return gate
    if isinstance(gate, CliffordGate1Q):
        return CliffordGate1Q(cl.clifford_mult(letter_index, gate.index))
    u = cl.one_qubit_cliffords()[letter_index].unitary @ gate_unitary(gate)
    return EulerGate1Q(*cl.zxzxz_angles(u))


def _right_multiply(gate: Gate1Q, letter_index: int) -> Gate1Q:
    """Compile a Pauli frame applied before the gate."""
    if letter_index == 0:
        return gate
    if isinstance(gate, CliffordGate1Q):
        return CliffordGate1Q(cl.clifford_mult(gate.index, letter_index))
    u = gate_unitary(gate) @ cl.one_qubit_cliffords()[letter_index].unitary
    return EulerGate1Q(*cl.zxzxz_angles(u))


def _letter_elem_index(code: int) -> int:
    if code == 0:
        return 0
    name = "IXYZ"[code]
    return cl.one_qubit_gate_index(name)


def pauli_twirl(circuit: LayeredCircuit, rng: np.random.Generator) -> LayeredCircuit:
    """Randomized compiling: dress every entangling layer with Pauli frames.

    For each entangling layer C a uniform Pauli F goes in front and its
    conjugate C F C' behind, both multiplied into the neighbouring one-qubit
    layers so the layer structure (and therefore the noise exposure) is
    unchanged.  The logical operation is preserved up to global phase.
    """
    gates = [list(l.gates) if isinstance(l, OneQubitLayer) else None for l in circuit.layers]
    for i, layer in enumerate(circuit.layers):
        if not isinstance(layer, TwoQubitLayer):
            continue
        frame = sample_uniform(circuit.n, rng)
        codes = [frame.code(q) for q in range(circuit.n)]
        # letters of C F C': each gate maps the letters of its pair
        conj = list(codes)
        local_map = cl.twoq_conjugation_codes(layer.gate)
        for a, b in layer.pairs:
            conj[a], conj[b] = divmod(int(local_map[4 * codes[a] + codes[b]]), 4)
        before = gates[i - 1]
        after = gates[i + 1]
        for q in range(circuit.n):
            if codes[q]:
                before[q] = _left_multiply(before[q], _letter_elem_index(codes[q]))
            if conj[q]:
                after[q] = _right_multiply(after[q], _letter_elem_index(conj[q]))
    layers = [
        OneQubitLayer(tuple(g)) if g is not None else circuit.layers[i]
        for i, g in enumerate(gates)
    ]
    return LayeredCircuit(circuit.n, tuple(layers))


def _merge_1q_layers(first: OneQubitLayer, second: OneQubitLayer) -> OneQubitLayer:
    """Compose two adjacent one-qubit layers (first applied first)."""
    merged = []
    for g1, g2 in zip(first.gates, second.gates):
        if isinstance(g1, CliffordGate1Q) and isinstance(g2, CliffordGate1Q):
            merged.append(CliffordGate1Q(cl.clifford_mult(g2.index, g1.index)))
        else:
            u = gate_unitary(g2) @ gate_unitary(g1)
            merged.append(EulerGate1Q(*cl.zxzxz_angles(u)))
    return OneQubitLayer(tuple(merged))


def concatenate(first: LayeredCircuit, second: LayeredCircuit) -> LayeredCircuit:
    """Run ``first`` then ``second``, merging the boundary one-qubit layers."""
    if first.n != second.n:
        raise ValueError(f"size mismatch: {first.n} vs {second.n}")
    boundary = _merge_1q_layers(first.layers[-1], second.layers[0])
    layers = first.layers[:-1] + (boundary,) + second.layers[1:]
    return LayeredCircuit(first.n, layers)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def circuit_to_dict(circuit: LayeredCircuit) -> dict:
    """JSON-ready dict; Euler angles as repr strings for bit-exact replay."""
    layers = []
    for layer in circuit.layers:
        if isinstance(layer, OneQubitLayer):
            gates = []
            for g in layer.gates:
                if isinstance(g, CliffordGate1Q):
                    gates.append({"clifford": g.index})
                else:
                    gates.append({"euler": [repr(a) for a in g.angles]})
            layers.append({"type": "1q", "gates": gates})
        else:
            layers.append(
                {"type": "2q", "pairs": [list(p) for p in layer.pairs], "gate": layer.gate}
            )
    return {"n": circuit.n, "layers": layers}


def circuit_from_dict(data: dict) -> LayeredCircuit:
    layers: list[Layer] = []
    for entry in data["layers"]:
        if entry["type"] == "1q":
            gates: list[Gate1Q] = []
            for g in entry["gates"]:
                if "clifford" in g:
                    gates.append(CliffordGate1Q(int(g["clifford"])))
                else:
                    gates.append(EulerGate1Q(*(float(a) for a in g["euler"])))
            layers.append(OneQubitLayer(tuple(gates)))
        elif entry["type"] == "2q":
            layers.append(
                TwoQubitLayer(
                    tuple(tuple(p) for p in entry["pairs"]), entry.get("gate", "CZ")
                )
            )
        else:
            raise ValueError(f"unknown layer type {entry['type']!r}")
    return LayeredCircuit(int(data["n"]), tuple(layers))
