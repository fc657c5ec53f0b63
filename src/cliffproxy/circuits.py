"""Layered circuits: alternating one-qubit layers and disjoint entangling layers.

A :class:`LayeredCircuit` always begins and ends with a one-qubit layer and
strictly alternates between one-qubit and two-qubit layers.  Every
one-qubit gate is either a Clifford group element (by index) or an Euler
triple for Z(phi1) X90 Z(phi2) X90 Z(phi3); the five-pulse form is never
shortened, so all one-qubit gates expose the same number of X90 pulses to
the noise model.

A :class:`OneQubitLayer` holds its gates as arrays of Clifford indices
(-1 for an Euler gate) and five-pulse angles, which every reader uses.
The gate objects :class:`CliffordGate1Q` and :class:`EulerGate1Q` are the
API boundary: a layer is built from them and gives them back as
:attr:`OneQubitLayer.gates`; the generators build the arrays directly.

Generators cover brickwork sampling (disordered and periodic), Haar
one-qubit gates, Cliffordization, randomized-compiling Pauli twirls, and
short scrambling circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    "circuit_to_dict",
    "circuit_from_dict",
]


@dataclass(frozen=True)
class CliffordGate1Q:
    """Single-qubit Clifford gate by group index (0..23)."""

    index: int

    def __post_init__(self):
        if not (isinstance(self.index, (int, np.integer)) and 0 <= self.index < 24):
            raise ValueError(f"Clifford index {self.index!r} is not an integer in 0..23")


@dataclass(frozen=True)
class EulerGate1Q:
    """Arbitrary single-qubit gate as Z(phi1) X90 Z(phi2) X90 Z(phi3)."""

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2) and math.isfinite(self.phi3)):
            raise ValueError(f"Euler angles {self.angles} are not all finite")

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.phi1, self.phi2, self.phi3)

    @cached_property
    def unitary(self) -> np.ndarray:
        """Read-only 2x2 matrix, built once per gate."""
        u = cl.euler_unitary(*self.angles)
        u.setflags(write=False)
        return u


Gate1Q = CliffordGate1Q | EulerGate1Q


@dataclass(frozen=True, eq=False, init=False)
class OneQubitLayer:
    """One gate per qubit, held as two read-only arrays: ``indices`` (n,)
    int8, each gate's Clifford index or -1 for an Euler gate, and
    ``angles`` (n, 3), each gate's five-pulse angles, a Clifford's those
    of its group element.  Built from gate objects, which :attr:`gates`
    gives back."""

    indices: np.ndarray
    angles: np.ndarray

    def __init__(self, gates):
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate1Q):
                raise ValueError(f"{g!r} is neither a CliffordGate1Q nor an EulerGate1Q")
        indices = np.array([getattr(g, "index", -1) for g in gates], dtype=np.int8)
        euler = cl._element_tables()[0]
        angles = [euler[k] if k >= 0 else g.angles for k, g in zip(indices.tolist(), gates)]
        self._fill(indices, np.array(angles, dtype=float).reshape(-1, 3))

    @classmethod
    def _of(cls, indices: np.ndarray, angles: np.ndarray | None = None) -> "OneQubitLayer":
        """The layer of the int8 ``indices`` and the ``angles``, both taken
        over; ``angles`` None for a layer of Cliffords."""
        layer = object.__new__(cls)
        layer._fill(indices, cl._element_tables()[0][indices] if angles is None else angles)
        return layer

    def _fill(self, indices: np.ndarray, angles: np.ndarray) -> None:
        for name, arr in (("indices", indices), ("angles", angles)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def gates(self) -> tuple[Gate1Q, ...]:
        return tuple(
            CliffordGate1Q(k) if k >= 0 else EulerGate1Q(*a)
            for k, a in zip(self.indices.tolist(), self.angles.tolist())
        )

    @cached_property
    def unitaries(self) -> np.ndarray:
        """Read-only (n, 2, 2) matrices of the gates, built once per layer:
        a Clifford's from the group table, an Euler gate's from its angles."""
        table, angles = cl._element_tables()[1], self.angles.tolist()
        out = np.empty((self.n, 2, 2), dtype=complex)
        for q, k in enumerate(self.indices.tolist()):
            out[q] = table[k] if k >= 0 else cl.euler_unitary(*angles[q])
        out.setflags(write=False)
        return out

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def is_clifford(self) -> bool:
        return bool((self.indices >= 0).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, OneQubitLayer):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(self.angles, other.angles)

    def __hash__(self) -> int:
        # + 0.0 makes -0.0 hash as 0.0, which it equals
        return hash((self.indices.tobytes(), (self.angles + 0.0).tobytes()))


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
        # layers alternate, one-qubit layers at even positions
        return all(l.is_clifford for l in self.layers[::2])

    def entangling_layers(self) -> tuple[TwoQubitLayer, ...]:
        return self.layers[1::2]

    @classmethod
    def identity(cls, n: int) -> "LayeredCircuit":
        return cls(n, (identity_layer(n),))


@lru_cache(maxsize=None)
def identity_layer(n: int) -> OneQubitLayer:
    return OneQubitLayer._of(np.zeros(n, dtype=np.int8))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrickworkSpec:
    """Brickwork layout: alternating brick offsets on a line or ring."""

    n: int
    layer_pairs: int
    topology: str = "line"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("brickwork circuits need n >= 2")
        if self.layer_pairs < 1:
            raise ValueError("need at least one layer pair")
        if self.topology not in ("line", "ring"):
            raise ValueError(f"unknown topology {self.topology!r}")


def brickwork_pairs(n: int, layer_index: int, topology: str = "line"):
    """Disjoint pairs of one brick layer.

    Even layers pair (0,1),(2,3),... and odd layers pair (1,2),(3,4),...
    On a ring with even n the odd layers additionally wrap with (n-1, 0);
    odd-n rings fall back to the line pattern so layers stay disjoint.
    """
    parity = layer_index % 2
    pairs = [(q, q + 1) for q in range(parity, n - 1, 2)]
    if topology == "ring" and parity == 1 and n % 2 == 0:
        pairs.append((n - 1, 0))
    return tuple(pairs)


def _draw_cliffords(rng: np.random.Generator, k: int, layers: int, n: int) -> np.ndarray:
    """(k, layers, n) uniform one-qubit Clifford indices.  Drawn as int64 and
    cast: that consumes ``rng`` exactly as k * layers draws of
    ``rng.integers(24, size=n)``, where an int8 draw would not."""
    return rng.integers(24, size=(k, layers, n)).astype(np.int8)


def _sample_1q_layer(n: int, kind: str, rng: np.random.Generator) -> OneQubitLayer:
    if kind == "clifford":
        return OneQubitLayer._of(_draw_cliffords(rng, 1, 1, n)[0, 0])
    if kind == "haar":
        angles = np.array([_haar_angles(rng) for _ in range(n)])
        return OneQubitLayer._of(np.full(n, -1, dtype=np.int8), angles)
    raise ValueError(f"unknown one-qubit gate kind {kind!r}")


def sample_brickwork(
    spec: BrickworkSpec, kind: str, rng: np.random.Generator
) -> LayeredCircuit:
    """Disordered brickwork circuit with i.i.d. random one-qubit layers."""
    layers: list[Layer] = [_sample_1q_layer(spec.n, kind, rng)]
    for d in range(spec.layer_pairs):
        layers.append(TwoQubitLayer(brickwork_pairs(spec.n, d, spec.topology)))
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
    entangling = TwoQubitLayer(brickwork_pairs(spec.n, brick_parity, spec.topology))
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
    return EulerGate1Q(*_haar_angles(rng))


def _haar_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    """The five-pulse angles of :func:`haar_su2`."""
    q = rng.standard_normal(4)
    q /= math.sqrt(float(q @ q))
    a, b, c, d = q
    u = np.array(
        [[a - 1j * d, -c - 1j * b], [c - 1j * b, a + 1j * d]], dtype=complex
    )
    return cl.zxzxz_angles(u)


def cliffordize(circuit: LayeredCircuit, rng: np.random.Generator) -> LayeredCircuit:
    """Replace every one-qubit gate by an i.i.d. uniform Clifford.

    Entangling layers are passed through untouched.
    """
    # layers alternate, one-qubit layers at even positions
    layers = list(circuit.layers)
    gates = _draw_cliffords(rng, 1, len(layers[::2]), circuit.n)[0]
    angles = cl._element_tables()[0][gates]
    layers[::2] = [OneQubitLayer._of(row, a) for row, a in zip(gates, angles)]
    return LayeredCircuit(circuit.n, tuple(layers))


def _add_frame(row, q: int, code: int, after: bool) -> None:
    """Compile the Pauli frame of letter ``code`` into gate q of ``row``, a
    one-qubit layer's (indices, angles) as lists: applied after the gate,
    or before it."""
    indices, angles = row
    letter, g = cl.one_qubit_gate_index("IXYZ"[code]), indices[q]
    if g >= 0:
        g = indices[q] = cl.clifford_mult(letter, g) if after else cl.clifford_mult(g, letter)
        angles[q] = cl.one_qubit_cliffords()[g].euler
    else:
        frame, u = cl.one_qubit_cliffords()[letter].unitary, cl.euler_unitary(*angles[q])
        angles[q] = cl.zxzxz_angles(frame @ u if after else u @ frame)


def pauli_twirl(circuit: LayeredCircuit, rng: np.random.Generator) -> LayeredCircuit:
    """Randomized compiling: dress every entangling layer with Pauli frames.

    For each entangling layer C a uniform Pauli F goes in front and its
    conjugate C F C' behind, both multiplied into the neighbouring one-qubit
    layers so the layer structure (and therefore the noise exposure) is
    unchanged.  The logical operation is preserved up to global phase.
    """
    # layers alternate, one-qubit layers at even positions
    rows = [(l.indices.tolist(), l.angles.tolist()) for l in circuit.layers[::2]]
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
        for q in range(circuit.n):
            if codes[q]:
                _add_frame(rows[i // 2], q, codes[q], after=True)
            if conj[q]:
                _add_frame(rows[i // 2 + 1], q, conj[q], after=False)
    layers = list(circuit.layers)
    layers[::2] = [OneQubitLayer._of(np.array(k, dtype=np.int8), np.array(a, dtype=float)) for k, a in rows]
    return LayeredCircuit(circuit.n, tuple(layers))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def circuit_to_dict(circuit: LayeredCircuit) -> dict:
    """JSON-ready dict; Euler angles as repr strings for bit-exact replay."""
    layers = []
    for layer in circuit.layers:
        if isinstance(layer, OneQubitLayer):
            gates = [
                {"clifford": k} if k >= 0 else {"euler": [repr(a) for a in angles]}
                for k, angles in zip(layer.indices.tolist(), layer.angles.tolist())
            ]
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
            layers.append(OneQubitLayer(
                CliffordGate1Q(int(g["clifford"])) if "clifford" in g
                else EulerGate1Q(*(float(a) for a in g["euler"]))
                for g in entry["gates"]
            ))
        elif entry["type"] == "2q":
            layers.append(
                TwoQubitLayer(
                    tuple(tuple(p) for p in entry["pairs"]), entry.get("gate", "CZ")
                )
            )
        else:
            raise ValueError(f"unknown layer type {entry['type']!r}")
    return LayeredCircuit(int(data["n"]), tuple(layers))
