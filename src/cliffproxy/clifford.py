"""Tableau-based Clifford action on signed Pauli strings.

A tableau stores the signed images of the generators X_k and Z_k under
conjugation.  Conjugating an arbitrary Pauli decomposes it over the
generators and multiplies the corresponding images, so all phase tracking
reduces to the exact product rule in :mod:`cliffproxy.pauli`.

The module also builds the 24-element single-qubit Clifford group by
closure from {H, S}, each element carrying its 2x2 unitary and a
fixed-length Euler decomposition Z(phi1) X90 Z(phi2) X90 Z(phi3) with
angles in {0, +-pi/2, pi}.  Every single-qubit gate in the package is
expanded in this same five-pulse form so that all of them see identical
noise exposure.

Tableaux build the two read-only letter-code tables that every circuit
walk reads: :func:`inverse_conjugation_codes` over the 24 one-qubit
elements and :func:`twoq_conjugation_codes` for CZ and CNOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import XZ_FROM_CODE, PauliString, multiply

__all__ = [
    "CliffordTableau",
    "OneQubitClifford",
    "NotCliffordError",
    "conjugate",
    "compose",
    "from_gate",
    "one_qubit_cliffords",
    "clifford_mult",
    "clifford_inverse_index",
    "inverse_conjugation_codes",
    "twoq_conjugation_codes",
    "euler_unitary",
    "zxzxz_angles",
    "RX90",
]

_HALF_PI = math.pi / 2

RX90 = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


class NotCliffordError(ValueError):
    """Raised when an operation requires a Clifford-only circuit or gate."""


def _rz(phi: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]], dtype=complex)


def euler_unitary(phi1: float, phi2: float, phi3: float) -> np.ndarray:
    """Matrix of Z(phi1) X90 Z(phi2) X90 Z(phi3); phi3 acts first."""
    return _rz(phi1) @ RX90 @ _rz(phi2) @ RX90 @ _rz(phi3)


def _wrap_angle(phi: float) -> float:
    out = math.remainder(phi, 2 * math.pi)
    if out <= -math.pi + 1e-15:
        out = math.pi
    return out


def zxzxz_angles(u: np.ndarray, tol: float = 1e-9) -> tuple[float, float, float]:
    """Euler angles reproducing a 2x2 unitary up to global phase.

    Uses X90 Z(t) X90 = -i (sin(t/2) X-axis form), which pins |u00| and
    |u01| to sin/cos of phi2/2; the remaining phases fix phi1 and phi3.
    """
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
    if s > tol and c > tol:
        gamma = (np.angle(u[0, 1]) + np.angle(u[1, 0]) + math.pi) / 2.0
        sum13 = 2.0 * (gamma - _HALF_PI - np.angle(u[0, 0]))
        diff13 = 2.0 * (gamma - _HALF_PI - np.angle(u[0, 1]))
        phi1 = _wrap_angle((sum13 + diff13) / 2.0)
        phi3 = _wrap_angle((sum13 - diff13) / 2.0)
    elif s <= tol:
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


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator distance between 2x2 matrices modulo global phase."""
    inner = np.trace(a.conj().T @ b)
    if abs(inner) < 1e-12:
        return 2.0
    phase = inner / abs(inner)
    return float(np.max(np.abs(a * phase - b)))


class CliffordTableau:
    """Signed symplectic tableau of an n-qubit Clifford conjugation."""

    __slots__ = ("n", "x_images", "z_images")

    def __init__(self, n: int, x_images, z_images):
        self.n = n
        self.x_images = tuple(x_images)
        self.z_images = tuple(z_images)
        if len(self.x_images) != n or len(self.z_images) != n:
            raise ValueError("need one X and one Z image per qubit")

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        xs = [PauliString.single(n, q, "X") for q in range(n)]
        zs = [PauliString.single(n, q, "Z") for q in range(n)]
        return cls(n, xs, zs)

    def key(self) -> tuple:
        return tuple(
            (p.x_bits, p.z_bits, p.phase_exp) for p in self.x_images + self.z_images
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordTableau) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def validate(self) -> None:
        """Check the symplectic condition on all generator images."""
        for k in range(self.n):
            if self.x_images[k].commutes_with(self.z_images[k]):
                raise ValueError(f"images of X_{k} and Z_{k} must anticommute")
            for j in range(self.n):
                if j == k:
                    continue
                for img in (self.x_images[j], self.z_images[j]):
                    if not self.x_images[k].commutes_with(img):
                        raise ValueError(f"X_{k} image fails to commute with qubit {j}")
                    if not self.z_images[k].commutes_with(img):
                        raise ValueError(f"Z_{k} image fails to commute with qubit {j}")


def conjugate(t: CliffordTableau, p: PauliString) -> PauliString:
    """Image C P C' of a signed Pauli under the tableau's Clifford C."""
    if t.n != p.n:
        raise ValueError(f"size mismatch: tableau n={t.n}, Pauli n={p.n}")
    # P = i^e * i^{|x&z|} X^x Z^z; conjugation is multiplicative over factors.
    acc = PauliString(
        p.n, 0, 0, p.phase_exp + (p.x_bits & p.z_bits).bit_count()
    )
    bits = p.x_bits
    while bits:
        q = (bits & -bits).bit_length() - 1
        acc = multiply(acc, t.x_images[q])
        bits &= bits - 1
    bits = p.z_bits
    while bits:
        q = (bits & -bits).bit_length() - 1
        acc = multiply(acc, t.z_images[q])
        bits &= bits - 1
    return acc


def compose(first: CliffordTableau, second: CliffordTableau) -> CliffordTableau:
    """Tableau of running ``first`` and then ``second``."""
    if first.n != second.n:
        raise ValueError(f"size mismatch: {first.n} vs {second.n}")
    xs = [conjugate(second, img) for img in first.x_images]
    zs = [conjugate(second, img) for img in first.z_images]
    return CliffordTableau(first.n, xs, zs)


# ---------------------------------------------------------------------------
# single-qubit Clifford group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneQubitClifford:
    """One of the 24 single-qubit Clifford elements.

    ``x_image``/``z_image`` give (letter code, sign) of the conjugated axes;
    ``euler`` is the fixed-length Z-X90-Z-X90-Z decomposition; ``unitary``
    is a representative 2x2 matrix (global phase unspecified).
    """

    index: int
    x_image: tuple[int, int]
    z_image: tuple[int, int]
    euler: tuple[float, float, float]
    unitary: np.ndarray

    def conj_code(self, code: int) -> tuple[int, int]:
        """Image (code, sign) of a single letter under g P g'."""
        return _conj_table_cache()[self.index][code]


def _one_qubit_key(x_img: PauliString, z_img: PauliString) -> tuple:
    return (x_img.x_bits, x_img.z_bits, x_img.phase_exp, z_img.x_bits, z_img.z_bits, z_img.phase_exp)


@lru_cache(maxsize=1)
def one_qubit_cliffords() -> tuple[OneQubitClifford, ...]:
    """The 24 single-qubit Cliffords, generated by closure from {H, S}.

    Index 0 is the identity; the rest follow breadth-first discovery
    order, which is deterministic.
    """
    x0 = PauliString.single(1, 0, "X")
    z0 = PauliString.single(1, 0, "Z")
    h_tab = CliffordTableau(1, [z0], [x0])
    s_tab = CliffordTableau(1, [PauliString.single(1, 0, "Y")], [z0])
    gens = ((h_tab, _H), (s_tab, _S))

    found: dict[tuple, tuple[CliffordTableau, np.ndarray]] = {}
    ident = CliffordTableau.identity(1)
    queue = [(ident, np.eye(2, dtype=complex))]
    found[_one_qubit_key(*ident.x_images, *ident.z_images)] = queue[0]
    order = [queue[0]]
    while queue:
        tab, mat = queue.pop(0)
        for gen_tab, gen_mat in gens:
            new_tab = compose(tab, gen_tab)
            new_mat = gen_mat @ mat
            key = _one_qubit_key(new_tab.x_images[0], new_tab.z_images[0])
            if key not in found:
                entry = (new_tab, new_mat)
                found[key] = entry
                order.append(entry)
                queue.append(entry)
    if len(order) != 24:
        raise RuntimeError(f"closure produced {len(order)} elements, expected 24")

    elems = []
    for idx, (tab, mat) in enumerate(order):
        angles = _snap_clifford_angles(zxzxz_angles(mat), mat)
        xi = tab.x_images[0]
        zi = tab.z_images[0]
        elems.append(
            OneQubitClifford(
                index=idx,
                x_image=(xi.code(0), xi.sign),
                z_image=(zi.code(0), zi.sign),
                euler=angles,
                unitary=mat,
            )
        )
    return tuple(elems)


def _snap_clifford_angles(angles, mat) -> tuple[float, float, float]:
    grid = (0.0, _HALF_PI, math.pi, -_HALF_PI)
    snapped = tuple(min(grid, key=lambda g: abs(math.remainder(a - g, 2 * math.pi))) for a in angles)
    err = _phase_distance(euler_unitary(*snapped), mat)
    if err > 1e-12:
        raise RuntimeError(f"angle snapping failed, residual {err}")
    return snapped


@lru_cache(maxsize=1)
def _one_qubit_index() -> dict[tuple, int]:
    table = {}
    for elem in one_qubit_cliffords():
        key = (elem.x_image, elem.z_image)
        table[key] = elem.index
    return table


def _conj_code_by_images(x_image, z_image, code: int) -> tuple[int, int]:
    if code == 0:
        return (0, 1)
    n = 1
    imgs = {
        1: PauliString(n, *_code_bits(x_image[0]), 0 if x_image[1] == 1 else 2),
        3: PauliString(n, *_code_bits(z_image[0]), 0 if z_image[1] == 1 else 2),
    }
    if code in imgs:
        p = imgs[code]
    else:
        # Y = i X Z, conjugation preserves the relation
        p = multiply(imgs[1], imgs[3])
        p = PauliString(n, p.x_bits, p.z_bits, p.phase_exp + 1)
    return (p.code(0), p.sign)


def _code_bits(code: int) -> tuple[int, int]:
    return XZ_FROM_CODE[code]


@lru_cache(maxsize=1)
def _conj_table_cache() -> tuple[tuple[tuple[int, int], ...], ...]:
    table = []
    for elem in one_qubit_cliffords():
        row = tuple(
            _conj_code_by_images(elem.x_image, elem.z_image, code) for code in range(4)
        )
        table.append(row)
    return tuple(table)


@lru_cache(maxsize=1)
def _mult_table() -> np.ndarray:
    """24x24 table: index of the matrix product U_i @ U_j."""
    elems = one_qubit_cliffords()
    index = _one_qubit_index()
    table = np.zeros((24, 24), dtype=np.int64)
    tabs = [CliffordTableau(1, [_img_pauli(e.x_image)], [_img_pauli(e.z_image)]) for e in elems]
    for i, ti in enumerate(tabs):
        for j, tj in enumerate(tabs):
            prod = compose(tj, ti)  # j acts first under i @ j
            key = (
                (prod.x_images[0].code(0), prod.x_images[0].sign),
                (prod.z_images[0].code(0), prod.z_images[0].sign),
            )
            table[i, j] = index[key]
    return table


def _img_pauli(image: tuple[int, int]) -> PauliString:
    x, z = _code_bits(image[0])
    return PauliString(1, x, z, 0 if image[1] == 1 else 2)


def clifford_mult(i: int, j: int) -> int:
    """Group product: index of U_i @ U_j (j applied first)."""
    return int(_mult_table()[i, j])


@lru_cache(maxsize=1)
def _inverse_table() -> tuple[int, ...]:
    table = [0] * 24
    mt = _mult_table()
    for i in range(24):
        js = np.where(mt[i] == 0)[0]
        table[i] = int(js[0])
    return tuple(table)


def clifford_inverse_index(i: int) -> int:
    return _inverse_table()[i]


@lru_cache(maxsize=1)
def inverse_conjugation_codes() -> np.ndarray:
    """Read-only (24, 4) table: letter code of g' P g for Clifford index g
    and letter code P, signs dropped."""
    table = np.array(
        [
            [_conj_table_cache()[clifford_inverse_index(g)][code][0] for code in range(4)]
            for g in range(24)
        ],
        dtype=np.intp,
    )
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def twoq_conjugation_codes(gate: str) -> np.ndarray:
    """Read-only (16,) table: two-letter label of C P C' for the entangling
    gate C on qubits (0, 1) and label P (qubit 0 the high digit), signs
    dropped.  CZ and CNOT are involutions, so it also maps P to C' P C."""
    tab = from_gate(gate, (0, 1), 2)
    table = np.array(
        [conjugate(tab, PauliString.from_label(2, label)).label for label in range(16)],
        dtype=np.intp,
    )
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def _named_one_qubit_indices() -> dict[str, int]:
    index = _one_qubit_index()

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


def one_qubit_gate_index(name: str) -> int:
    try:
        return _named_one_qubit_indices()[name]
    except KeyError:
        raise ValueError(f"unknown one-qubit gate {name!r}") from None


# ---------------------------------------------------------------------------
# gate tableaux
# ---------------------------------------------------------------------------


def _embed_one_qubit(index: int, qubit: int, n: int) -> CliffordTableau:
    elem = one_qubit_cliffords()[index]
    xs = [PauliString.single(n, q, "X") for q in range(n)]
    zs = [PauliString.single(n, q, "Z") for q in range(n)]
    xc, xs_sign = elem.x_image
    zc, zs_sign = elem.z_image
    xb, zb = _code_bits(xc)
    xs[qubit] = PauliString(n, xb << qubit, zb << qubit, 0 if xs_sign == 1 else 2)
    xb, zb = _code_bits(zc)
    zs[qubit] = PauliString(n, xb << qubit, zb << qubit, 0 if zs_sign == 1 else 2)
    return CliffordTableau(n, xs, zs)


def from_gate(name: str, qubits, n: int) -> CliffordTableau:
    """Tableau of a named gate embedded on ``qubits`` of an n-qubit register.

    Supported names: CZ, CNOT, H, S, X, Y, Z, SX (the X90 pulse), and
    C0..C23 for the single-qubit Clifford group by index.
    """
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    name = name.upper()
    if name in ("CZ", "CNOT"):
        if len(qubits) != 2:
            raise ValueError(f"{name} needs two qubits, got {qubits}")
        a, b = qubits
        xs = [PauliString.single(n, q, "X") for q in range(n)]
        zs = [PauliString.single(n, q, "Z") for q in range(n)]
        if name == "CZ":
            xs[a] = multiply(xs[a], zs[b])
            xs[b] = multiply(PauliString.single(n, b, "X"), zs[a])
        else:
            xs[a] = multiply(xs[a], PauliString.single(n, b, "X"))
            zs[b] = multiply(zs[b], zs[a])
        return CliffordTableau(n, xs, zs)
    if len(qubits) != 1:
        raise ValueError(f"{name} is a one-qubit gate, got qubits {qubits}")
    if name.startswith("C") and name[1:].isdigit():
        index = int(name[1:])
        if not 0 <= index < 24:
            raise ValueError(f"Clifford index {index} out of range")
        return _embed_one_qubit(index, qubits[0], n)
    return _embed_one_qubit(one_qubit_gate_index(name), qubits[0], n)
