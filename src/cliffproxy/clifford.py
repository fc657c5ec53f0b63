"""Clifford action on signed Pauli strings, and the one-qubit group tables.

A tableau stores the signed images of the generators X_k and Z_k under
conjugation.  Conjugating an arbitrary Pauli decomposes it over the
generators and multiplies the corresponding images, so all phase tracking
reduces to the exact product rule in :mod:`cliffproxy.pauli`.

The module also builds the 24-element single-qubit Clifford group by
closure from {H, S} on 2x2 unitaries, each element carrying its unitary
and a fixed-length Euler decomposition Z(phi1) X90 Z(phi2) X90 Z(phi3)
with angles in {0, +-pi/2, pi}.  Every single-qubit gate in the package
is expanded in this same five-pulse form so that all of them see
identical noise exposure; :func:`euler_unitary` and :func:`zxzxz_angles`
convert stacks of angle rows to 2x2 matrices and back.  The signed
letter images of each element are read from its unitary; the group's
multiplication and inverse tables compose those rows.

Read-only letter-code tables serve every circuit walk:
:func:`inverse_conjugation_codes` over the 24 one-qubit elements,
:func:`pulse_fault_codes` for X90 pulse faults pushed to the end of each
element, and :func:`twoq_conjugation_codes`, from tableaux, for CZ and
CNOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliString, multiply

__all__ = [
    "CliffordTableau",
    "OneQubitClifford",
    "NotCliffordError",
    "conjugate",
    "compose",
    "from_gate",
    "one_qubit_cliffords",
    "clifford_mult",
    "inverse_conjugation_codes",
    "pulse_fault_codes",
    "twoq_conjugation_codes",
    "euler_unitary",
    "zxzxz_angles",
    "RX90",
]

_HALF_PI = math.pi / 2
# |u00| or |u01| at or below this reads as zero in zxzxz_angles
_EULER_TOL = 1e-9

RX90 = np.array([[1, -1j], [-1j, 1]], dtype=complex) / math.sqrt(2)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)

# the four letters in code order I, X, Y, Z
_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


class NotCliffordError(ValueError):
    """Raised when an operation requires a Clifford-only circuit or gate."""


def _rz(phi) -> np.ndarray:
    """(..., 2, 2) matrices of Z(phi) for each angle of ``phi``."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-0.5j * phi)
    out[..., 1, 1] = np.exp(0.5j * phi)
    return out


def euler_unitary(angles) -> np.ndarray:
    """(..., 2, 2) matrices of Z(phi1) X90 Z(phi2) X90 Z(phi3), phi3 acting
    first, for each row (phi1, phi2, phi3) of ``angles`` (..., 3)."""
    angles = np.asarray(angles, dtype=float)
    phi1, phi2, phi3 = (_rz(angles[..., k]) for k in range(3))
    return phi1 @ RX90 @ phi2 @ RX90 @ phi3


def _wrap_angle(phi: np.ndarray) -> np.ndarray:
    """Each angle of ``phi`` moved into (-pi, pi]."""
    # math.remainder is exact; numpy has no IEEE remainder
    flat = [math.remainder(x, 2 * math.pi) for x in phi.ravel().tolist()]
    out = np.array(flat, dtype=float).reshape(phi.shape)
    out[out <= -math.pi + 1e-15] = math.pi
    return out


def _elementwise(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``fn`` of two floats applied element by element."""
    return np.array(list(map(fn, x.ravel().tolist(), y.ravel().tolist())), dtype=float).reshape(x.shape)


def zxzxz_angles(u) -> np.ndarray:
    """(..., 3) Euler angles (phi1, phi2, phi3) reproducing each 2x2
    unitary of the stack ``u`` (..., 2, 2) up to global phase.

    Uses X90 Z(t) X90 = -i (sin(t/2) X-axis form), which pins |u00| and
    |u01| to sin/cos of phi2/2; the remaining phases fix phi1 and phi3.
    Raises ValueError if any matrix has a zero first row.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices")
    u00, u01, u10, u11 = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    # np.hypot on the parts rounds as a complex scalar's abs, while math's
    # hypot and atan2 differ from numpy's array forms in the last bit
    s, c = np.hypot(u00.real, u00.imag), np.hypot(u01.real, u01.imag)
    norm = _elementwise(math.hypot, s, c)
    if (norm < 1e-12).any():
        raise ValueError("matrix is not unitary")
    s, c = s / norm, c / norm
    a00, a01, a10, a11 = np.angle(u00), np.angle(u01), np.angle(u10), np.angle(u11)
    gamma = (a01 + a10 + math.pi) / 2.0
    sum13 = 2.0 * (gamma - _HALF_PI - a00)
    diff13 = 2.0 * (gamma - _HALF_PI - a01)
    general = (s > _EULER_TOL) & (c > _EULER_TOL)
    # phi2 = 0 leaves only phi1 - phi3 determined, phi2 = pi only phi1 + phi3
    zero = s <= _EULER_TOL
    phi1 = np.where(general, (sum13 + diff13) / 2.0, 0.0)
    phi2 = np.where(general, 2.0 * _elementwise(math.atan2, s, c), np.where(zero, 0.0, math.pi))
    phi3 = np.where(general, (sum13 - diff13) / 2.0, np.where(zero, a01 - a10, a11 - a00 - math.pi))
    return _wrap_angle(np.stack([phi1, phi2, phi3], axis=-1))


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


def _letter_images(u: np.ndarray) -> np.ndarray:
    """(..., 4, 2) table of (letter code, sign) of u P u' for each letter
    code P of each one-qubit Clifford u in the stack ``u`` (..., 2, 2):
    the one letter Q with tr(Q u P u') = +-2."""
    u = u[..., None, :, :]
    traces = np.einsum("qij,...pji->...pq", _PAULIS, u @ _PAULIS @ u.conj().swapaxes(-1, -2)).real
    codes = np.argmax(np.abs(traces), axis=-1)
    signs = np.sign(np.take_along_axis(traces, codes[..., None], axis=-1)[..., 0])
    return np.stack([codes, signs], axis=-1).astype(np.intp)


def _image_key(images: np.ndarray):
    """Key in [0, 64) of the signed X and Z images in a (..., 4, 2) table."""
    signed = 2 * images[..., 0] + (images[..., 1] < 0)
    return 8 * signed[..., 1] + signed[..., 3]


@lru_cache(maxsize=1)
def one_qubit_cliffords() -> tuple[OneQubitClifford, ...]:
    """The 24 single-qubit Cliffords, generated by closure from {H, S}.

    Index 0 is the identity; the rest follow breadth-first discovery
    order, which is deterministic.
    """
    mats = [np.eye(2, dtype=complex)]
    images = [_letter_images(mats[0])]
    seen = {int(_image_key(images[0]))}
    for mat in mats:  # elements appended here are visited in turn
        new_mats = [_H @ mat, _S @ mat]
        for new_mat, new_images in zip(new_mats, _letter_images(np.array(new_mats))):
            key = int(_image_key(new_images))
            if key not in seen:
                seen.add(key)
                mats.append(new_mat)
                images.append(new_images)
    if len(mats) != 24:
        raise RuntimeError(f"closure produced {len(mats)} elements, expected 24")
    euler = _snap_clifford_angles(zxzxz_angles(mats), np.array(mats)).tolist()
    return tuple(
        OneQubitClifford(
            index=idx,
            x_image=(int(img[1, 0]), int(img[1, 1])),
            z_image=(int(img[3, 0]), int(img[3, 1])),
            euler=tuple(angles),
            unitary=mat,
        )
        for idx, (mat, img, angles) in enumerate(zip(mats, images, euler))
    )


def _snap_clifford_angles(angles: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Each angle of the (..., 3) ``angles`` moved to the nearest multiple
    of pi/2 in (-pi, pi]; raises if a row then misses its 2x2 of ``mats``
    by more than 1e-12 up to global phase."""
    grid = np.array([0.0, _HALF_PI, math.pi, -_HALF_PI])
    snapped = grid[np.rint(angles / _HALF_PI).astype(int) % 4]
    recomposed = euler_unitary(snapped)
    inner = (recomposed.conj() * mats).sum(axis=(-2, -1))
    err = np.abs(recomposed * (inner / np.abs(inner))[..., None, None] - mats).max()
    if not err <= 1e-12:  # a zero overlap reads as NaN
        raise RuntimeError(f"angle snapping failed, residual {err}")
    return snapped


@lru_cache(maxsize=1)
def _element_tables() -> tuple[np.ndarray, np.ndarray]:
    """Read-only (24, 3) Euler angles and (24, 2, 2) unitaries by index."""
    elems = one_qubit_cliffords()
    euler, unitaries = np.array([e.euler for e in elems]), np.array([e.unitary for e in elems])
    euler.setflags(write=False)
    unitaries.setflags(write=False)
    return euler, unitaries


@lru_cache(maxsize=1)
def _conjugation_table() -> np.ndarray:
    """Read-only (24, 4, 2) table: (letter code, sign) of g P g' for index g
    and code P."""
    table = _letter_images(_element_tables()[1])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def _index_by_key() -> np.ndarray:
    """(64,) table: element index by the :func:`_image_key` of its images."""
    table = np.full(64, -1, dtype=np.int64)
    table[_image_key(_conjugation_table())] = np.arange(24)
    return table


@lru_cache(maxsize=1)
def _mult_table() -> np.ndarray:
    """24x24 table: index of the matrix product U_i @ U_j.

    U_i U_j maps P to U_i (U_j P U_j') U_i', so the images of the product
    are row j's letters mapped through row i, with the signs multiplied.
    """
    conj = _conjugation_table()
    outer = conj[:, conj[..., 0]]  # [i, j, P] = image under i of j's letter for P
    signs = outer[..., 1] * conj[None, :, :, 1]
    return _index_by_key()[_image_key(np.stack([outer[..., 0], signs], axis=-1))]


def clifford_mult(i: int, j: int) -> int:
    """Group product: index of U_i @ U_j (j applied first)."""
    return int(_mult_table()[i, j])


@lru_cache(maxsize=1)
def _inverse_table() -> tuple[int, ...]:
    return tuple(int(j) for j in np.argmax(_mult_table() == 0, axis=1))


@lru_cache(maxsize=1)
def inverse_conjugation_codes() -> np.ndarray:
    """Read-only (24, 4) table: letter code of g' P g for Clifford index g
    and letter code P, signs dropped."""
    table = _conjugation_table()[list(_inverse_table()), :, 0]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def pulse_fault_codes() -> np.ndarray:
    """Read-only (2, 24, 4) table: letter code of V' P V for X90 pulse k,
    Clifford index g and letter code P, signs dropped.

    V is what follows pulse k in the five-pulse form of g: Z(phi1) X90
    Z(phi2) after pulse 0, Z(phi1) after pulse 1.  A fault Q right after
    the pulse reaches the end of the gate as V Q V', so the table gives,
    for each letter P at the end, the fault that lands there.
    """
    phi1, phi2 = _rz(_element_tables()[0][:, :2].T)
    v = np.array([phi1 @ RX90 @ phi2, phi1])
    table = _letter_images(v.conj().swapaxes(-1, -2))[..., 0]
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
    index = _index_by_key()
    named = zip(("I", "X", "Y", "Z", "H", "S", "SX"), (*_PAULIS, _H, _S, RX90))
    return {name: int(index[_image_key(_letter_images(u))]) for name, u in named}


def one_qubit_gate_index(name: str) -> int:
    try:
        return _named_one_qubit_indices()[name]
    except KeyError:
        raise ValueError(f"unknown one-qubit gate {name!r}") from None


# ---------------------------------------------------------------------------
# gate tableaux
# ---------------------------------------------------------------------------


def from_gate(name: str, qubits, n: int) -> CliffordTableau:
    """Tableau of a CZ or CNOT embedded on ``qubits`` (control first) of an
    n-qubit register.  One-qubit Cliffords are reached by index through
    :func:`one_qubit_cliffords`."""
    qubits = tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"repeated qubit in {qubits}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
    name = name.upper()
    if name not in ("CZ", "CNOT"):
        raise ValueError(f"unknown two-qubit gate {name!r}")
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
