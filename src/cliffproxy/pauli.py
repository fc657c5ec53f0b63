"""Signed n-qubit Pauli strings in symplectic (x, z) bit representation.

Conventions used throughout the package:

* A Pauli operator is stored as ``i**phase_exp * W(x, z)`` where
  ``W(x, z) = T_0 (x) T_1 (x) ... (x) T_{n-1}`` is the tensor product of
  canonical letters ``T_q in {I, X, Y, Z}`` with per-qubit letter code
  ``(x_q, z_q)``: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).
* ``x_bits`` / ``z_bits`` are arbitrary-precision Python ints; bit ``q``
  belongs to qubit ``q``.  Word-parallel integer ops make products and
  symplectic forms O(n/64).
* Hermitian Paulis have ``phase_exp in {0, 2}`` (sign +1/-1); products can
  transiently carry ``+-i``.
* The integer *label* of an unsigned Pauli uses per-qubit digits
  I=0, X=1, Y=2, Z=3 with qubit 0 as the most significant digit, so the
  label order matches the reading order of the text form.
* Text form: optional sign prefix ("+"/"-", the unicode minus is accepted
  on parse), then one letter per qubit with qubit 0 leftmost,
  e.g. ``-XIZY``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PauliString",
    "PauliChannel",
    "multiply",
    "commutes",
    "sample_uniform",
    "sample_uniform_nonidentity",
    "sample_nonidentity_label",
    "SAMPLE_LIMIT",
    "pauli_walsh",
    "CODE_FROM_XZ",
    "XZ_FROM_CODE",
]

_LETTERS = "IXYZ"

# letter code <-> (x, z) bit pair
CODE_FROM_XZ = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
XZ_FROM_CODE = ((0, 0), (1, 0), (1, 1), (0, 1))

_PHASES = (1, 1j, -1, -1j)

# Walsh kernel over one qubit in (I, X, Y, Z) order: K[a, b] = +1 if the
# letters commute, -1 otherwise.  K is its own inverse up to a factor 4.
WALSH_KERNEL_1Q = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


@dataclass(frozen=True)
class PauliString:
    """A signed Pauli operator on ``n`` qubits."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("x/z bits outside the qubit range")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, n: int, label: int, sign: int = 1) -> "PauliString":
        """Build an unsigned-letter Pauli from its integer label."""
        if not 0 <= label < 4**n:
            raise ValueError(f"label {label} out of range for n={n}")
        x = z = 0
        for q in range(n - 1, -1, -1):
            xq, zq = XZ_FROM_CODE[label & 3]
            label >>= 2
            x |= xq << q
            z |= zq << q
        return cls(n, x, z, 0 if sign == 1 else 2)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse the canonical text encoding (qubit 0 leftmost)."""
        s = text.strip()
        sign = 1
        if s and s[0] in "+-−":
            if s[0] != "+":
                sign = -1
            s = s[1:]
        if not s:
            raise ValueError(f"empty Pauli string in {text!r}")
        x = z = 0
        for q, ch in enumerate(s):
            if ch not in _LETTERS:
                raise ValueError(f"bad Pauli letter {ch!r} in {text!r}")
            code = _LETTERS.index(ch)
            xq, zq = XZ_FROM_CODE[code]
            x |= xq << q
            z |= zq << q
        return cls(len(s), x, z, 0 if sign == 1 else 2)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, sign: int = 1) -> "PauliString":
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        code = _LETTERS.index(letter)
        xq, zq = XZ_FROM_CODE[code]
        return cls(n, xq << qubit, zq << qubit, 0 if sign == 1 else 2)

    # -- inspection ---------------------------------------------------

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    @property
    def sign(self) -> int:
        """+1 or -1; raises for imaginary phases."""
        if self.phase_exp == 0:
            return 1
        if self.phase_exp == 2:
            return -1
        raise ValueError("Pauli carries an imaginary phase, no real sign")

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    @property
    def is_identity(self) -> bool:
        """True when the letter part is all-identity (any phase)."""
        return self.x_bits == 0 and self.z_bits == 0

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        bits = self.x_bits | self.z_bits
        return tuple(q for q in range(self.n) if (bits >> q) & 1)

    @property
    def label(self) -> int:
        """Integer label of the letter part (sign dropped)."""
        out = 0
        for q in range(self.n):
            out = 4 * out + self.code(q)
        return out

    def code(self, qubit: int) -> int:
        return CODE_FROM_XZ[((self.x_bits >> qubit) & 1, (self.z_bits >> qubit) & 1)]

    def letter(self, qubit: int) -> str:
        return _LETTERS[self.code(qubit)]

    # -- algebra ------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def adjoint(self) -> "PauliString":
        return PauliString(self.n, self.x_bits, self.z_bits, -self.phase_exp)

    def negate(self) -> "PauliString":
        return PauliString(self.n, self.x_bits, self.z_bits, self.phase_exp + 2)

    def __str__(self) -> str:
        if self.phase_exp % 2:
            raise ValueError("text encoding only covers +-1 phases")
        body = "".join(self.letter(q) for q in range(self.n))
        return ("-" if self.phase_exp == 2 else "") + body

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (small-n oracle use only)."""
        single = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        m = np.array([[1]], dtype=complex)
        for q in range(self.n):
            m = np.kron(m, single[self.letter(q)])
        return self.phase * m


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Product ``p @ q`` with exact phase tracking over {1, i, -1, -i}."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n} qubits")
    x3 = p.x_bits ^ q.x_bits
    z3 = p.z_bits ^ q.z_bits
    g = (
        (p.x_bits & p.z_bits).bit_count()
        + (q.x_bits & q.z_bits).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (p.z_bits & q.x_bits).bit_count()
    )
    return PauliString(p.n, x3, z3, p.phase_exp + q.phase_exp + g)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic form of the letter parts is even."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n} qubits")
    return ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) % 2 == 0


SAMPLE_LIMIT = 31  # 4^n - 1 must fit the int64 bound of numpy's integer draw


def sample_uniform(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform over all 4^n letter strings (identity included), sign +1."""
    if not 1 <= n <= SAMPLE_LIMIT:
        raise ValueError(f"n must lie in [1, SAMPLE_LIMIT = {SAMPLE_LIMIT}], got {n}")
    return PauliString.from_label(n, int(rng.integers(4**n)))


def sample_nonidentity_label(n: int, rng: np.random.Generator) -> int:
    """Uniform over the 4^n - 1 non-identity labels.

    The identity observable carries no information for fidelity sampling,
    so it is excluded here and reweighted analytically by the estimators.
    """
    if not 1 <= n <= SAMPLE_LIMIT:
        raise ValueError(f"n must lie in [1, SAMPLE_LIMIT = {SAMPLE_LIMIT}], got {n}")
    return 1 + int(rng.integers(4**n - 1))


def sample_uniform_nonidentity(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform over the 4^n - 1 non-identity letter strings, sign +1."""
    return PauliString.from_label(n, sample_nonidentity_label(n, rng))


def pauli_walsh(vec: np.ndarray, n: int) -> np.ndarray:
    """Apply the tensor-power Walsh kernel over n qubits.

    Maps a Pauli-label probability vector to the diagonal of the channel's
    transfer matrix (its "eigenvalues"), and is its own inverse up to 4^n.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape != (4**n,):
        raise ValueError(f"expected length {4 ** n}, got {v.shape}")
    v = v.reshape((4,) * n) if n > 1 else v.copy()
    for axis in range(n):
        v = np.tensordot(WALSH_KERNEL_1Q, v, axes=([1], [axis]))
        v = np.moveaxis(v, 0, axis)
    return v.reshape(4**n)


@dataclass(frozen=True, eq=False)
class PauliChannel:
    """Probability distribution over unsigned Pauli labels on n qubits.

    ``probs[label]`` is the probability of conjugating by that Pauli.  The
    identity-label probability equals the channel's process fidelity.
    """

    n: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (4**self.n,):
            raise ValueError(f"expected {4 ** self.n} probabilities, got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("probabilities must be finite")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()}")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", p)

    @classmethod
    def identity(cls, n: int) -> "PauliChannel":
        p = np.zeros(4**n)
        p[0] = 1.0
        return cls(n, p)

    @classmethod
    def from_dict(cls, n: int, support: dict) -> "PauliChannel":
        """Build from {label-int-or-text: probability}."""
        p = np.zeros(4**n)
        for key, val in support.items():
            label = key if isinstance(key, int) else PauliString.from_text(key).label
            p[label] += val
        return cls(n, p)

    @property
    def p_identity(self) -> float:
        return float(self.probs[0])

    @property
    def infidelity(self) -> float:
        return 1.0 - self.p_identity

    def eigenvalues(self) -> np.ndarray:
        """Transfer-matrix diagonal in label order."""
        return pauli_walsh(self.probs, self.n)

    def sample(self, rng: np.random.Generator) -> PauliString:
        label = int(rng.choice(len(self.probs), p=self.probs))
        return PauliString.from_label(self.n, label)
