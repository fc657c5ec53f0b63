import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy.pauli import PauliString, commutes
from oracles import backpropagate, circuit_tableau, circuit_unitary, inverse


def random_pauli(n, rng, signed=True):
    p = PauliString.from_label(n, int(rng.integers(4**n)))
    if signed and rng.integers(2):
        p = p.negate()
    return p


def random_clifford_circuit(n, depth, rng):
    return cc.sample_brickwork(cc.BrickworkSpec(n, depth), "clifford", rng)


def phase_aligned_distance(a, b):
    inner = np.trace(a.conj().T @ b)
    if abs(inner) < 1e-9:
        return np.inf
    return np.max(np.abs(a * inner / abs(inner) - b))


class TestGateActions:
    def test_cz_on_x(self):
        tab = cl.from_gate("CZ", (0, 1), 2)
        assert str(cl.conjugate(tab, PauliString.from_text("XI"))) == "XZ"
        assert str(cl.conjugate(tab, PauliString.from_text("IX"))) == "ZX"

    def test_h_swaps_x_and_z(self):
        tab = cl.from_gate("H", (0,), 1)
        assert str(cl.conjugate(tab, PauliString.from_text("X"))) == "Z"
        assert str(cl.conjugate(tab, PauliString.from_text("Z"))) == "X"

    def test_unknown_gate_and_bad_qubits(self):
        with pytest.raises(ValueError, match="unknown"):
            cl.from_gate("TOFFOLI", (0,), 2)
        with pytest.raises(ValueError, match="repeated"):
            cl.from_gate("CZ", (1, 1), 2)
        with pytest.raises(ValueError, match="range"):
            cl.from_gate("H", (3,), 2)

    @pytest.mark.parametrize("gate", ["CZ", "CNOT"])
    def test_twoq_conjugation_codes_against_unitary(self, gate):
        table = cl.twoq_conjugation_codes(gate)
        assert not table.flags.writeable
        circ = cc.LayeredCircuit(
            2, (cc.identity_layer(2), cc.TwoQubitLayer(((0, 1),), gate), cc.identity_layer(2))
        )
        u = circuit_unitary(circ)
        for label in range(16):
            dense = u @ PauliString.from_label(2, label).to_matrix() @ u.conj().T
            image = PauliString.from_label(2, int(table[label])).to_matrix()
            # equal up to the dropped sign
            assert abs(abs(np.trace(image.conj().T @ dense)) - 4) < 1e-12

    def test_dimension_mismatch(self):
        tab = cl.from_gate("H", (0,), 2)
        with pytest.raises(ValueError, match="mismatch"):
            cl.conjugate(tab, PauliString.from_text("X"))


class TestConjugationOracle:
    def test_against_dense_unitary(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            circ = random_clifford_circuit(4, 3, rng)
            tab = circuit_tableau(circ)
            p = random_pauli(4, rng)
            img = cl.conjugate(tab, p)
            u = circuit_unitary(circ)
            dense = u @ p.to_matrix() @ u.conj().T
            assert np.max(np.abs(dense - img.to_matrix())) < 1e-9

    def test_preserves_commutation(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            circ = random_clifford_circuit(3, 2, rng)
            tab = circuit_tableau(circ)
            p, q = random_pauli(3, rng), random_pauli(3, rng)
            assert commutes(p, q) == commutes(cl.conjugate(tab, p), cl.conjugate(tab, q))

    def test_hermitian_stays_hermitian(self):
        rng = np.random.default_rng(22)
        circ = random_clifford_circuit(5, 4, rng)
        tab = circuit_tableau(circ)
        for _ in range(50):
            img = cl.conjugate(tab, random_pauli(5, rng))
            assert img.is_hermitian


class TestGroupLaws:
    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 4):
            circ = random_clifford_circuit(max(n, 2), 3, rng)
            tab = circuit_tableau(circ)
            assert cl.compose(tab, inverse(tab)) == cl.CliffordTableau.identity(circ.n)
            assert cl.compose(inverse(tab), tab) == cl.CliffordTableau.identity(circ.n)

    def test_cnot_squared_is_identity(self):
        tab = cl.from_gate("CNOT", (0, 1), 2)
        assert cl.compose(tab, tab) == cl.CliffordTableau.identity(2)

    def test_composition_matches_dense(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            c1 = random_clifford_circuit(3, 2, rng)
            c2 = random_clifford_circuit(3, 2, rng)
            tab = cl.compose(circuit_tableau(c1), circuit_tableau(c2))
            u = circuit_unitary(c2) @ circuit_unitary(c1)
            p = random_pauli(3, rng)
            assert np.max(
                np.abs(u @ p.to_matrix() @ u.conj().T - cl.conjugate(tab, p).to_matrix())
            ) < 1e-9

    def test_validate_accepts_good_and_rejects_broken(self):
        tab = cl.from_gate("CZ", (0, 1), 2)
        tab.validate()
        bad = cl.CliffordTableau(
            2, [PauliString.from_text("XI"), PauliString.from_text("XI")],
            [PauliString.from_text("ZI"), PauliString.from_text("ZI")],
        )
        with pytest.raises(ValueError):
            bad.validate()


class TestBackpropagate:
    def test_cnot_control_x(self):
        circ = cc.LayeredCircuit(
            2,
            (
                cc.identity_layer(2),
                cc.TwoQubitLayer(((0, 1),), "CNOT"),
                cc.identity_layer(2),
            ),
        )
        # CNOT is self-inverse, so back-propagating X on the control gives XX
        assert str(backpropagate(circ, PauliString.from_text("XI"))) == "XX"

    def test_s_gate_on_y(self):
        s_index = cl.one_qubit_gate_index("S")
        circ = cc.LayeredCircuit(1, (cc.OneQubitLayer((cc.CliffordGate1Q(s_index),)),))
        assert str(backpropagate(circ, PauliString.from_text("Y"))) == "X"

    def test_roundtrip_on_deep_brickwork(self):
        rng = np.random.default_rng(25)
        circ = random_clifford_circuit(6, 20, rng)
        tab = circuit_tableau(circ)
        for _ in range(200):
            p = random_pauli(6, rng)
            assert cl.conjugate(tab, backpropagate(circ, p)) == p

    def test_rejects_non_clifford(self):
        rng = np.random.default_rng(26)
        circ = cc.sample_brickwork(cc.BrickworkSpec(2, 1), "haar", rng)
        with pytest.raises(cl.NotCliffordError):
            backpropagate(circ, PauliString.from_text("XI"))


class TestOneQubitGroup:
    def test_exactly_24_distinct_elements(self):
        elems = cl.one_qubit_cliffords()
        assert len(elems) == 24
        keys = {(e.x_image, e.z_image) for e in elems}
        assert len(keys) == 24

    def test_closed_under_composition_and_inverse(self):
        for i in range(24):
            assert 0 <= cl.clifford_inverse_index(i) < 24
            assert cl.clifford_mult(i, cl.clifford_inverse_index(i)) == 0
            for j in range(0, 24, 5):
                assert 0 <= cl.clifford_mult(i, j) < 24

    def test_mult_matches_matrices(self):
        elems = cl.one_qubit_cliffords()
        rng = np.random.default_rng(27)
        for _ in range(50):
            i, j = rng.integers(24, size=2)
            prod = elems[cl.clifford_mult(int(i), int(j))].unitary
            direct = elems[int(i)].unitary @ elems[int(j)].unitary
            assert phase_aligned_distance(prod, direct) < 1e-12


class TestEulerAngles:
    def test_all_angles_on_grid_and_recompose(self):
        grid = {0.0, math.pi / 2, -math.pi / 2, math.pi}
        for e in cl.one_qubit_cliffords():
            assert set(e.euler) <= grid
            err = phase_aligned_distance(cl.euler_unitary(*e.euler), e.unitary)
            assert err < 1e-12

    def test_identity_recomposes_to_identity(self):
        e = cl.one_qubit_cliffords()[0]
        assert phase_aligned_distance(cl.euler_unitary(*e.euler), np.eye(2)) < 1e-12

    def test_composition_consistency(self):
        elems = cl.one_qubit_cliffords()
        rng = np.random.default_rng(28)
        for _ in range(50):
            i, j = (int(k) for k in rng.integers(24, size=2))
            u1 = cl.euler_unitary(*elems[i].euler)
            u2 = cl.euler_unitary(*elems[j].euler)
            u12 = cl.euler_unitary(*elems[cl.clifford_mult(i, j)].euler)
            assert phase_aligned_distance(u1 @ u2, u12) < 1e-12

    def test_extraction_of_random_unitaries(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            u = np.array(
                [[q[0] - 1j * q[3], -q[2] - 1j * q[1]], [q[2] - 1j * q[1], q[0] + 1j * q[3]]]
            )
            angles = cl.zxzxz_angles(u)
            assert phase_aligned_distance(cl.euler_unitary(*angles), u) < 1e-11
