import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy.pauli import PauliString, commutes
from oracles import (
    backpropagate,
    circuit_tableau,
    circuit_unitary,
    euler_unitary,
    inverse,
    rz,
    tableau_cliffords,
    tableau_conjugation_table,
    tableau_mult_table,
    tableau_named_indices,
    zxzxz_angles,
)


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
        elem = cl.one_qubit_cliffords()[cl.one_qubit_gate_index("H")]
        # (letter code, sign) images: X -> +Z and Z -> +X
        assert elem.x_image == (3, 1)
        assert elem.z_image == (1, 1)

    def test_unknown_gate_and_bad_qubits(self):
        with pytest.raises(ValueError, match="unknown"):
            cl.from_gate("TOFFOLI", (0, 1), 2)
        with pytest.raises(ValueError, match="repeated"):
            cl.from_gate("CZ", (1, 1), 2)
        with pytest.raises(ValueError, match="range"):
            cl.from_gate("CNOT", (0, 3), 2)

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
        tab = cl.from_gate("CZ", (0, 1), 3)
        with pytest.raises(ValueError, match="mismatch"):
            cl.conjugate(tab, PauliString.from_text("XI"))


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
            assert 0 <= cl._inverse_table()[i] < 24
            assert cl.clifford_mult(i, cl._inverse_table()[i]) == 0
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


class TestTablesMatchTableauClosure:
    """The group tables read from unitaries, bit for bit against the
    closure on tableaux that ran in lockstep with the unitaries."""

    @pytest.fixture(scope="class")
    def elements(self):
        return tableau_cliffords()

    def test_elements(self, elements):
        for elem, (tab, mat) in zip(cl.one_qubit_cliffords(), elements, strict=True):
            x, z = tab.x_images[0], tab.z_images[0]
            assert elem.x_image == (x.code(0), x.sign)
            assert elem.z_image == (z.code(0), z.sign)
            assert elem.unitary.tobytes() == mat.tobytes()
            angles = cl._snap_clifford_angles(cl.zxzxz_angles(mat), mat)
            assert np.array_equal(elem.euler, angles)

    def test_group_tables(self, elements):
        tabs = [tab for tab, _ in elements]
        conj = tableau_conjugation_table(tabs)
        mult = tableau_mult_table(tabs)
        inv = np.argmax(mult == 0, axis=1)
        assert np.array_equal(cl._conjugation_table(), conj)
        assert np.array_equal([[cl.clifford_mult(i, j) for j in range(24)] for i in range(24)], mult)
        assert np.array_equal(cl._inverse_table(), inv)
        table = cl.inverse_conjugation_codes()
        assert not table.flags.writeable
        assert np.array_equal(table, conj[inv, :, 0])
        named = tableau_named_indices(tabs)
        assert {name: cl.one_qubit_gate_index(name) for name in named} == named

    def test_tables_match_per_element_images(self):
        # the batched images of all elements at once against one element
        # at a time
        elements = cl.one_qubit_cliffords()
        loop = [cl._letter_images(elem.unitary) for elem in elements]
        assert np.array_equal(cl._conjugation_table(), loop)
        loop = np.empty((2, 24, 4), dtype=np.intp)
        for g, elem in enumerate(elements):
            phi1, phi2, _ = elem.euler
            for pulse, v in enumerate((rz(phi1) @ cl.RX90 @ rz(phi2), rz(phi1))):
                loop[pulse, g] = cl._letter_images(v.conj().T)[:, 0]
        assert np.array_equal(cl.pulse_fault_codes(), loop)

    def test_pulse_fault_codes_against_transfer_matrices(self):
        table = cl.pulse_fault_codes()
        assert table.shape == (2, 24, 4)
        assert not table.flags.writeable
        for g, elem in enumerate(cl.one_qubit_cliffords()):
            phi1, phi2, _ = elem.euler
            z1, z2 = dn._rz_ptms(np.array([phi1, phi2]))
            after = (z1 @ dn._X90_PTM @ z2, z1)
            for pulse, r in enumerate(after):
                # row P of the transfer matrix of V expands V' P V over letters
                assert np.allclose(np.sort(np.abs(r), axis=1), [0, 0, 0, 1], atol=1e-12)
                assert np.array_equal(np.argmax(np.abs(r), axis=1), table[pulse, g])


class TestEulerAngles:
    def test_all_angles_on_grid_and_recompose(self):
        grid = {0.0, math.pi / 2, -math.pi / 2, math.pi}
        for e in cl.one_qubit_cliffords():
            assert set(e.euler) <= grid
            err = phase_aligned_distance(cl.euler_unitary(e.euler), e.unitary)
            assert err < 1e-12

    def test_identity_recomposes_to_identity(self):
        e = cl.one_qubit_cliffords()[0]
        assert phase_aligned_distance(cl.euler_unitary(e.euler), np.eye(2)) < 1e-12

    def test_composition_consistency(self):
        elems = cl.one_qubit_cliffords()
        rng = np.random.default_rng(28)
        for _ in range(50):
            i, j = (int(k) for k in rng.integers(24, size=2))
            u1 = cl.euler_unitary(elems[i].euler)
            u2 = cl.euler_unitary(elems[j].euler)
            u12 = cl.euler_unitary(elems[cl.clifford_mult(i, j)].euler)
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
            assert phase_aligned_distance(cl.euler_unitary(angles), u) < 1e-11

    def test_stacked_angles_match_per_gate_oracle(self):
        rng = np.random.default_rng(30)
        cliffords = cl._element_tables()[1]
        paulis = cliffords[[cl.one_qubit_gate_index(p) for p in "XYZ"], None]
        u = cl.euler_unitary(rng.uniform(-math.pi, math.pi, (300, 3)))
        diagonal = np.diag(np.exp([-0.3j, 0.7j]))
        antidiagonal = np.array([[0, np.exp(0.2j)], [np.exp(-1.1j), 0]])
        mats = np.concatenate([
            cliffords, (paulis @ u).reshape(-1, 2, 2), (u @ paulis).reshape(-1, 2, 2),
            [diagonal, antidiagonal],
        ])
        want = np.array([zxzxz_angles(m) for m in mats])
        # the Cliffords reach the general branch and both one-angle ones
        assert {0.0, math.pi / 2, math.pi} <= set(want[:24, 1])
        assert want[-2:, 1].tolist() == [math.pi, 0.0]
        assert np.array_equal(cl.zxzxz_angles(mats), want)
        assert np.array_equal(cl.zxzxz_angles(mats.reshape(2, -1, 2, 2)), want.reshape(2, -1, 3))

    def test_stacked_unitaries_match_per_gate_oracle(self):
        rng = np.random.default_rng(31)
        angles = np.concatenate([cl._element_tables()[0], rng.uniform(-4, 4, (10_000, 3))])
        want = np.array([euler_unitary(*row) for row in angles.tolist()])
        assert np.array_equal(cl.euler_unitary(angles), want)
        assert np.array_equal(cl.euler_unitary(angles.reshape(2, -1, 3)), want.reshape(2, -1, 2, 2))

    def test_singular_matrix_rejected(self):
        singular = np.array([[0, 0], [1, 0]])
        for fn in (zxzxz_angles, cl.zxzxz_angles):
            with pytest.raises(ValueError, match="not unitary"):
                fn(singular)
        with pytest.raises(ValueError, match="not unitary"):
            cl.zxzxz_angles(np.stack([np.eye(2), singular, np.eye(2)]))
