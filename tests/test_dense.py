import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliChannel, PauliString


def brickwork(n, depth, seed, kind="clifford"):
    rng = np.random.default_rng(seed)
    return cc.sample_brickwork(cc.BrickworkSpec(n, depth), kind, rng), rng


def single_gate_circuit(name):
    idx = cl.one_qubit_gate_index(name)
    return cc.LayeredCircuit(1, (cc.OneQubitLayer((cc.CliffordGate1Q(idx),)),))


class TestCircuitPtm:
    def test_identity(self):
        ptm = dn.circuit_ptm(cc.LayeredCircuit.identity(2))
        assert np.allclose(ptm.mat, np.eye(16))
        assert ptm.is_trace_preserving

    def test_x_gate_diagonal(self):
        ptm = dn.circuit_ptm(single_gate_circuit("X"))
        assert np.allclose(ptm.mat, np.diag([1, 1, -1, -1]))

    def test_clifford_ptms_are_orthogonal(self):
        circ, _ = brickwork(2, 3, 0)
        m = dn.circuit_ptm(circ).mat
        assert np.max(np.abs(m @ m.T - np.eye(16))) < 1e-12

    def test_noisy_diagonal_matches_fold(self):
        circ, rng = brickwork(3, 4, 1)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
        eig = nz.fold_eigenvalues(circ, model)
        err = dn.circuit_ptm(circ, model).mat @ dn.circuit_ptm(circ).mat.T
        assert np.max(np.abs(np.diag(err) - eig)) < 1e-12
        assert np.max(np.abs(err - np.diag(np.diag(err)))) < 1e-12

    def test_size_cap(self):
        circ, _ = brickwork(5, 1, 2)
        with pytest.raises(ValueError, match="capped"):
            dn.circuit_ptm(circ)


class TestProcessFidelity:
    def test_unitary_against_itself(self):
        circ, _ = brickwork(2, 2, 3)
        ptm = dn.circuit_ptm(circ)
        assert dn.process_fidelity(ptm, ptm) == pytest.approx(1.0, abs=1e-12)

    def test_global_depolarizing(self):
        n, p = 2, 0.3
        eye = dn.Ptm(n, np.eye(16))
        dep = np.eye(16) * (1 - p)
        dep[0, 0] = 1.0
        expect = (1 + (4**n - 1) * (1 - p)) / 4**n
        assert dn.process_fidelity(eye, dn.Ptm(n, dep)) == pytest.approx(expect)

    def test_pauli_channel_gives_p_identity(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(16) * 0.5)
        ch = PauliChannel(2, probs)
        noisy = dn.Ptm(2, np.diag(ch.eigenvalues()))
        eye = dn.Ptm(2, np.eye(16))
        assert dn.process_fidelity(eye, noisy) == pytest.approx(ch.p_identity, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dn.process_fidelity(dn.Ptm(1, np.eye(4)), dn.Ptm(2, np.eye(16)))


class TestAverageFidelity:
    def test_endpoints(self):
        assert dn.average_fidelity(1.0, 3) == pytest.approx(1.0)
        assert dn.average_fidelity(0.25, 1) == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dn.average_fidelity(1.2, 1)

    def test_haar_average_monte_carlo(self):
        # Haar-average output-state fidelity of a noisy channel matches the
        # conversion formula within Monte Carlo error
        n = 2
        circ, rng = brickwork(n, 2, 5)
        model = nz.sample_error_model(circ, rng, 5e-2, 5e-3)
        chan = nz.fold_to_end(circ, model)
        f_pro = chan.p_identity
        expect = dn.average_fidelity(f_pro, n)

        u = dn.circuit_unitary(circ)
        draws = 4000
        vals = np.empty(draws)
        for i in range(draws):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            out = u @ psi
            # apply the folded Pauli channel to the ideal output state
            fid = 0.0
            for label, p in enumerate(chan.probs):
                if p < 1e-15:
                    continue
                w = PauliString.from_label(n, label).to_matrix() @ out
                fid += p * abs(np.vdot(out, w)) ** 2
            vals[i] = fid
        sem = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - expect) < 3 * sem + 1e-12


class TestChoi:
    def test_identity_channel_is_bell_projector(self):
        choi = dn.choi_of_ptm(dn.Ptm(1, np.eye(4)))
        omega = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert np.max(np.abs(choi.mat - 2 * np.outer(omega, omega.conj()))) < 1e-12

    def test_cptp_properties(self):
        circ, rng = brickwork(2, 2, 6)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
        choi = dn.choi_of_ptm(dn.circuit_ptm(circ, model))
        n = 2
        assert abs(np.trace(choi.mat) - 2**n) < 1e-10
        eigs = np.linalg.eigvalsh(choi.mat)
        assert eigs.min() > -1e-9
        # trace preservation: tracing out the output factor leaves the identity
        reduced = np.einsum(
            "aiaj->ij", choi.mat.reshape(2**n, 2**n, 2**n, 2**n)
        )
        assert np.max(np.abs(reduced - np.eye(2**n))) < 1e-10


class TestDiamond:
    def test_identical_channels(self):
        circ, _ = brickwork(2, 2, 7)
        ptm = dn.circuit_ptm(circ)
        res = dn.diamond_distance(ptm, ptm)
        assert abs(res.value) < 1e-8

    def test_pauli_channel_closed_form(self):
        for seed in range(5):
            circ, rng = brickwork(2, 3, 30 + seed)
            model = nz.sample_error_model(circ, rng, 3e-2, 3e-3)
            chan = nz.fold_to_end(circ, model)
            res = dn.diamond_distance(dn.circuit_ptm(circ), dn.circuit_ptm(circ, model))
            assert res.value == pytest.approx(dn.pauli_channel_diamond(chan), abs=1e-7)
            assert res.duality_gap <= 1e-8

    def test_z_rotation_against_maximization_oracle(self):
        theta = 0.7
        # Z(phi1) X90 Z(pi) X90 Z(0) collapses to the bare rotation Z(phi1 + pi)
        gate = cc.EulerGate1Q(theta - math.pi, math.pi, 0.0)
        circ = cc.LayeredCircuit(1, (cc.OneQubitLayer((gate,)),))
        ident = cc.LayeredCircuit.identity(1)
        res = dn.diamond_distance(dn.circuit_ptm(ident), dn.circuit_ptm(circ))

        # brute force: maximize ancilla-assisted trace distance over pure
        # inputs by random search plus local refinement
        u = dn.circuit_unitary(circ)
        u_big = np.kron(u, np.eye(2))

        def objective(psi):
            psi = psi / np.linalg.norm(psi)
            overlap = np.vdot(psi, u_big @ psi)
            return math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2))

        rng = np.random.default_rng(8)
        best_val = -1.0
        best_psi = None
        for _ in range(3000):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            val = objective(psi)
            if val > best_val:
                best_val, best_psi = val, psi
        step = 0.3
        while step > 1e-7:
            improved = False
            for _ in range(60):
                cand = best_psi + step * (
                    rng.standard_normal(4) + 1j * rng.standard_normal(4)
                )
                val = objective(cand)
                if val > best_val:
                    best_val, best_psi = val, cand
                    improved = True
            if not improved:
                step *= 0.5
        assert res.value == pytest.approx(best_val, abs=1e-4)
        assert res.value == pytest.approx(math.sin(theta / 2), abs=1e-6)

    def test_symmetry_and_triangle(self):
        ptms = []
        rng = np.random.default_rng(9)
        for _ in range(3):
            circ = cc.sample_brickwork(cc.BrickworkSpec(2, 1), "haar", rng)
            model = nz.sample_error_model(circ, rng, 5e-2, 5e-3)
            ptms.append(dn.circuit_ptm(circ, model))
        d01 = dn.diamond_distance(ptms[0], ptms[1]).value
        d10 = dn.diamond_distance(ptms[1], ptms[0]).value
        d12 = dn.diamond_distance(ptms[1], ptms[2]).value
        d02 = dn.diamond_distance(ptms[0], ptms[2]).value
        assert d01 == pytest.approx(d10, abs=1e-7)
        assert d02 <= d01 + d12 + 1e-7

    def test_sandwich_bounds(self):
        # process infidelity <= half diamond norm <= summed layer infidelities
        for seed in range(5):
            rng = np.random.default_rng(50 + seed)
            circ = cc.sample_brickwork(cc.BrickworkSpec(2, 10), "haar", rng)
            model = nz.sample_error_model(circ, rng, 5e-3, 5e-4)
            ptm_i = dn.circuit_ptm(circ)
            ptm_n = dn.circuit_ptm(circ, model)
            r_u = 1.0 - dn.process_fidelity(ptm_i, ptm_n)
            r_bar = sum(nz.layer_infidelities(circ, model))
            d = dn.diamond_distance(ptm_i, ptm_n).value
            assert r_u - 1e-7 <= d <= r_bar + 1e-7

    def test_size_cap(self):
        eye = dn.Ptm(4, np.eye(256))
        with pytest.raises(ValueError, match="capped"):
            dn.diamond_distance(eye, eye)

    @pytest.mark.slow
    def test_three_qubit_best_effort(self):
        # a single n=3 solve takes tens of seconds: dense Newton systems in
        # 4^3-dimensional Hermitian space
        rng = np.random.default_rng(60)
        circ = cc.sample_brickwork(cc.BrickworkSpec(3, 4), "clifford", rng)
        model = nz.sample_error_model(circ, rng, 2e-2, 2e-3)
        chan = nz.fold_to_end(circ, model)
        res = dn.diamond_distance(dn.circuit_ptm(circ), dn.circuit_ptm(circ, model))
        assert res.value == pytest.approx(chan.infidelity, abs=1e-7)
        assert res.duality_gap <= 1e-8


class TestPauliChannelDiamond:
    def test_point_mass(self):
        assert dn.pauli_channel_diamond(PauliChannel.identity(2)) == 0.0

    def test_simple_mixture(self):
        ch = PauliChannel.from_dict(1, {"I": 0.99, "X": 0.01})
        assert dn.pauli_channel_diamond(ch) == pytest.approx(0.01)


class TestStatevector:
    def test_identity_circuit_all_zeros(self):
        rng = np.random.default_rng(10)
        samples = dn.statevector_simulate(cc.LayeredCircuit.identity(3), None, rng, 100)
        assert np.all(samples == 0)

    def test_ghz_circuit(self):
        h = cl.one_qubit_gate_index("H")
        n = 3
        layers = (
            cc.OneQubitLayer(
                (cc.CliffordGate1Q(h),) + (cc.CliffordGate1Q(0),) * (n - 1)
            ),
            cc.TwoQubitLayer(((0, 1),), "CNOT"),
            cc.identity_layer(n),
            cc.TwoQubitLayer(((1, 2),), "CNOT"),
            cc.identity_layer(n),
        )
        circ = cc.LayeredCircuit(n, layers)
        rng = np.random.default_rng(11)
        shots = 20_000
        samples = dn.statevector_simulate(circ, None, rng, shots)
        assert set(np.unique(samples)) <= {0, 7}
        frac = np.mean(samples == 0)
        assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / shots)

    def test_noisy_distribution_matches_transfer_matrix(self):
        circ, rng = brickwork(3, 3, 12)
        model = nz.sample_error_model(circ, rng, 2e-2, 2e-3)
        shots = 200_000
        samples = dn.statevector_simulate(circ, model, rng, shots)
        emp = np.bincount(samples, minlength=8) / shots

        # expected distribution from the dense noisy transfer matrix
        ptm = dn.circuit_ptm(circ, model).mat
        stack = dn._pauli_stack(3)
        rho_vec = np.array([np.trace(p) / 8 for p in stack])  # |0..0> components
        rho_in = np.real(
            np.array([stack[k][0, 0] for k in range(64)])
        )  # <0|P|0> per label
        out = ptm @ rho_in
        probs = np.zeros(8)
        for s in range(8):
            val = 0.0
            for k in range(64):
                val += out[k] * np.real(stack[k][s, s]) / 8
            probs[s] = val
        sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / shots)
        assert np.all(np.abs(emp - probs) < 5 * sigma + 1e-6)

    def test_spam_flips_applied(self):
        rng = np.random.default_rng(13)
        spam = nz.SpamModel.uniform(2, 0.0, 0.25)
        samples = dn.statevector_simulate(
            cc.LayeredCircuit.identity(2), None, rng, 50_000, spam=spam
        )
        ones = np.mean([(s >> 1) & 1 for s in samples])
        assert abs(ones - 0.25) < 0.01

    def test_size_cap(self):
        circ = cc.LayeredCircuit.identity(15)
        with pytest.raises(ValueError, match="capped"):
            dn.statevector_simulate(circ, None, np.random.default_rng(0), 1)


class TestIdealOutputProbs:
    def test_identity_point_mass(self):
        probs = dn.ideal_output_probs(cc.LayeredCircuit.identity(4))
        assert probs[0] == pytest.approx(1.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_uniform_superposition(self):
        h = cl.one_qubit_gate_index("H")
        circ = cc.LayeredCircuit(
            3, (cc.OneQubitLayer((cc.CliffordGate1Q(h),) * 3),)
        )
        probs = dn.ideal_output_probs(circ)
        assert np.allclose(probs, 1 / 8)

    def test_random_haar_normalised(self):
        circ, _ = brickwork(5, 4, 14, kind="haar")
        probs = dn.ideal_output_probs(circ)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
