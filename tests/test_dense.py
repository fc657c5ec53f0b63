import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliChannel, PauliString
from test_noise import _fold_model


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


def _check_against_ptm(circ, model, rng, shots=200_000):
    """Sampled distribution against the dense noisy transfer matrix."""
    n = circ.n
    samples = dn.statevector_simulate(circ, model, rng, shots)
    emp = np.bincount(samples, minlength=2**n) / shots
    ptm = dn.circuit_ptm(circ, model).mat
    stack = dn._pauli_stack(n)
    rho_in = np.real(stack[:, 0, 0])  # <0|P|0> per label
    out = ptm @ rho_in
    probs = np.real(np.einsum("k,kss->s", out, stack)) / 2**n
    sigma = np.sqrt(np.maximum(probs * (1 - probs), 1e-12) / shots)
    assert np.all(np.abs(emp - probs) < 5 * sigma + 1e-6)


def _per_pattern_simulate(circuit, noise, rng, shots, spam=None, layer_offset=0):
    """The sampler before batching, kept as the oracle: the same draws, then
    one statevector run per distinct fault pattern in sorted order."""
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
                chan = nz.layer_channel(circuit, li, noise, layer_offset)
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


def _same_seed_case(kind, n, spam, markovian, offset, seed=20):
    template, rng = brickwork(n, 4, seed + n, kind)
    model = _fold_model(template, rng, markovian, offset)
    spam_model = nz.SpamModel.uniform(n, 0.05, 0.05) if spam else None
    return template, model, spam_model


def _assert_same_samples(circ, model, spam, offset, shots=1500, seed=21):
    want = _per_pattern_simulate(
        circ, model, np.random.default_rng(seed), shots, spam, offset
    )
    got = dn.statevector_simulate(
        circ, model, np.random.default_rng(seed), shots, spam=spam, layer_offset=offset
    )
    np.testing.assert_array_equal(got, want)


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
        _check_against_ptm(circ, model, rng)

    def test_noisy_haar_distribution_matches_transfer_matrix(self):
        # Euler gates take their faults at the X90 pulses inside the gate,
        # which circuit_ptm treats exactly; strong one-qubit noise makes a
        # misplaced fault visible
        circ, rng = brickwork(3, 3, 15, kind="haar")
        model = nz.sample_error_model(circ, rng, 2e-2, 1e-1)
        _check_against_ptm(circ, model, rng)

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


class TestBatchedSampler:
    """Same seed, same bitstrings as the per-pattern oracle."""

    @pytest.mark.parametrize(
        "kind, n, spam, markovian, offset",
        [
            ("haar", 2, False, True, 0),
            ("haar", 3, True, False, 3),
            ("haar", 4, True, True, 3),
            ("haar", 5, False, False, 0),
            ("clifford", 2, True, False, 0),
            ("clifford", 3, False, True, 0),
            ("clifford", 4, False, False, 3),
            ("clifford", 5, True, True, 0),
        ],
    )
    def test_matches_per_pattern_oracle(self, kind, n, spam, markovian, offset):
        circ, model, spam_model = _same_seed_case(kind, n, spam, markovian, offset)
        _assert_same_samples(circ, model, spam_model, offset)

    @pytest.mark.parametrize("kind", ["haar", "clifford"])
    def test_zero_rate_gates_skipped_alike(self, kind):
        circ, model, spam = _same_seed_case(kind, 3, True, False, 0)
        # every other entry noiseless, so some gates draw no labels at all
        one = {k: nz.GateNoise.identity(1) if i % 2 else g
               for i, (k, g) in enumerate(sorted(model.one_qubit.items()))}
        two = {k: nz.GateNoise.identity(2) if i % 2 else g
               for i, (k, g) in enumerate(sorted(model.two_qubit.items()))}
        _assert_same_samples(circ, nz.NoiseModel(False, one, two), spam, 0)

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunk_boundaries(self, monkeypatch, per_chunk):
        circ, model, spam = _same_seed_case("haar", 3, True, True, 0)
        monkeypatch.setattr(dn, "_CHUNK_AMPLITUDES", per_chunk * 2**3)
        _assert_same_samples(circ, model, spam, 0)

    def test_noiseless_single_pattern(self):
        circ, _, _ = _same_seed_case("haar", 4, False, True, 0)
        _assert_same_samples(circ, None, None, 0)

    def test_apply_pauli_batch_matches_columns(self):
        rng = np.random.default_rng(22)
        states = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        p = PauliString.from_text("-YXZ")
        batch = dn.apply_pauli(states, p)
        for j in range(5):
            np.testing.assert_array_equal(batch[:, j], dn.apply_pauli(states[:, j], p))
