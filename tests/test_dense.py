import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliChannel, PauliString
from oracles import (
    apply_1q,
    apply_pauli,
    circuit_unitary,
    gate_unitary,
    layer_unitary_ptm,
    local_pauli,
    per_pattern_simulate,
)
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
        # trace preserving: the first row is (1, 0, ..., 0)
        assert np.array_equal(ptm.mat[0], np.eye(16)[0])

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

    def test_pulse_matrices_match_unitaries(self):
        assert np.max(np.abs(dn._X90_PTM - dn.ptm_of_unitary(cl.RX90, 1).mat)) < 1e-15
        phis = (0.0, 0.3, math.pi / 2, -math.pi / 2, math.pi, 2.5, -1.7)
        for phi, got in zip(phis, dn._rz_ptms(np.array(phis)), strict=True):
            want = dn.ptm_of_unitary(cl._rz(phi), 1).mat
            assert np.max(np.abs(got - want)) < 1e-15
        # the batched five-pulse builder, noiseless, over all angle triples
        triples = np.array(list(itertools.product(phis, repeat=3)))
        for angles, got in zip(triples, dn._gate_ptms_1q(triples, None), strict=True):
            want = dn.ptm_of_unitary(cl.euler_unitary(*angles), 1).mat
            assert np.max(np.abs(got - want)) < 1e-14

    def test_noiseless_clifford_first_row_exact(self):
        # the X90 literal and the Z(phi) rows keep the trace-preserving row
        # exact through every fused product, pairs and wraps included
        for n, gate in itertools.product((2, 3, 4), ("CZ", "CNOT")):
            circ = _ptm_case(n, "clifford", "ring", gate, 6, np.random.default_rng(n))
            first = dn.circuit_ptm(circ).mat[0]
            assert np.array_equal(first, np.eye(4**n)[0])

    def test_cnot_control_above_target(self):
        # control qubit 1 (least significant bit) flips target qubit 0
        circ = cc.LayeredCircuit(
            2, (cc.identity_layer(2), cc.TwoQubitLayer(((1, 0),), "CNOT"), cc.identity_layer(2))
        )
        u = np.eye(4)[[0, 3, 2, 1]]
        want = dn.ptm_of_unitary(u, 2).mat
        got = dn.circuit_ptm(circ).mat
        assert np.max(np.abs(got - want)) < 1e-12
        # X on the control spreads to the target: IX -> XX
        ix, xx = PauliString.from_text("IX").label, PauliString.from_text("XX").label
        assert got[xx, ix] == pytest.approx(1.0, abs=1e-12)


def _ptm_case(n, kind, topology, gate, depth, rng):
    """A brickwork circuit of ``kind`` one-qubit gates.  CNOT pairs are
    reversed, so the control sits above the target and the ring's (n-1, 0)
    wrap becomes (0, n-1); at n = 1 the entangling layers are empty."""
    if n == 1:
        layers = [cc._sample_1q_layer(1, kind, rng)]
        for _ in range(depth):
            layers += [cc.TwoQubitLayer((), gate), cc._sample_1q_layer(1, kind, rng)]
        return cc.LayeredCircuit(1, tuple(layers))
    base = cc.sample_brickwork(cc.BrickworkSpec(n, depth, topology), kind, rng)
    layers = []
    for layer in base.layers:
        if isinstance(layer, cc.TwoQubitLayer):
            pairs = layer.pairs if gate == "CZ" else tuple((b, a) for a, b in layer.pairs)
            layer = cc.TwoQubitLayer(pairs, gate)
        layers.append(layer)
    return cc.LayeredCircuit(n, tuple(layers))


class TestGateByGatePtm:
    """circuit_ptm against the transfer matrix built from layer unitaries."""

    # (depth, markovian, layer_offset, spam); markovian None runs noiseless
    RUNS = (
        (5, None, 0, False),
        (5, False, 3, True),
        (20, True, 3, True),
        (20, False, 0, False),
        (20, None, 3, True),
    )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("gate", ["CZ", "CNOT"])
    def test_matches_layer_unitary_oracle(self, n, gate):
        rng = np.random.default_rng(500 + 10 * n + (gate == "CNOT"))
        worst = 0.0
        for kind, topology in itertools.product(("haar", "clifford"), ("line", "ring")):
            for depth, markovian, offset, with_spam in self.RUNS:
                # the oracle spends about 5 ms on each n = 4 layer
                circ = _ptm_case(n, kind, topology, gate, min(depth, 5) if n == 4 else depth, rng)
                model = None if markovian is None else _fold_model(circ, rng, markovian, offset)
                spam = nz.SpamModel((0.01,) * n, (0.02,) * n, (0.05,) * n) if with_spam else None
                shifted = None if model is None else model.shifted(offset)
                got = dn.circuit_ptm(circ, shifted, spam).mat
                want = layer_unitary_ptm(circ, model, spam, layer_offset=offset).mat
                worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-12

    @pytest.mark.parametrize("kind", ["haar", "periodic"])
    def test_accuracy_shape(self, kind):
        # the accuracy scenario's targets: n = 2, depth 100 on a ring, which
        # lists the pair (1, 0) on every odd brick of the disordered target
        # and on every brick of this periodic one; per-qubit SPAM factors
        rng = np.random.default_rng(700 if kind == "haar" else 703)
        spec = cc.BrickworkSpec(2, 100, "ring")
        if kind == "haar":
            circ = cc.sample_brickwork(spec, "haar", rng)
        else:
            circ = cc.sample_periodic(spec, "haar", rng)
        assert circ.layers[3].pairs == ((1, 0),)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3, markovian=False)
        spam = nz.SpamModel((0.01, 0.03), (0.02, 0.01), (0.05, 0.04))
        for noise, with_spam in itertools.product((None, model), (None, spam)):
            got = dn.circuit_ptm(circ, noise, with_spam).mat
            want = layer_unitary_ptm(circ, noise, with_spam).mat
            assert np.max(np.abs(got - want)) < 1e-12


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
            assert res.value == pytest.approx(chan.infidelity, abs=1e-7)
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
        u = circuit_unitary(circ)
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
        # one n=3 solve, 9 iterations: about 33 s and 0.7 GB with one BLAS
        # thread, 22 s with two, mostly two dense solves of order 4097 each
        rng = np.random.default_rng(60)
        circ = cc.sample_brickwork(cc.BrickworkSpec(3, 4), "clifford", rng)
        model = nz.sample_error_model(circ, rng, 2e-2, 2e-3)
        chan = nz.fold_to_end(circ, model)
        res = dn.diamond_distance(dn.circuit_ptm(circ), dn.circuit_ptm(circ, model))
        assert res.value == pytest.approx(chan.infidelity, abs=1e-7)
        assert res.duality_gap <= 1e-8


class TestPauliChannelDiamond:
    """The closed form for Pauli channels, d_diamond = 1 - p_I, against the SDP."""

    @staticmethod
    def _sdp(ch):
        eye = dn.Ptm(ch.n, np.eye(4**ch.n))
        return dn.diamond_distance(eye, dn.Ptm(ch.n, np.diag(ch.eigenvalues()))).value

    def test_point_mass(self):
        ch = PauliChannel.identity(2)
        assert ch.infidelity == 0.0
        assert abs(self._sdp(ch)) < 1e-8

    def test_simple_mixture(self):
        ch = PauliChannel.from_dict(1, {"I": 0.99, "X": 0.01})
        assert ch.infidelity == pytest.approx(0.01)
        assert self._sdp(ch) == pytest.approx(ch.infidelity, abs=1e-7)


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


def _same_seed_case(kind, n, spam, markovian, offset, seed=20):
    template, rng = brickwork(n, 4, seed + n, kind)
    model = _fold_model(template, rng, markovian, offset)
    spam_model = nz.SpamModel.uniform(n, 0.05, 0.05) if spam else None
    return template, model, spam_model


def _assert_same_samples(circ, model, spam, offset, shots=1500, seed=21):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = per_pattern_simulate(circ, model, want_rng, shots, spam, offset)
    shifted = None if model is None else model.shifted(offset)
    got = dn.statevector_simulate(circ, shifted, got_rng, shots, spam=spam)
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# multiplier of the 128-bit LCG inside numpy's PCG64
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_first_drawing(u: float) -> np.random.Generator:
    """A PCG64 generator whose first ``random()`` is exactly ``u``.

    PCG64 steps its LCG, then outputs the high word xor the low word
    rotated by the top six bits; a stepped state whose high word is 0
    outputs its low word as it is, so start one step before that state.
    """
    bits = np.random.PCG64(0)
    state = bits.state
    inc = state["state"]["inc"]
    word = int(u * 2**53) << 11  # random() keeps the top 53 bits
    state["state"]["state"] = (word - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bits.state = state
    return np.random.Generator(bits)


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

    @pytest.mark.parametrize("kind", ["haar", "clifford"])
    def test_prep_flips_without_noise_model(self, kind):
        # prep flips draw from [1 - p, p, 0, 0]; the trailing zeros repeat
        # the last cumulative entry, and the zero-rate qubit draws nothing
        circ, _, _ = _same_seed_case(kind, 4, False, True, 0)
        spam = nz.SpamModel((0.3, 0.0, 0.1, 0.45), (0.05,) * 4, (0.02,) * 4)
        _assert_same_samples(circ, None, spam, 0)

    @pytest.mark.parametrize("kind", ["haar", "clifford"])
    def test_several_faults_per_shot(self, kind):
        # at one-qubit budget 0.1 most shots carry several faults, so the
        # pattern keys are long and their sorted order is exercised
        template, rng = brickwork(5, 4, 23, kind)
        model = nz.sample_error_model(template, rng, 5e-2, 0.1)
        spam = nz.SpamModel.uniform(5, 0.05, 0.05)
        _assert_same_samples(template, model, spam, 0)

    def test_uniform_on_a_cumulative_entry(self):
        # choice reads a uniform equal to a cumulative entry as the label
        # above it (searchsorted side="right"), and so must the sampler
        h = cc.CliffordGate1Q(cl.one_qubit_gate_index("H"))
        plus = cc.LayeredCircuit(1, (cc.OneQubitLayer((h,)),))
        probs = dn.ideal_output_probs(plus)
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        flip = nz.SpamModel((0.25,), (0.0,), (0.0,))
        # the first output uniform on the cumulative entry of |0>, and the
        # first prep-flip uniform on the cumulative 0.75 of rate 0.25
        for circ, spam, u in ((plus, None, cdf[0]), (cc.LayeredCircuit.identity(1), flip, 0.75)):
            assert _generator_first_drawing(u).random() == u
            want_rng, got_rng = _generator_first_drawing(u), _generator_first_drawing(u)
            got = dn.statevector_simulate(circ, None, got_rng, 3, spam=spam)
            np.testing.assert_array_equal(got, per_pattern_simulate(circ, None, want_rng, 3, spam))
            assert got[0] == 1
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_non_finite_output_rejected_like_choice(self):
        # a gate rejects a NaN angle when built; a layer that holds one all
        # the same, built from arrays, still fails the sampler
        with pytest.raises(ValueError, match="finite"):
            cc.EulerGate1Q(np.nan, 0.0, 0.0)
        layer = cc.OneQubitLayer._of(np.array([-1], dtype=np.int8), np.array([[np.nan, 0.0, 0.0]]))
        circ = cc.LayeredCircuit(1, (layer,))
        with pytest.raises(ValueError, match="output probabilities sum to nan"):
            dn.statevector_simulate(circ, None, np.random.default_rng(0), 2)
        for simulate in (dn.statevector_simulate, per_pattern_simulate):
            with pytest.raises(ValueError):
                simulate(circ, None, np.random.default_rng(0), 2)

    def test_noiseless_single_pattern(self):
        circ, _, _ = _same_seed_case("haar", 4, False, True, 0)
        _assert_same_samples(circ, None, None, 0)

    @pytest.mark.parametrize("kind", ["haar", "clifford"])
    @pytest.mark.parametrize("topology", ["line", "ring"])
    @pytest.mark.parametrize("gate", ["CZ", "CNOT"])
    def test_entanglers_with_high_qubit_first(self, kind, topology, gate):
        # every pair reversed, so each lists its high qubit first, and a
        # pair fault's first letter lands on the higher qubit
        rng = np.random.default_rng(40 + (gate == "CNOT") + 2 * (topology == "ring"))
        base = _ptm_case(4, kind, topology, "CNOT", 4, rng)
        circ = cc.LayeredCircuit(4, tuple(
            cc.TwoQubitLayer(layer.pairs, gate) if isinstance(layer, cc.TwoQubitLayer) else layer
            for layer in base.layers
        ))
        assert all(a > b for layer in circ.entangling_layers() for a, b in layer.pairs
                   if {a, b} != {0, 3})
        for markovian, offset in ((True, 0), (False, 3)):
            model = _fold_model(circ, rng, markovian, offset)
            _assert_same_samples(circ, model, nz.SpamModel.uniform(4, 0.05, 0.05), offset)

    def test_both_pulses_and_neighbour_fault_in_one_layer(self):
        # qubit 0's X90 pulses always fault, so every shot carries two
        # post-gate pulse operators on it, and most also carry its Clifford
        # neighbour's compiled fault and qubit 2's pulse faults in that layer
        h = cc.CliffordGate1Q(cl.one_qubit_gate_index("H"))
        euler = (cc.EulerGate1Q(0.3, -1.1, 2.0), cc.EulerGate1Q(-0.7, 0.4, 1.3))
        circ = cc.LayeredCircuit(3, (
            cc.OneQubitLayer((euler[0], h, euler[1])),
            cc.TwoQubitLayer(((1, 0),)),
            cc.OneQubitLayer((euler[1], euler[0], h)),
        ))
        one = {0: nz.GateNoise([0.0, 0.5, 0.3, 0.2]), 1: nz.GateNoise([0.6, 0.2, 0.1, 0.1]),
               2: nz.GateNoise([0.7, 0.1, 0.1, 0.1])}
        two = {("CZ", 0, 1): nz.GateNoise.from_rates(np.full(15, 0.01))}
        model = nz.NoiseModel(True, one, two)
        assert model.layer_tables(0, circ.layers[0], 3).probs[1, h.index, 0] < 0.5
        _assert_same_samples(circ, model, None, 0, shots=800)

    @pytest.mark.parametrize("kind, per_chunk", [("haar", 1), ("clifford", 3)])
    def test_composed_faults_across_chunks_n8(self, monkeypatch, kind, per_chunk):
        # several prep flips and pair faults per layer compose into one
        # Pauli per pattern; chunks of one or three patterns split them
        template, rng = brickwork(8, 3, 24, kind)
        model = nz.sample_error_model(template, rng, 0.2, 0.05)
        spam = nz.SpamModel.uniform(8, 0.1, 0.05)
        monkeypatch.setattr(dn, "_CHUNK_AMPLITUDES", per_chunk * 2**8)
        _assert_same_samples(template, model, spam, 0, shots=400)

    def test_fault_steps_match_faults_in_place(self):
        # overlapping Pauli faults compose, phase included, into the product
        # of the single faults; post-gate pulse operators give the gate with
        # the faults at its X90 pulses
        rng = np.random.default_rng(30)
        gates = tuple(cc.EulerGate1Q(*rng.uniform(-math.pi, math.pi, 3)) for _ in range(3))
        circ = cc.LayeredCircuit(3, (cc.OneQubitLayer(gates),))
        draws = [(-1, (0, 1), None), (-1, (2, 1), None), (-1, (0, 2), None), (-1, (1,), None),
                 (0, (0,), 0), (0, (0,), 1), (0, (1,), 1)]
        state = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        for _ in range(20):
            key = tuple((di, int(rng.integers(1, 4 ** len(d[1])))) for di, d in enumerate(draws))
            steps = dn._layer_faults(circ, draws, [key])
            got, want = state.copy(), state
            for apply, *args in steps[-1]:
                apply(got, *args)
            for di, lab in key[:4]:
                want = apply_pauli(want, local_pauli(3, draws[di][1], lab))
            np.testing.assert_array_equal(got, want)
            for q, gate in enumerate(gates):
                got = apply_1q(got, gate_unitary(gate), q)
            for apply, *args in steps[0]:
                apply(got, *args)
            pulse = {(draws[di][1][0], draws[di][2]): lab for di, lab in key[4:]}
            for q, gate in enumerate(gates):
                phi1, phi2, phi3 = gate.angles
                for u, k in ((cl._rz(phi3), None), (cl.RX90, 0), (cl._rz(phi2), None),
                             (cl.RX90, 1), (cl._rz(phi1), None)):
                    want = apply_1q(want, u, q)
                    if (q, k) in pulse:
                        want = apply_pauli(want, local_pauli(3, (q,), pulse[q, k]))
            assert np.max(np.abs(got - want)) < 1e-13

    def test_no_masked_array_import(self):
        # the sampler once pulled numpy.ma in through np.setdiff1d, some
        # 20 ms of import in every fresh process
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from cliffproxy import circuits as cc, dense as dn, noise as nz\n"
            "rng = np.random.default_rng(0)\n"
            "circ = cc.sample_brickwork(cc.BrickworkSpec(3, 2), 'haar', rng)\n"
            "model = nz.sample_error_model(circ, rng, 5e-2, 1e-2)\n"
            "spam = nz.SpamModel.uniform(3, 0.05, 0.05)\n"
            "dn.statevector_simulate(circ, model, rng, 500, spam=spam)\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        )
        src = os.path.dirname(os.path.dirname(cc.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_apply_pauli_batch_matches_columns(self):
        rng = np.random.default_rng(22)
        states = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        p = PauliString.from_text("-YXZ")
        batch = apply_pauli(states, p)
        for j in range(5):
            np.testing.assert_array_equal(batch[:, j], apply_pauli(states[:, j], p))
