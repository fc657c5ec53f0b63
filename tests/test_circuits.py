import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import estimators as est
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliString, sample_uniform_nonidentity
from oracles import circuit_tableau, circuit_unitary, concatenate, gate_unitary, tableau_twirl


def phase_aligned_distance(a, b):
    inner = np.trace(a.conj().T @ b)
    if abs(inner) < 1e-9:
        return np.inf
    return np.max(np.abs(a * inner / abs(inner) - b))


class TestStructure:
    def test_brickwork_pairs_line(self):
        assert cc.brickwork_pairs(5, 0) == ((0, 1), (2, 3))
        assert cc.brickwork_pairs(5, 1) == ((1, 2), (3, 4))
        assert cc.brickwork_pairs(5, 2) == ((0, 1), (2, 3))

    def test_brickwork_pairs_ring(self):
        assert cc.brickwork_pairs(4, 1, "ring") == ((1, 2), (3, 0))
        # odd rings fall back to the line pattern
        assert cc.brickwork_pairs(5, 1, "ring") == ((1, 2), (3, 4))

    def test_layer_counts(self):
        rng = np.random.default_rng(0)
        circ = cc.sample_brickwork(cc.BrickworkSpec(4, 7), "clifford", rng)
        assert circ.depth == 7
        assert len(circ.layers) == 15
        assert isinstance(circ.layers[0], cc.OneQubitLayer)
        assert isinstance(circ.layers[-1], cc.OneQubitLayer)

    def test_alternation_enforced(self):
        with pytest.raises(ValueError, match="alternation"):
            cc.LayeredCircuit(
                2, (cc.identity_layer(2), cc.identity_layer(2))
            )
        with pytest.raises(ValueError, match="begin"):
            cc.LayeredCircuit(2, (cc.TwoQubitLayer(((0, 1),)),))

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="twice"):
            cc.LayeredCircuit(
                3,
                (
                    cc.identity_layer(3),
                    cc.TwoQubitLayer(((0, 1), (1, 2))),
                    cc.identity_layer(3),
                ),
            )

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            cc.BrickworkSpec(1, 3)

    def test_clifford_gate_frequencies(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(24)
        draws = 10_000
        circ = cc.sample_brickwork(cc.BrickworkSpec(4, draws // 8), "clifford", rng)
        for layer in circ.layers:
            if isinstance(layer, cc.OneQubitLayer):
                for g in layer.gates:
                    counts[g.index] += 1
        total = counts.sum()
        p = 1 / 24
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(counts > 0)
        assert np.all(np.abs(counts - total * p) < 5 * sigma)


class TestPeriodic:
    def test_all_repeated_layers_identical(self):
        rng = np.random.default_rng(2)
        circ = cc.sample_periodic(cc.BrickworkSpec(4, 6), "haar", rng)
        ent = circ.entangling_layers()
        assert all(l == ent[0] for l in ent)
        inner = [l for l in circ.layers[2:] if isinstance(l, cc.OneQubitLayer)]
        assert all(l == inner[0] for l in inner)
        assert circ.layers[0] == cc.identity_layer(4)

    def test_single_pair_has_brickwork_shape(self):
        rng = np.random.default_rng(3)
        per = cc.sample_periodic(cc.BrickworkSpec(5, 1), "clifford", rng)
        brick = cc.sample_brickwork(cc.BrickworkSpec(5, 1), "clifford", rng)
        assert len(per.layers) == len(brick.layers)
        assert [type(l) for l in per.layers] == [type(l) for l in brick.layers]
        per_pairs = {frozenset(p) for p in per.entangling_layers()[0].pairs}
        brick_patterns = [
            {frozenset(p) for p in cc.brickwork_pairs(5, k)} for k in (0, 1)
        ]
        assert per_pairs in brick_patterns

    def test_doubling_squares_the_tableau(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            half = cc.sample_periodic(cc.BrickworkSpec(4, 3), "clifford", rng)
            rng = np.random.default_rng(100 + seed)
            full = cc.sample_periodic(cc.BrickworkSpec(4, 6), "clifford", rng)
            t_half = circuit_tableau(half)
            assert cl.compose(t_half, t_half) == circuit_tableau(full)


class TestCliffordize:
    def test_entangling_layers_untouched(self):
        rng = np.random.default_rng(4)
        circ = cc.sample_brickwork(cc.BrickworkSpec(5, 4), "haar", rng)
        proxy = cc.cliffordize(circ, rng)
        assert circ.entangling_layers() == proxy.entangling_layers()
        assert not circ.is_clifford
        assert proxy.is_clifford

    def test_identity_gates_also_replaced(self):
        rng = np.random.default_rng(5)
        circ = cc.LayeredCircuit.identity(3)
        seen = set()
        for _ in range(200):
            proxy = cc.cliffordize(circ, rng)
            seen.update(g.index for g in proxy.layers[0].gates)
        assert len(seen) == 24

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_draws_like_one_layer_at_a_time(self, n):
        layers = (cc.identity_layer(n),) + (cc.TwoQubitLayer(()), cc.identity_layer(n)) * 3
        circ = cc.LayeredCircuit(n, layers)
        for seed in range(20):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            proxy = cc.cliffordize(circ, rng)
            oracle = [[int(k) for k in twin.integers(24, size=n)] for _ in range(4)]
            assert [[g.index for g in layer.gates] for layer in proxy.layers[::2]] == oracle
            assert proxy.layers[1::2] == circ.layers[1::2]
            assert rng.bit_generator.state == twin.bit_generator.state


def _twirl_cases(kind, rng, n=4):
    """Brickwork circuits on a line and a ring, with CZ layers and with CNOT
    layers; every other CNOT layer swaps control and target."""
    for topology in ("line", "ring"):
        for gate in ("CZ", "CNOT"):
            base = cc.sample_brickwork(cc.BrickworkSpec(n, 4, topology), kind, rng)
            layers = list(base.layers)
            for i in range(1, len(layers), 2):
                pairs = layers[i].pairs
                if gate == "CNOT" and i % 4 == 1:
                    pairs = tuple((b, a) for a, b in pairs)
                layers[i] = cc.TwoQubitLayer(pairs, gate)
            yield cc.LayeredCircuit(n, tuple(layers))


class TestPauliTwirl:
    def test_clifford_tableau_preserved_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            for circ in _twirl_cases("clifford", rng):
                twirled = cc.pauli_twirl(circ, rng)
                assert circuit_tableau(twirled) == circuit_tableau(circ)

    def test_dense_unitary_preserved_up_to_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            for circ in _twirl_cases("haar", rng):
                twirled = cc.pauli_twirl(circ, rng)
                err = phase_aligned_distance(
                    circuit_unitary(circ), circuit_unitary(twirled)
                )
                assert err < 1e-10

    @pytest.mark.parametrize("kind", ["clifford", "haar"])
    def test_matches_tableau_twirl(self, kind):
        # letter codes through the two-qubit table against the signed tableau
        rng = np.random.default_rng(12)
        for seed in range(10):
            for circ in _twirl_cases(kind, rng, n=2 + seed % 5):
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                assert cc.pauli_twirl(circ, got_rng) == tableau_twirl(circ, want_rng)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_width_above_the_sampling_limit_rejected(self):
        # the frames are drawn as one integer below 4^n, which numpy's
        # int64 draw cannot reach beyond n = 31
        rng = np.random.default_rng(14)
        widest = cc.sample_brickwork(cc.BrickworkSpec(31, 2), "clifford", rng)
        assert cc.pauli_twirl(widest, rng).n == 31
        circ = cc.sample_brickwork(cc.BrickworkSpec(32, 2), "clifford", rng)
        with pytest.raises(ValueError, match="SAMPLE_LIMIT = 31"):
            cc.pauli_twirl(circ, rng)

    def test_entangling_layers_untouched(self):
        rng = np.random.default_rng(8)
        circ = cc.sample_brickwork(cc.BrickworkSpec(4, 5), "haar", rng)
        twirled = cc.pauli_twirl(circ, rng)
        assert circ.entangling_layers() == twirled.entangling_layers()

    def test_average_twirled_channel_becomes_diagonal(self):
        # averaging a coherently-perturbed layer over twirls kills the
        # off-diagonal transfer-matrix entries at a 1/sqrt(samples) rate
        rng = np.random.default_rng(9)
        n = 2
        base = cc.LayeredCircuit(
            n,
            (
                cc.identity_layer(n),
                cc.TwoQubitLayer(((0, 1),)),
                cc.identity_layer(n),
            ),
        )
        angle = 0.15
        coherent = dn.ptm_of_unitary(
            circuit_unitary(
                cc.LayeredCircuit(
                    n,
                    (
                        cc.OneQubitLayer(
                            (cc.EulerGate1Q(angle, 0.0, 0.0), cc.CliffordGate1Q(0))
                        ),
                    ),
                )
            ),
            n,
        ).mat
        ideal = dn.circuit_ptm(base).mat

        def offdiag_norm(samples):
            acc = np.zeros((16, 16))
            for _ in range(samples):
                tw = cc.pauli_twirl(base, rng)
                m = dn.circuit_ptm(tw).mat
                # noisy layer: coherent error after the entangling layer,
                # conjugated into the twirled frame exactly as the noise sits
                frame_in = dn.circuit_ptm(
                    cc.LayeredCircuit(n, (tw.layers[0],))
                ).mat
                frame_out = dn.circuit_ptm(
                    cc.LayeredCircuit(n, (tw.layers[2],))
                ).mat
                cz = dn.circuit_ptm(cc.LayeredCircuit(n, (cc.identity_layer(n), tw.layers[1], cc.identity_layer(n)))).mat
                noisy = frame_out @ coherent @ cz @ frame_in
                acc += noisy @ ideal.T
            avg = acc / samples
            off = avg - np.diag(np.diag(avg))
            return np.linalg.norm(off)

        few = offdiag_norm(40)
        many = offdiag_norm(2000)
        assert many < few / 3.0


class TestScrambler:
    def test_default_depth(self):
        rng = np.random.default_rng(10)
        circ = cc.scrambling_circuit(6, rng=rng)
        assert circ.depth == 4

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            cc.scrambling_circuit(6, 0, np.random.default_rng(0))

    def test_weight_distribution_scrambled(self):
        # pushing a uniform non-identity Pauli through the scrambler gives a
        # weight distribution close to that of a fresh uniform sample
        rng = np.random.default_rng(11)
        n = 10
        trials = 10_000
        conj = cl._conjugation_table()[..., 0].tolist()
        weights = np.zeros(n + 1)
        for _ in range(trials):
            scr = cc.scrambling_circuit(n, 4, rng)
            p = sample_uniform_nonidentity(n, rng)
            # letters of L P L' through each layer L, signs dropped
            codes = [p.code(q) for q in range(n)]
            for layer in scr.layers:
                if isinstance(layer, cc.OneQubitLayer):
                    codes = [conj[g.index][c] for g, c in zip(layer.gates, codes)]
                    continue
                local_map = cl.twoq_conjugation_codes(layer.gate)
                for a, b in layer.pairs:
                    codes[a], codes[b] = divmod(int(local_map[4 * codes[a] + codes[b]]), 4)
            weights[n - codes.count(0)] += 1
        emp = weights / trials
        # exact weight distribution of a uniform non-identity Pauli
        from math import comb

        exact = np.array(
            [comb(n, w) * 3**w / (4**n - 1) if w else 0.0 for w in range(n + 1)]
        )
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.05


class TestHaar:
    def test_unitary_built_once_per_gate(self):
        gate = cc.haar_su2(np.random.default_rng(15))
        u = gate_unitary(gate)
        assert gate_unitary(gate) is u and not u.flags.writeable
        assert np.array_equal(u, cl.euler_unitary(*gate.angles))
        assert gate == cc.EulerGate1Q(*gate.angles)

    def test_unitary_to_1e12(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = gate_unitary(cc.haar_su2(rng))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_first_moment(self):
        rng = np.random.default_rng(13)
        draws = 100_000
        z_vals = np.empty(draws)
        for i in range(draws):
            u = gate_unitary(cc.haar_su2(rng))
            z_vals[i] = 1.0 - 2.0 * abs(u[1, 0]) ** 2  # <Z> on U|0>
        # Var(<Z>) = 1/3 for Haar states
        assert abs(z_vals.mean()) < 5 * np.sqrt(1 / 3 / draws)

    def test_second_moment(self):
        rng = np.random.default_rng(14)
        draws = 100_000
        p00 = np.empty(draws)
        for i in range(draws):
            u = gate_unitary(cc.haar_su2(rng))
            p00[i] = abs(u[0, 0]) ** 2
        # |<0|U|0>|^2 is uniform on [0, 1]: mean 1/2, var 1/12
        assert abs(p00.mean() - 0.5) < 5 * np.sqrt(1 / 12 / draws)


def _mixed_layer(n, rng):
    """A layer of Clifford and haar_su2 gates in random places."""
    return tuple(
        cc.CliffordGate1Q(int(rng.integers(24))) if rng.random() < 0.5 else cc.haar_su2(rng)
        for _ in range(n)
    )


class TestLayerArrays:
    def test_gates_round_trip_and_arrays_match(self):
        rng = np.random.default_rng(20)
        euler = [e.euler for e in cl.one_qubit_cliffords()]
        for n in (1, 2, 3, 5, 8):
            for _ in range(20):
                gates = _mixed_layer(n, rng)
                layer = cc.OneQubitLayer(gates)
                assert layer.gates == gates and layer.n == n
                assert layer.indices.dtype == np.int8 and layer.angles.shape == (n, 3)
                for q, g in enumerate(gates):
                    clifford = isinstance(g, cc.CliffordGate1Q)
                    assert layer.indices[q] == (g.index if clifford else -1)
                    assert tuple(layer.angles[q]) == (euler[g.index] if clifford else g.angles)
                    assert np.array_equal(layer.unitaries[q], gate_unitary(g))
                assert layer.is_clifford == all(isinstance(g, cc.CliffordGate1Q) for g in gates)
                assert layer.unitaries is layer.unitaries
                for arr in (layer.indices, layer.angles, layer.unitaries):
                    assert not arr.flags.writeable
                again = cc.OneQubitLayer(list(gates))
                assert again == layer and hash(again) == hash(layer)

    def test_unitaries_built_once_per_layer(self, monkeypatch):
        # ideal_output_probs and every sampler chunk share each layer's stack
        cl._element_tables()
        built, euler_unitary = [], cl.euler_unitary
        monkeypatch.setattr(cl, "euler_unitary", lambda *a: built.append(a) or euler_unitary(*a))
        monkeypatch.setattr(dn, "_CHUNK_AMPLITUDES", 16)  # two patterns a chunk
        rng = np.random.default_rng(23)
        circ = cc.sample_brickwork(cc.BrickworkSpec(3, 4), "haar", rng)
        model = nz.sample_error_model(circ, rng, 5e-2, 5e-3)
        dn.ideal_output_probs(circ)
        dn.statevector_simulate(circ, model, rng, 500)
        assert len(built) == 3 * 5

    def test_equality_follows_the_gates(self):
        rng = np.random.default_rng(21)
        gates = _mixed_layer(4, rng)
        layer = cc.OneQubitLayer(gates)
        for q in range(4):
            other = list(gates)
            other[q] = cc.CliffordGate1Q((getattr(gates[q], "index", 0) + 1) % 24)
            assert cc.OneQubitLayer(other) != layer
        assert cc.OneQubitLayer((cc.EulerGate1Q(-0.0, 0.0, 1.0),)) == cc.OneQubitLayer(
            (cc.EulerGate1Q(0.0, 0.0, 1.0),)
        )
        assert len({cc.OneQubitLayer((cc.EulerGate1Q(s * 0.0, 0.0, 1.0),)) for s in (1, -1)}) == 1

    def test_generators_build_no_gate_objects(self, monkeypatch):
        built = []
        for cls in (cc.CliffordGate1Q, cc.EulerGate1Q):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", lambda self, check=check: built.append(self) or check(self))
        rng = np.random.default_rng(22)
        target = cc.sample_brickwork(cc.BrickworkSpec(4, 3), "haar", rng)
        model = nz.sample_error_model(target, rng, 1e-2, 1e-3)
        built.clear()
        proxy = cc.cliffordize(target, rng)
        nz.cliffordization_infidelities(target, model, 3, rng)
        est.dfe(None, model, None, est.DfeConfig(5, 2, 10), rng, target=target)
        dn.statevector_simulate(target, model, rng, 200)
        dn.statevector_simulate(proxy, model, rng, 200)
        assert built == []
        assert proxy.layers[0].gates[0] is not None and built


class TestMalformedGates:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cc.EulerGate1Q(bad, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            cc.EulerGate1Q(0.0, 0.0, bad)
        data = cc.circuit_to_dict(cc.LayeredCircuit(1, (cc.OneQubitLayer((cc.EulerGate1Q(0.0, 1.0, 2.0),)),)))
        data["layers"][0]["gates"][0]["euler"][1] = repr(bad)
        with pytest.raises(ValueError, match="finite"):
            cc.circuit_from_dict(data)

    @pytest.mark.parametrize("bad", [-1, 24, 100, 1.5])
    def test_clifford_index_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="0..23"):
            cc.CliffordGate1Q(bad)
        data = {"n": 1, "layers": [{"type": "1q", "gates": [{"clifford": bad}]}]}
        if float(bad).is_integer():
            with pytest.raises(ValueError, match="0..23"):
                cc.circuit_from_dict(data)

    @pytest.mark.parametrize("bad", [3, None, "X", (0.0, 0.0, 0.0)])
    def test_entry_of_no_gate_type_rejected(self, bad):
        with pytest.raises(ValueError, match="neither"):
            cc.OneQubitLayer((bad,))
        with pytest.raises(ValueError, match="neither"):
            cc.OneQubitLayer((cc.CliffordGate1Q(0), bad))


class TestJsonRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(15)
        circ = cc.sample_brickwork(cc.BrickworkSpec(4, 3), "haar", rng)
        circ2 = cc.circuit_from_dict(cc.circuit_to_dict(circ))
        assert circ2 == circ

    def test_clifford_kind(self):
        rng = np.random.default_rng(16)
        circ = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "clifford", rng)
        assert cc.circuit_from_dict(cc.circuit_to_dict(circ)) == circ

    def test_json_serializable(self):
        import json

        rng = np.random.default_rng(17)
        circ = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "haar", rng)
        blob = json.dumps(cc.circuit_to_dict(circ))
        assert cc.circuit_from_dict(json.loads(blob)) == circ


class TestConcatenate:
    def test_unitary_is_product(self):
        rng = np.random.default_rng(18)
        c1 = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "haar", rng)
        c2 = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "haar", rng)
        joined = concatenate(c1, c2)
        err = phase_aligned_distance(
            circuit_unitary(c2) @ circuit_unitary(c1), circuit_unitary(joined)
        )
        assert err < 1e-10
        assert joined.depth == c1.depth + c2.depth

    def test_clifford_stays_clifford(self):
        rng = np.random.default_rng(19)
        c1 = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "clifford", rng)
        c2 = cc.sample_brickwork(cc.BrickworkSpec(3, 1), "clifford", rng)
        joined = concatenate(c1, c2)
        assert joined.is_clifford
        assert circuit_tableau(joined) == cl.compose(
            circuit_tableau(c1), circuit_tableau(c2)
        )
