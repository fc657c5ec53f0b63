import json
import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliString, pauli_walsh
from oracles import (
    circuit_tableau,
    gather_fold,
    inverse,
    layer_channel,
    layer_tableau,
    per_gate_compiled_channels,
    per_gate_fold,
    per_gate_walk,
    tableau_cliffords,
)


def brickwork(n, depth, seed, kind="clifford"):
    rng = np.random.default_rng(seed)
    return cc.sample_brickwork(cc.BrickworkSpec(n, depth), kind, rng), rng


def ks_uniform_pvalue(samples, hi):
    """Kolmogorov-Smirnov p-value against Uniform[0, hi]."""
    x = np.sort(np.asarray(samples)) / hi
    n = len(x)
    d_plus = np.max(np.arange(1, n + 1) / n - x)
    d_minus = np.max(x - np.arange(0, n) / n)
    d = max(d_plus, d_minus)
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return 2 * sum((-1) ** (k - 1) * math.exp(-2 * k**2 * lam**2) for k in range(1, 101))


class TestSampleErrorModel:
    def test_totals_uniform_on_budget(self):
        circ, rng = brickwork(2, 1, 0)
        totals = []
        model = None
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            model = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian=False)
            key = next(iter(model.two_qubit))
            totals.append(model.two_qubit[key].total)
        assert ks_uniform_pvalue(totals, 1e-3) > 0.01

    def test_rates_sum_to_total_exactly(self):
        circ, rng = brickwork(4, 3, 2)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        for g in list(model.two_qubit.values()) + list(model.one_qubit.values()):
            assert g.probs.sum() == pytest.approx(1.0, abs=1e-14)
            assert g.total == pytest.approx(g.probs[1:].sum(), abs=1e-15)

    def test_zero_budget_is_identity(self):
        circ, rng = brickwork(3, 2, 3)
        model = nz.sample_error_model(circ, rng, 0.0, 0.0)
        for g in list(model.two_qubit.values()) + list(model.one_qubit.values()):
            assert g.probs[0] == 1.0

    def test_invalid_budget(self):
        circ, rng = brickwork(2, 1, 4)
        with pytest.raises(ValueError):
            nz.sample_error_model(circ, rng, 1.5, 1e-4)

    def test_markovian_reuses_rates_across_layers(self):
        circ, rng = brickwork(4, 6, 5)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian=True)
        # layers 1 and 5 carry the same brick pattern, so the same keys
        assert model.twoq_noise(1, "CZ", (0, 1)) is model.twoq_noise(5, "CZ", (0, 1))
        nonmark = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian=False)
        assert nonmark.twoq_noise(1, "CZ", (0, 1)) is not nonmark.twoq_noise(5, "CZ", (0, 1))

    def test_missing_entry_raises(self):
        circ, rng = brickwork(3, 2, 6)
        model = nz.sample_error_model(circ, rng)
        with pytest.raises(KeyError, match="no two-qubit noise entry"):
            model.twoq_noise(0, "CZ", (0, 2))


class TestGateNoise:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        # a NaN fails every bound comparison, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            nz.GateNoise(np.array([bad, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            nz.GateNoise.from_rates([bad, 0.0, 0.0])
        data = {"markovian": True, "one_qubit": {"0": {"X": repr(float(bad))}}, "two_qubit": {}}
        with pytest.raises(ValueError, match="finite"):
            nz.noise_from_dict(data)


class TestCompiledOneQubit:
    def test_eigenvalue_rows_match_pauli_walsh(self):
        # bit for bit, row by row: identity, single-letter and random faults
        rng = np.random.default_rng(91)
        faults = list(np.eye(4))
        faults += [np.array([1 - p, 0.0, 0.0, 0.0]) + p * np.eye(4)[c] for p in (1e-4, 0.3) for c in (1, 2, 3)]
        faults += [rng.dirichlet(np.ones(4)) for _ in range(100)]
        faults += [
            nz.GateNoise.from_rates(rng.uniform(0, 1e-3) * rng.dirichlet(np.ones(3))).probs
            for _ in range(100)
        ]
        for eps in faults:
            probs, eig = nz._compile_1q(eps)
            for row, got in zip(probs[:24], eig):
                assert np.array_equal(got, pauli_walsh(row, 1))

    @pytest.mark.parametrize("markovian", [True, False])
    @pytest.mark.parametrize("budget", [1e-9, 1e-5, 1e-3, 1e-1])
    def test_tables_match_per_gate_oracle(self, budget, markovian):
        # bit for bit: the probability rows of all 24 Cliffords and the
        # Euler stand-in, and the eigenvalue table the folds read
        elements = tableau_cliffords()
        circ, rng = brickwork(3, 2, 90)
        model = nz.sample_error_model(circ, rng, 1e-3, budget, markovian)
        euler = cc.haar_su2(rng)
        for pos in range(0, len(circ.layers), 2):
            for q in range(circ.n):
                ref = per_gate_compiled_channels(model, pos, q, elements)
                got = [model.compiled_1q_channel(pos, q, cc.CliffordGate1Q(g)) for g in range(24)]
                got.append(model.compiled_1q_channel(pos, q, euler))
                assert np.array_equal(got, ref)
                eig = model.compiled_1q_eigenvalues(pos, q)
                assert np.array_equal(eig, [pauli_walsh(row, 1) for row in ref[:24]])
                assert not eig.flags.writeable


class TestLayerChannel:
    def test_noiseless_is_identity_point_mass(self):
        circ, rng = brickwork(3, 2, 7)
        model = nz.sample_error_model(circ, rng, 0.0, 0.0)
        chan = layer_channel(circ, 1, model)
        assert chan.p_identity == 1.0
        assert np.array_equal(chan.dense_eigenvalues(), np.ones(64))

    def test_single_cz_rate_becomes_global_channel(self):
        circ = cc.LayeredCircuit(
            2, (cc.identity_layer(2), cc.TwoQubitLayer(((0, 1),)), cc.identity_layer(2))
        )
        p = 3e-3
        rates = np.zeros(15)
        rates[PauliString.from_text("ZI").label - 1] = p
        model = nz.NoiseModel(
            True,
            {0: nz.GateNoise.identity(1), 1: nz.GateNoise.identity(1)},
            {("CZ", 0, 1): nz.GateNoise.from_rates(rates)},
        )
        chan = layer_channel(circ, 1, model)
        probs = pauli_walsh(chan.dense_eigenvalues(), 2) / 16
        assert probs[0] == pytest.approx(1 - p)
        assert probs[PauliString.from_text("ZI").label] == pytest.approx(p)
        assert probs.sum() == pytest.approx(1.0)

    def test_dense_diagonal_matches_walsh_transform(self):
        # against the Walsh transform of the global distribution: the
        # product of the local probabilities at each label's restrictions
        circ, rng = brickwork(3, 2, 8)
        model = nz.sample_error_model(circ, rng, 5e-2, 5e-3)
        labels = np.arange(64)
        for i in range(len(circ.layers)):
            chan = layer_channel(circ, i, model)
            probs = np.ones(64)
            touched = set()
            for qubits, local in chan.terms:
                probs *= local[_restriction(3, qubits, labels)]
                touched.update(qubits)
            # idle qubits carry no error
            idle = [q for q in range(3) if q not in touched]
            probs[_restriction(3, idle, labels) != 0] = 0.0
            eig = chan.dense_eigenvalues()
            assert np.max(np.abs(pauli_walsh(probs, 3) - eig)) < 1e-12


class TestFolding:
    def test_zero_noise_point_mass(self):
        circ, rng = brickwork(3, 4, 10)
        model = nz.sample_error_model(circ, rng, 0.0, 0.0)
        chan = nz.fold_to_end(circ, model)
        assert chan.p_identity == pytest.approx(1.0, abs=1e-14)

    def test_two_x_layers_convolve(self):
        # two bit-flip channels around a trivial layer: identity survives
        # with (1-a)(1-b) + a*b
        circ = cc.LayeredCircuit(
            1, (cc.identity_layer(1),)
        )
        a = 0.01
        eps = np.array([1 - a, a, 0.0, 0.0])
        model = nz.NoiseModel(True, {0: nz.GateNoise(eps)}, {})
        chan = nz.fold_to_end(circ, model)
        # the identity gate carries two X90 pulses, each with the X channel;
        # both conjugations keep the letter X
        expect = (1 - a) ** 2 + a**2
        assert chan.p_identity == pytest.approx(expect, abs=1e-14)
        assert chan.probs[1] == pytest.approx(2 * a * (1 - a), abs=1e-14)

    def test_fold_matches_monte_carlo(self):
        circ, rng = brickwork(4, 10, 11)
        model = nz.sample_error_model(circ, rng, 2e-2, 2e-3)
        folded = nz.fold_to_end(circ, model)

        # independent Monte Carlo: push each sampled layer fault through the
        # downstream layers by tableau conjugation, composing labels by XOR
        n = 4
        shots = 1_000_000
        mc = np.random.default_rng(12)
        suffix = cl.CliffordTableau.identity(n)
        suffix_maps = []
        for i in range(len(circ.layers) - 1, -1, -1):
            table = np.zeros(4**n, dtype=np.int64)
            for label in range(4**n):
                table[label] = cl.conjugate(suffix, PauliString.from_label(n, label)).label
            suffix_maps.append(table)
            suffix = cl.compose(layer_tableau(circ.layers[i], n), suffix)
        suffix_maps.reverse()

        net = np.zeros(shots, dtype=np.int64)
        for i in range(len(circ.layers)):
            chan = layer_channel(circ, i, model)
            for qubits, probs in chan.terms:
                draws = mc.choice(len(probs), size=shots, p=probs)
                glob = np.zeros(shots, dtype=np.int64)
                for j, q in enumerate(reversed(qubits)):
                    glob |= ((draws >> (2 * j)) & 3) << (2 * (n - 1 - q))
                net ^= suffix_maps[i][glob]
        counts = np.bincount(net, minlength=4**n)
        freq = counts / shots
        sigma = np.sqrt(np.maximum(folded.probs * (1 - folded.probs), 1e-12) / shots)
        assert np.all(np.abs(freq - folded.probs) < 5 * sigma + 2e-7)

    def test_noiseless_layers_do_not_change_p_identity(self):
        circ, rng = brickwork(3, 2, 13)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
        base = nz.fold_to_end(circ, model).p_identity
        extended = cc.concatenate(circ, cc.LayeredCircuit.identity(3))
        # give the appended identity layer zero noise while keeping the rest
        model2 = nz.NoiseModel(True, dict(model.one_qubit), dict(model.two_qubit))
        ext_eig = nz.fold_eigenvalues(circ, model2)
        assert nz.fold_to_end(circ, model2).p_identity == pytest.approx(base, abs=1e-15)
        assert 1.0 - ext_eig.mean() == pytest.approx(1.0 - base, abs=1e-15)

    def test_periodic_markovian_self_convolution(self):
        rng = np.random.default_rng(14)
        half = cc.sample_periodic(cc.BrickworkSpec(3, 2), "clifford", rng)
        rng = np.random.default_rng(14)
        full = cc.sample_periodic(cc.BrickworkSpec(3, 4), "clifford", rng)
        model = nz.sample_error_model(full, np.random.default_rng(15), 1e-2, 1e-3)
        # doubling the periodic circuit folds to the conjugated self-
        # convolution of the half, except that the structural leading
        # identity layer (and its channel e0) appears once, not twice:
        #   eig_full * (e0 o perm) == eig_half * (eig_half o perm)
        # with perm the conjugation by the half circuit.
        eig_half = nz.fold_eigenvalues(half, model)
        eig_full = nz.fold_eigenvalues(full, model)
        e0 = layer_channel(full, 0, model).dense_eigenvalues()
        tab = circuit_tableau(half)
        perm = np.zeros(64, dtype=np.int64)
        for label in range(64):
            perm[label] = cl.conjugate(inverse(tab), PauliString.from_label(3, label)).label
        assert np.max(np.abs(eig_full * e0[perm] - eig_half * eig_half[perm])) < 1e-12

    def test_above_limit_instructs_monte_carlo(self):
        circ, rng = brickwork(11, 1, 16)
        model = nz.sample_error_model(circ, rng)
        with pytest.raises(nz.FoldSizeError, match="Monte Carlo"):
            nz.fold_to_end(circ, model, limit=10)

    def test_non_clifford_rejected(self):
        rng = np.random.default_rng(17)
        circ = cc.sample_brickwork(cc.BrickworkSpec(2, 1), "haar", rng)
        model = nz.sample_error_model(circ, rng)
        with pytest.raises(cl.NotCliffordError):
            nz.fold_to_end(circ, model)

    def test_clipping_is_bounded(self, monkeypatch):
        circ, rng = brickwork(3, 6, 24)
        model = nz.sample_error_model(circ, rng, 2e-2, 2e-3)
        chan = nz.fold_to_end(circ, model)
        assert chan.probs.min() >= 0.0
        # eigenvalues of a "channel" with -1e-9 on the XII label
        probs = np.zeros(64)
        probs[0] = 1.0 + 1e-9
        probs[PauliString.from_text("XII").label] = -1e-9
        bad = pauli_walsh(probs, 3)
        monkeypatch.setattr(nz, "fold_eigenvalues", lambda *args, **kwargs: bad)
        with pytest.raises(ValueError, match="negative probability mass"):
            nz.fold_to_end(circ, model)


# ---------------------------------------------------------------------------
# oracle for the batched fold: the label-permutation fold it replaced, which
# walks the layers backward over dense 4^n label maps
# ---------------------------------------------------------------------------


def _restriction(n, qubits, labels):
    """Local label of each global label on ``qubits`` (first qubit most
    significant)."""
    idx = np.zeros_like(labels)
    for q in qubits:
        idx = 4 * idx + ((labels >> (2 * (n - 1 - q))) & 3)
    return idx


def _conj_dagger_perm(layer, n, labels):
    """Label permutation Q -> label(C' Q C) for one Clifford layer."""
    if isinstance(layer, cc.OneQubitLayer):
        out = np.zeros_like(labels)
        for q, gate in enumerate(layer.gates):
            local = cl._conjugation_table()[cl._inverse_table()[gate.index], :, 0]
            out += local[(labels >> (2 * (n - 1 - q))) & 3] << (2 * (n - 1 - q))
        return out
    tab = cl.from_gate(layer.gate, (0, 1), 2)
    local = np.array(
        [cl.conjugate(tab, PauliString.from_label(2, c)).label for c in range(16)]
    )
    out = labels.copy()
    for a, b in layer.pairs:
        sa, sb = 2 * (n - 1 - a), 2 * (n - 1 - b)
        mapped = local[4 * ((labels >> sa) & 3) + ((labels >> sb) & 3)]
        out = (out & ~((3 << sa) | (3 << sb))) | ((mapped >> 2) << sa) | ((mapped & 3) << sb)
    return out


def _oracle_fold(circuit, noise, layer_offset=0):
    n = circuit.n
    labels = np.arange(4**n, dtype=np.int64)
    eig = np.ones(4**n)
    mapping = labels.copy()
    for i in range(len(circuit.layers) - 1, -1, -1):
        chan = layer_channel(circuit, i, noise, layer_offset)
        dense = np.ones(4**n)
        for qubits, probs in chan.terms:
            dense *= pauli_walsh(probs, len(qubits))[_restriction(n, qubits, labels)]
        eig *= dense[mapping]
        mapping = _conj_dagger_perm(circuit.layers[i], n, labels)[mapping]
    return eig


def _fold_case(n, topology, gate, rng):
    """A random Clifford template; CNOT pairs are reversed so that the
    control sits above the target on the (0, 1)-style bricks."""
    if n == 1:
        layers = (cc.identity_layer(1), cc.TwoQubitLayer(())) * 3 + (cc.identity_layer(1),)
        return cc.cliffordize(cc.LayeredCircuit(1, layers), rng)
    base = cc.sample_brickwork(cc.BrickworkSpec(n, 5, topology), "clifford", rng)
    layers = []
    for layer in base.layers:
        if isinstance(layer, cc.TwoQubitLayer):
            pairs = layer.pairs if gate == "CZ" else tuple((b, a) for a, b in layer.pairs)
            layer = cc.TwoQubitLayer(pairs, gate)
        layers.append(layer)
    return cc.LayeredCircuit(n, tuple(layers))


def _fold_model(template, rng, markovian, layer_offset):
    """Strong-noise model whose non-Markovian keys sit at shifted positions."""
    model = nz.sample_error_model(template, rng, 5e-2, 5e-3, markovian)
    if markovian:
        return model
    return nz.NoiseModel(
        False,
        {(pos + layer_offset, q): g for (pos, q), g in model.one_qubit.items()},
        {(key[0] + layer_offset,) + key[1:]: g for key, g in model.two_qubit.items()},
    )


class TestBatchedFold:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("gate", ["CZ", "CNOT"])
    def test_matches_label_permutation_oracle(self, n, gate):
        rng = np.random.default_rng(300 + 10 * n + (gate == "CNOT"))
        worst = 0.0
        for topology in ("line", "ring"):
            template = _fold_case(n, topology, gate, rng)
            for markovian in (True, False):
                for offset in (0, 3):
                    model = _fold_model(template, rng, markovian, offset)
                    for k in (1, 5):
                        circs = [cc.cliffordize(template, rng) for _ in range(k)]
                        batch = nz.process_infidelities_exact(
                            (c for c in circs), model, layer_offset=offset
                        )
                        single = [
                            nz.process_infidelity_exact(c, model, layer_offset=offset)
                            for c in circs
                        ]
                        assert np.array_equal(batch, single)
                        for c, r in zip(circs, batch):
                            want = _oracle_fold(c, model, offset)
                            got = nz.fold_eigenvalues(c, model, layer_offset=offset)
                            worst = max(
                                worst,
                                np.max(np.abs(got - want)),
                                abs(r - (1.0 - want.mean())),
                            )
        assert worst < 1e-13

    def test_ring_wraparound_pair_is_folded(self):
        # the (n-1, 0) brick of an even ring, in both CNOT orientations
        rng = np.random.default_rng(330)
        for pair in ((3, 0), (0, 3)):
            layers = (cc.identity_layer(4), cc.TwoQubitLayer((pair,), "CNOT"),
                      cc.identity_layer(4))
            circ = cc.cliffordize(cc.LayeredCircuit(4, layers), rng)
            model = nz.sample_error_model(circ, rng, 5e-2, 5e-3)
            got = nz.fold_eigenvalues(circ, model)
            assert np.max(np.abs(got - _oracle_fold(circ, model))) < 1e-13

    def test_mismatched_batches_rejected(self):
        rng = np.random.default_rng(331)
        template = _fold_case(3, "line", "CZ", rng)
        model = nz.sample_error_model(template, rng)
        good = cc.cliffordize(template, rng)
        other_pairs = cc.LayeredCircuit(
            3,
            tuple(
                cc.TwoQubitLayer(((0, 2),)) if isinstance(layer, cc.TwoQubitLayer) else layer
                for layer in good.layers
            ),
        )
        shorter = cc.LayeredCircuit(3, good.layers[:-2])
        wider = _fold_case(4, "line", "CZ", rng)
        for bad in (other_pairs, shorter, wider):
            with pytest.raises(ValueError, match="batched folds"):
                nz.process_infidelities_exact([good, bad], model)

    def test_batch_raises_the_single_circuit_errors(self):
        rng = np.random.default_rng(332)
        target = cc.sample_brickwork(cc.BrickworkSpec(2, 3), "haar", rng)
        model = nz.sample_error_model(target, rng)
        proxy = cc.cliffordize(target, rng)
        with pytest.raises(cl.NotCliffordError):
            nz.process_infidelity_exact(target, model)
        with pytest.raises(cl.NotCliffordError):
            nz.process_infidelities_exact([proxy, target], model)
        with pytest.raises(nz.FoldSizeError):
            nz.process_infidelity_exact(proxy, model, limit=1)
        with pytest.raises(nz.FoldSizeError):
            nz.process_infidelities_exact(iter([proxy, proxy]), model, limit=1)

    def test_empty_batch(self):
        circ, rng = brickwork(2, 2, 333)
        model = nz.sample_error_model(circ, rng)
        assert nz.process_infidelities_exact(iter(()), model).shape == (0,)


class TestFusedFold:
    """The fold's fused steps against one gather per gate and layer, and
    against the same tables gathered to the front of the array."""

    @staticmethod
    def _cases(n, rng):
        """(template, model, offset): a lone one-qubit layer, and brickwork
        with idle qubits (line) and the (n-1, 0) brick (even ring), with CZ
        and with CNOT pairs listed high qubit first, Markovian or not, at
        offsets 0 and 3; n = 1 has empty entangling layers."""
        templates = [cc.LayeredCircuit(n, (cc.identity_layer(n),))]
        for topology in ("line", "ring"):
            for gate in ("CZ", "CNOT"):
                templates.append(_fold_case(n, topology, gate, rng))
        for template in templates:
            for markovian in (True, False):
                for offset in (0, 3):
                    yield template, _fold_model(template, rng, markovian, offset), offset

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_gate_fold(self, n):
        rng = np.random.default_rng(340 + n)
        worst = 0.0
        for template, model, offset in self._cases(n, rng):
            for k in (1, 5):
                gates = cc._draw_cliffords(rng, k, len(template.layers[::2]), n)
                got = nz._fold(template, gates, model, offset)
                want = per_gate_fold(template, gates, model, offset)
                assert got.shape == want.shape == (k, 4**n)
                worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_gather_fold(self, n):
        # bit for bit, and a circuit's row is the one it gets folded alone;
        # one circuit per batch from n = 9 to keep the test short
        rng = np.random.default_rng(360 + n)
        k = 1 if n >= 9 else 5
        for template, model, offset in self._cases(n, rng):
            gates = cc._draw_cliffords(rng, k, len(template.layers[::2]), n)
            got = nz._fold(template, gates, model, offset)
            assert np.array_equal(got, gather_fold(template, gates, model, offset))
            if k > 1:
                for row, alone in zip(got, gates):
                    assert np.array_equal(nz._fold(template, alone[None], model, offset)[0], row)


class TestPropagateCodes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_per_gate_walk(self, n):
        # equal, not close: the per-layer tables hold the model's values and
        # the walk takes the same products in the same order; two circuits
        # share each model's tables
        rng = np.random.default_rng(450 + n)
        for topology in ("line", "ring"):
            for gate in ("CZ", "CNOT"):
                template = _fold_case(n, topology, gate, rng)
                for markovian in (True, False):
                    for offset in (0, 3):
                        model = _fold_model(template, rng, markovian, offset)
                        for _ in range(2):
                            circ = cc.cliffordize(template, rng)
                            for noise in (model, None):
                                for codes in rng.integers(0, 4, (10, n)).tolist():
                                    got = nz.propagate_codes(circ, noise, codes, offset)
                                    assert got == per_gate_walk(circ, noise, codes, offset)


def _haar_target(n, kind, rng):
    """A disordered or periodic Haar target; at n = 1 the same shapes are
    built by hand around empty entangling layers."""
    if n > 1:
        sampler = cc.sample_brickwork if kind == "disordered" else cc.sample_periodic
        return sampler(cc.BrickworkSpec(n, 4, "ring"), "haar", rng)
    unit = cc.OneQubitLayer((cc.haar_su2(rng),))
    layers = [unit]
    for _ in range(4):
        layer = unit if kind == "periodic" else cc.OneQubitLayer((cc.haar_su2(rng),))
        layers += [cc.TwoQubitLayer(()), layer]
    return cc.LayeredCircuit(1, tuple(layers))


class TestCliffordizationInfidelities:
    """The drawn-index path against folding cliffordize's circuits."""

    @staticmethod
    def _both(target, model, k, seed, offset=0):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = nz.cliffordization_infidelities(target, model, k, rng, layer_offset=offset)
        want = nz.process_infidelities_exact(
            (cc.cliffordize(target, twin) for _ in range(k)), model, layer_offset=offset
        )
        assert rng.bit_generator.state == twin.bit_generator.state
        return got, want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["disordered", "periodic"])
    def test_matches_folded_cliffordizations(self, n, kind):
        rng = np.random.default_rng(400 + n + 10 * (kind == "periodic"))
        target = _haar_target(n, kind, rng)
        assert not target.is_clifford
        for markovian in (True, False):
            for offset in (0, 3):
                model = _fold_model(target, rng, markovian, offset)
                for k in (1, 5):
                    got, want = self._both(target, model, k, int(rng.integers(2**32)), offset)
                    assert got.shape == (k,)
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chunks_fold_like_one_batch(self, n, monkeypatch):
        rng = np.random.default_rng(420 + n)
        target = _haar_target(n, "disordered", rng)
        model = nz.sample_error_model(target, rng, 5e-2, 5e-3)
        whole, _ = self._both(target, model, 5, 7)
        for circuits_per_chunk in (1, 3):
            monkeypatch.setattr(nz, "_FOLD_AMPLITUDES", circuits_per_chunk * 4**n)
            got, want = self._both(target, model, 5, 7)
            assert np.array_equal(got, whole)
            assert np.array_equal(want, whole)

    def test_too_wide_raises_before_drawing(self):
        rng = np.random.default_rng(430)
        target = _haar_target(3, "disordered", rng)
        model = nz.sample_error_model(target, rng)
        before = rng.bit_generator.state
        with pytest.raises(nz.FoldSizeError):
            nz.cliffordization_infidelities(target, model, 5, rng, limit=2)
        assert rng.bit_generator.state == before

    def test_empty_ensemble(self):
        rng = np.random.default_rng(431)
        target = _haar_target(2, "periodic", rng)
        model = nz.sample_error_model(target, rng)
        got, want = self._both(target, model, 0, 8)
        assert got.shape == want.shape == (0,)


class TestProcessInfidelity:
    def test_zero_noise(self):
        circ, rng = brickwork(3, 3, 18)
        model = nz.sample_error_model(circ, rng, 0.0, 0.0)
        assert nz.process_infidelity_exact(circ, model) == pytest.approx(0.0, abs=1e-14)

    def test_matches_dense_transfer_matrices(self):
        for seed in range(10):
            circ, rng = brickwork(3, 3, 100 + seed)
            model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
            r_fold = nz.process_infidelity_exact(circ, model)
            r_dense = 1.0 - dn.process_fidelity(
                dn.circuit_ptm(circ), dn.circuit_ptm(circ, model)
            )
            assert r_fold == pytest.approx(r_dense, abs=1e-12)

    def test_folding_is_basis_covariant(self):
        # the folded distribution agrees with the dense error transfer matrix
        # (which conjugates every layer error consistently) on 50 instances
        for seed in range(50):
            circ, rng = brickwork(3, 2, 200 + seed)
            model = nz.sample_error_model(circ, rng, 2e-2, 2e-3)
            eig = nz.fold_eigenvalues(circ, model)
            err_ptm = dn.circuit_ptm(circ, model).mat @ dn.circuit_ptm(circ).mat.T
            assert np.max(np.abs(np.diag(err_ptm) - eig)) < 1e-12


class TestSpamModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            nz.SpamModel((0.6,), (0.0,), (0.0,))
        with pytest.raises(ValueError):
            nz.SpamModel((0.0,), (0.0, 0.0), (0.0,))

    def test_factors(self):
        spam = nz.SpamModel((0.01,), (0.02,), (0.04,))
        assert spam.prep_factor(0) == pytest.approx(0.98)
        assert spam.meas_factor(0) == pytest.approx(0.94)


class TestNoiseJson:
    def test_round_trip_bit_exact(self):
        circ, rng = brickwork(3, 2, 22)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        blob = json.dumps(nz.noise_to_dict(model))
        back = nz.noise_from_dict(json.loads(blob))
        assert back.markovian == model.markovian
        assert set(back.two_qubit) == set(model.two_qubit)
        for key, g in model.two_qubit.items():
            assert np.array_equal(back.two_qubit[key].probs, g.probs)
        for key, g in model.one_qubit.items():
            assert np.array_equal(back.one_qubit[key].probs, g.probs)

    def test_non_markovian_keys(self):
        circ, rng = brickwork(2, 2, 23)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian=False)
        back = nz.noise_from_dict(nz.noise_to_dict(model))
        assert set(back.two_qubit) == set(model.two_qubit)
