import math

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import estimators as est
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliString, sample_uniform_nonidentity
from oracles import (
    backpropagate,
    concatenate,
    inverse,
    layer_channel,
    layer_tableau,
    object_dfe,
    object_dfe_with_reference,
    object_layer_fidelity_estimate,
    object_readout_mitigated_dfe,
    object_walk,
)
from test_noise import _fold_case, _fold_model


def brickwork(n, depth, seed, kind="clifford"):
    rng = np.random.default_rng(seed)
    return cc.sample_brickwork(cc.BrickworkSpec(n, depth), kind, rng), rng


class TestDfeConfig:
    def test_defaults(self):
        cfg = est.DfeConfig()
        assert (cfg.num_paulis, cfg.num_twirls, cfg.shots_per_twirl) == (30, 32, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            est.DfeConfig(num_paulis=0)
        with pytest.raises(ValueError):
            est.DfeConfig(shots_per_twirl=0)


def _walk(circuit, noise, spam, p):
    """``est._walk`` through a Clifford circuit object for a PauliString."""
    tables = nz._walk_tables(noise, circuit.layers, circuit.n)
    codes = [p.code(q) for q in range(p.n)]
    rows = [layer.indices.tolist() for layer in circuit.layers[::2]]
    return est._walk(circuit.layers, rows, tables, spam, codes)


def _tableau_walk(circuit, noise, layer_offset):
    """Oracle: conjugate a signed Pauli by each layer's inverted tableau and
    read each layer's eigenvalue from its dense transfer-matrix diagonal."""
    steps = [
        (
            layer_channel(circuit, i, noise, layer_offset).dense_eigenvalues(),
            inverse(layer_tableau(layer, circuit.n)),
        )
        for i, layer in enumerate(circuit.layers)
    ]

    def walk(p):
        lam = 1.0
        for eig, dagger in reversed(steps):
            lam *= eig[p.label]
            p = cl.conjugate(dagger, p)
        return lam, p

    return walk


class TestPauliExpectation:
    """The noise-averaged parity of one observable: the letter-code walk
    (``noise.propagate_codes``) times the SPAM factors (``est._walk``)."""

    def test_invariant_under_frame_twirls(self):
        circ, rng = brickwork(4, 5, 0)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
        spam = nz.SpamModel.uniform(4, 0.01, 0.02)
        for _ in range(25):
            p = sample_uniform_nonidentity(4, rng)
            base, _ = _walk(circ, model, spam, p)
            twirled, _ = _walk(cc.pauli_twirl(circ, rng), model, spam, p)
            assert base == pytest.approx(twirled, abs=1e-12)

    def test_matches_folded_diagonal(self):
        # against the folded diagonal and the tableau walk the letter-code
        # kernel replaced; every non-identity label up to n = 3
        rng = np.random.default_rng(1)
        cases = [
            (n, gate, topology, markovian, offset)
            for n in (1, 2, 3, 4)
            for gate in ("CZ", "CNOT")
            for topology in ("line", "ring")
            for markovian in (True, False)
            for offset in (0, 3)
        ]
        for n, gate, topology, markovian, offset in cases:
            template = _fold_case(n, topology, gate, rng)
            model = _fold_model(template, rng, markovian, offset)
            shifted = model.shifted(offset)
            circ = cc.cliffordize(template, rng)
            eig = nz.fold_eigenvalues(circ, shifted)
            oracle = _tableau_walk(circ, model, offset)
            labels = range(1, 4**n) if n <= 3 else rng.integers(1, 4**n, size=30)
            for label in labels:
                p = PauliString.from_label(n, int(label))
                val, codes = nz.propagate_codes(circ, shifted, [p.code(q) for q in range(n)])
                want, q = oracle(p)
                assert abs(val - want) < 1e-12
                assert val == pytest.approx(eig[label], abs=1e-12)
                bp = backpropagate(circ, p)
                assert codes == [bp.code(k) for k in range(n)]
                assert codes == [q.code(k) for k in range(n)]

    def test_spam_attenuation_factors(self):
        circ, rng = brickwork(3, 2, 2)
        model = nz.sample_error_model(circ, rng, 0.0, 0.0)
        spam = nz.SpamModel.uniform(3, 0.02, 0.03)
        p = PauliString.from_text("XZI")
        val, codes = _walk(circ, model, spam, p)
        weight = sum(1 for c in codes if c)
        expect = (1 - 2 * 0.02) ** weight * (1 - 2 * 0.03) ** p.weight
        assert val == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_object_walk(self, n):
        # equal, not close: with and without noise and SPAM, the compiled
        # steps take the oracle's products in the oracle's order
        circ, rng = brickwork(n, 4, 60 + n)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
        spam = nz.SpamModel(*(tuple(rng.uniform(0.0, 0.05, n)) for _ in range(3)))
        for noise in (model, None):
            for spam_model in (spam, None):
                for _ in range(20):
                    p = sample_uniform_nonidentity(n, rng)
                    val, _ = _walk(circ, noise, spam_model, p)
                    assert val == object_walk(circ, noise, spam_model, p)
                    if noise is None and spam_model is None:
                        assert val == 1.0


class TestDfe:
    def test_noiseless_is_exactly_one(self):
        circ, rng = brickwork(4, 6, 3)
        res = est.dfe(circ, None, None, est.DfeConfig(10, 2, 20), rng)
        assert res.mean == 1.0 and res.stderr == 0.0

    def test_rejects_non_clifford(self):
        rng = np.random.default_rng(4)
        circ = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "haar", rng)
        with pytest.raises(cl.NotCliffordError):
            est.dfe(circ, None, None, est.DfeConfig(2, 1, 10), rng)

    def test_rejects_non_clifford_append(self):
        # a scrambler appended to each Cliffordization must be Clifford
        rng = np.random.default_rng(6)
        target = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "haar", rng)
        tail = cc.sample_brickwork(cc.BrickworkSpec(3, 1), "haar", rng)
        before = rng.bit_generator.state
        with pytest.raises(cl.NotCliffordError, match="scrambling"):
            est.dfe_with_reference(
                None, tail, None, None, est.DfeConfig(2, 1, 10), rng, target=target
            )
        assert rng.bit_generator.state == before

    def test_unbiased_against_folding(self):
        hits = 0
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            target = cc.sample_brickwork(cc.BrickworkSpec(4, 20), "haar", rng)
            proxy = cc.cliffordize(target, rng)
            model = nz.sample_error_model(proxy, rng, 1e-3, 1e-4)
            exact = 1.0 - nz.process_infidelity_exact(proxy, model)
            res = est.dfe(proxy, model, None, est.DfeConfig(30, 32, 100), rng)
            if abs(res.mean - exact) < 3 * res.stderr:
                hits += 1
        assert hits >= 23

    def test_combined_randomization_runs(self):
        rng = np.random.default_rng(5)
        target = cc.sample_brickwork(cc.BrickworkSpec(3, 4), "haar", rng)
        model = nz.sample_error_model(target, rng, 1e-2, 1e-3)
        res = est.dfe(None, model, None, est.DfeConfig(8, 4, 50), rng, target=target)
        exact = 1.0 - nz.process_infidelity_exact(cc.cliffordize(target, rng), model)
        assert abs(res.mean - exact) < 5 * max(res.stderr, 1e-3)

    def test_spam_depresses_estimate(self):
        circ, rng = brickwork(4, 4, 6)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        clean = est.dfe(circ, model, None, est.DfeConfig(40, 8, 100), rng)
        spam = nz.SpamModel.uniform(4, 0.02, 0.02)
        dirty = est.dfe(circ, model, spam, est.DfeConfig(40, 8, 100), rng)
        assert dirty.mean < clean.mean

    def test_single_pauli_uses_binomial_stderr(self):
        circ, rng = brickwork(2, 2, 7)
        model = nz.sample_error_model(circ, rng, 0.3, 0.05)
        res = est.dfe(circ, model, None, est.DfeConfig(1, 1, 50), rng)
        assert res.stderr > 0

    def test_parity_outside_unit_interval_raises(self, monkeypatch):
        # a RuntimeError, which volumetric sweeps do not record as a cell failure
        monkeypatch.setattr(est, "_walk", lambda *args: (1.5, []))
        circ, rng = brickwork(3, 2, 8)
        with pytest.raises(RuntimeError, match="outside"):
            est.dfe(circ, None, None, est.DfeConfig(2, 1, 10), rng)
        with pytest.raises(RuntimeError, match="outside"):
            est.volumetric_run(
                [3], [2], nz.NoiseBudget(1e-3, 1e-4), None, est.DfeConfig(2, 1, 20),
                rng, layer_fit_depths=(2, 4, 8),
            )

    def test_parity_rounding_above_one_draws_normally(self, monkeypatch):
        monkeypatch.setattr(est, "_walk", lambda *args: (1.0 + 1e-13, []))
        circ, rng = brickwork(3, 2, 9)
        res = est.dfe(circ, None, None, est.DfeConfig(5, 2, 10), rng)
        assert res.mean == 1.0 and res.stderr == 0.0


class TestCircuitOrTarget:
    @pytest.mark.parametrize("given", ["both", "neither"])
    @pytest.mark.parametrize("name", ["dfe", "dfe_with_reference", "readout_mitigated_dfe"])
    def test_exactly_one_raises_before_drawing(self, name, given):
        rng = np.random.default_rng(40)
        target = cc.sample_brickwork(cc.BrickworkSpec(3, 2), "haar", rng)
        scr = cc.scrambling_circuit(3, 2, rng)
        spam = nz.SpamModel.uniform(3, 0.01, 0.02)
        config = est.DfeConfig(2, 1, 10)
        circuit, target = (cc.cliffordize(target, rng), target) if given == "both" else (None, None)
        call = {
            "dfe": lambda: est.dfe(circuit, None, spam, config, rng, target=target),
            "dfe_with_reference": lambda: est.dfe_with_reference(
                circuit, scr, None, spam, config, rng, target=target
            ),
            "readout_mitigated_dfe": lambda: est.readout_mitigated_dfe(
                circuit, None, spam, config, 1000, rng, target=target
            ),
        }[name]
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="exactly one"):
            call()
        assert rng.bit_generator.state == before


def test_twirl_rows_draw_the_cliffordize_stream():
    # each twirl's rows are one draw of the stream, and the values, that
    # the (1, layers, n) index array of _draw_cliffords reads
    rng = np.random.default_rng(45)
    target = cc.sample_brickwork(cc.BrickworkSpec(4, 3), "haar", rng)
    a, b = np.random.default_rng(46), np.random.default_rng(46)
    _, draw = est._walked(None, target, a)
    for _ in range(3):
        assert draw() == cc._draw_cliffords(b, 1, len(target.layers[::2]), target.n)[0].tolist()
        assert a.bit_generator.state == b.bit_generator.state


class TestMatchesObjectPath:
    """Each DFE path against the same estimator on circuit objects, which
    builds a PauliString per observable and, per twirl, a Cliffordized
    circuit: equal estimates, and the generator left in the same state."""

    @pytest.mark.parametrize("mode", ["circuit", "target"])
    @pytest.mark.parametrize("markovian", [True, False])
    @pytest.mark.parametrize("gate", ["CZ", "CNOT"])
    def test_estimators(self, gate, markovian, mode):
        n = 4
        rng = np.random.default_rng(41)
        template = _fold_case(n, "ring", gate, rng)
        scr = cc.scrambling_circuit(n, 2, rng)
        model = nz.sample_error_model(concatenate(template, scr), rng, 2e-2, 2e-3, markovian)
        spam = nz.SpamModel.uniform(n, 0.01, 0.02)
        config = est.DfeConfig(6, 3, 50)
        circuit, target = (template, None) if mode == "circuit" else (None, template)
        runs = (
            (est.dfe, object_dfe, (circuit, model, spam, config)),
            (
                est.dfe_with_reference,
                object_dfe_with_reference,
                (circuit, scr, model, spam, config),
            ),
            (
                est.readout_mitigated_dfe,
                object_readout_mitigated_dfe,
                (circuit, model, spam, config, 1000),
            ),
        )
        for new, old, args in runs:
            a, b = np.random.default_rng(42), np.random.default_rng(42)
            got = new(*args, a, target=target)
            assert got == old(*args, b, target=target)
            assert a.bit_generator.state == b.bit_generator.state

    def test_layer_fit(self):
        n = 4
        rng = np.random.default_rng(43)
        layers = (
            cc.TwoQubitLayer(cc.brickwork_pairs(n, 0)),
            cc.TwoQubitLayer(cc.brickwork_pairs(n, 1, "ring"), "CNOT"),
        )
        ident = cc.identity_layer(n)
        circ = cc.LayeredCircuit(n, (ident, layers[0], ident, layers[1], ident))
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3)
        spam = nz.SpamModel.uniform(n, 0.01, 0.02)
        args = (layers, n, model, [1, 2, 4], est.DfeConfig(6, 3, 50))
        a, b = np.random.default_rng(44), np.random.default_rng(44)
        got = est.layer_fidelity_estimate(*args, a, spam=spam)
        assert got == object_layer_fidelity_estimate(*args, b, spam=spam)
        assert a.bit_generator.state == b.bit_generator.state


class TestReference:
    def test_identity_everything_is_exactly_one(self):
        ident = cc.LayeredCircuit.identity(3)
        res = est.dfe_with_reference(
            ident, ident, None, None, est.DfeConfig(4, 2, 10), np.random.default_rng(8)
        )
        assert res.mean == 1.0

    def test_spam_cancels(self):
        rng = np.random.default_rng(9)
        n = 6
        target = cc.sample_brickwork(cc.BrickworkSpec(n, 6), "haar", rng)
        proxy = cc.cliffordize(target, rng)
        scr = cc.scrambling_circuit(n, 4, rng)
        model = nz.sample_error_model(concatenate(proxy, scr), rng, 0.0, 0.0)
        spam = nz.SpamModel.uniform(n, 0.02, 0.02)
        res = est.dfe_with_reference(
            proxy, scr, model, spam, est.DfeConfig(40, 16, 100), rng
        )
        assert abs(res.mean - 1.0) < 3 * res.stderr + 0.01

    def test_tracks_exact_fidelity_under_noise(self):
        rng = np.random.default_rng(10)
        n = 6
        target = cc.sample_brickwork(cc.BrickworkSpec(n, 12), "haar", rng)
        proxy = cc.cliffordize(target, rng)
        scr = cc.scrambling_circuit(n, 4, rng)
        model = nz.sample_error_model(concatenate(proxy, scr), rng, 1e-3, 1e-4)
        spam = nz.SpamModel.uniform(n, 0.015, 0.015)
        exact = 1.0 - nz.process_infidelity_exact(proxy, model)
        res = est.dfe_with_reference(
            proxy, scr, model, spam, est.DfeConfig(40, 16, 100), rng
        )
        assert abs(res.mean - exact) < 3 * res.stderr + 0.005

    @pytest.mark.parametrize("mode", ["circuit", "target"])
    def test_reference_reads_the_scrambler_entries(self, mode):
        # non-Markovian noise only at the scrambler's positions inside the
        # composed circuit: the reference run must see it as its own, where
        # reading the positions of the deeper body would see none
        rng = np.random.default_rng(12)
        n = 3
        target = cc.sample_brickwork(cc.BrickworkSpec(n, 4), "haar", rng)
        proxy = cc.cliffordize(target, rng)
        scr = cc.scrambling_circuit(n, 2, rng)
        composed = concatenate(proxy, scr)
        offset = len(proxy.layers) - 1
        loud = nz.sample_error_model(composed, rng, 0.2, 0.02, markovian=False)
        quiet = nz.sample_error_model(composed, rng, 0.0, 0.0, markovian=False)
        model = nz.NoiseModel(
            False,
            {k: (loud if k[0] >= offset else quiet).one_qubit[k] for k in loud.one_qubit},
            {k: (loud if k[0] >= offset else quiet).two_qubit[k] for k in loud.two_qubit},
        )
        circuit, target = (proxy, None) if mode == "circuit" else (None, target)
        res = est.dfe_with_reference(
            circuit, scr, model, None, est.DfeConfig(20, 4, 1000), rng, target=target
        )
        assert res.metadata["denominator"] < 0.9

    def test_reference_floor(self, monkeypatch):
        monkeypatch.setattr(est, "READOUT_FLOOR", 1.0)
        rng = np.random.default_rng(11)
        n = 4
        scr = cc.scrambling_circuit(n, 4, rng)
        proxy, _ = brickwork(n, 2, 12)
        model = nz.sample_error_model(concatenate(proxy, scr), rng, 0.0, 0.0)
        with pytest.raises(est.ReferenceTooNoisyError):
            est.dfe_with_reference(
                proxy, scr, model, None, est.DfeConfig(20, 4, 50), rng
            )


class TestReadoutMitigated:
    def test_spam_only_recovers_one(self):
        rng = np.random.default_rng(13)
        n = 6
        proxy, _ = brickwork(n, 4, 14)
        model = nz.sample_error_model(proxy, rng, 0.0, 0.0)
        spam = nz.SpamModel.uniform(n, 0.0, 0.03)
        res = est.readout_mitigated_dfe(
            proxy, model, spam, est.DfeConfig(40, 16, 100), 20_000, rng
        )
        assert abs(res.mean - 1.0) < 3 * res.stderr + 0.01

    def test_asymmetric_flips_mitigated(self):
        rng = np.random.default_rng(15)
        n = 4
        proxy, _ = brickwork(n, 3, 16)
        model = nz.sample_error_model(proxy, rng, 0.0, 0.0)
        spam = nz.SpamModel((0.0,) * n, (0.01,) * n, (0.05,) * n)
        res = est.readout_mitigated_dfe(
            proxy, model, spam, est.DfeConfig(40, 16, 100), 50_000, rng
        )
        assert abs(res.mean - 1.0) < 3 * res.stderr + 0.01

    def test_no_spam_matches_plain_dfe(self):
        rng = np.random.default_rng(17)
        proxy, _ = brickwork(4, 4, 18)
        model = nz.sample_error_model(proxy, np.random.default_rng(18), 1e-3, 1e-4)
        a = est.readout_mitigated_dfe(
            proxy, model, None, est.DfeConfig(20, 8, 100), 1000, np.random.default_rng(19)
        )
        b = est.dfe(proxy, model, None, est.DfeConfig(20, 8, 100), np.random.default_rng(19))
        assert a.mean == pytest.approx(b.mean, abs=1e-12)

    def test_single_observable_stderr_from_raw_parity(self):
        # one observable: the measured parity's binomial error over the
        # mitigation divisor, also where the mitigated parity exceeds 1
        circ = cc.LayeredCircuit(1, (cc.identity_layer(1),))
        spam = nz.SpamModel((0.0,), (0.05,), (0.05,))
        config = est.DfeConfig(1, 1, 2000)
        calib = 1000
        above_one = 0
        for seed in range(10):
            res = est.readout_mitigated_dfe(
                circ, None, spam, config, calib, np.random.default_rng(seed)
            )
            # replay the two calibration draws for the divisor
            rng = np.random.default_rng(seed)
            divisor = 1.0 - rng.binomial(calib, 0.05) / calib - rng.binomial(calib, 0.05) / calib
            (value,) = res.metadata["parities"]
            raw = value * divisor
            expected = 0.75 * math.sqrt((1.0 - raw**2) / config.shots_per_pauli) / divisor
            assert res.stderr == pytest.approx(expected, rel=1e-9)
            above_one += value > 1.0
        assert above_one

    def test_calibration_shot_floor(self):
        proxy, rng = brickwork(2, 1, 20)
        with pytest.raises(ValueError, match="100"):
            est.readout_mitigated_dfe(
                proxy, None, None, est.DfeConfig(2, 1, 10), 50, rng
            )

    def test_pauli_divisor_floor(self):
        # each qubit's divisor is about 0.09, so a one-qubit Pauli passes,
        # but a weight-two Pauli divides by about 0.0081, below the floor
        config = est.DfeConfig(20, 1, 10)
        for n in (1, 2):
            circ = cc.LayeredCircuit(n, (cc.identity_layer(n),))
            spam = nz.SpamModel((0.0,) * n, (0.455,) * n, (0.455,) * n)
            args = (circ, None, spam, config, 100_000, np.random.default_rng(0))
            if n == 1:
                assert math.isfinite(est.readout_mitigated_dfe(*args).mean)
            else:
                with pytest.raises(est.SingularCalibrationError, match="0.01"):
                    est.readout_mitigated_dfe(*args)

    def test_singular_confusion_matrix(self):
        proxy, rng = brickwork(2, 1, 21)
        spam = nz.SpamModel((0.49,) * 2, (0.49,) * 2, (0.49,) * 2)
        with pytest.raises(est.SingularCalibrationError):
            est.readout_mitigated_dfe(
                proxy, None, spam, est.DfeConfig(2, 1, 10), 5000, rng
            )


class TestLayerFidelity:
    def _layers(self, n):
        return (
            cc.TwoQubitLayer(cc.brickwork_pairs(n, 0)),
            cc.TwoQubitLayer(cc.brickwork_pairs(n, 1)),
        )

    def test_zero_noise_gives_unit_polarization(self):
        n = 4
        rng = np.random.default_rng(22)
        circ, _ = brickwork(n, 2, 23)
        model = nz.sample_error_model(circ, rng, 0.0, 0.0)
        fit = est.layer_fidelity_estimate(
            self._layers(n), n, model, [2, 4, 8], est.DfeConfig(10, 4, 50), rng
        )
        assert all(abs(p - 1) < 1e-9 for p in fit.polarizations)
        proxy, _ = brickwork(n, 6, 24)
        assert fit.predict_fidelity(proxy).mean == pytest.approx(1.0, abs=1e-9)

    def test_single_layer_matches_folded_polarization(self):
        n = 4
        rng = np.random.default_rng(25)
        template, _ = brickwork(n, 2, 26)
        model = nz.sample_error_model(template, rng, 2e-3, 2e-4)
        fit = est.layer_fidelity_estimate(
            self._layers(n), n, model, [2, 4, 8, 16], est.DfeConfig(30, 16, 100), rng
        )
        # exact single-repetition polarization of the (entangling + 1q) pair
        layer = self._layers(n)[0]
        circ = cc.LayeredCircuit(
            n, (cc.identity_layer(n), layer, cc.identity_layer(n))
        )
        r1 = nz.process_infidelity_exact(circ, model)
        # remove the boundary one-qubit layer contribution (fit sees one per pair)
        r_left = layer_channel(circ, 0, model).infidelity
        p_exact = est.fidelity_to_polarization(1 - (r1 - r_left), n)
        assert fit.polarizations[0] == pytest.approx(
            p_exact, abs=3 * fit.stderrs[0] + 5e-4
        )

    def test_prediction_tracks_exact_fidelity(self):
        n = 6
        rng = np.random.default_rng(27)
        template, _ = brickwork(n, 2, 28)
        model = nz.sample_error_model(template, rng, 1e-3, 1e-4)
        fit = est.layer_fidelity_estimate(
            self._layers(n), n, model, [2, 4, 8, 16], est.DfeConfig(30, 16, 100), rng
        )
        target, _ = brickwork(n, 16, 29, kind="haar")
        proxy = cc.cliffordize(target, rng)
        exact = 1.0 - nz.process_infidelity_exact(proxy, model)
        pred = fit.predict_fidelity(proxy)
        assert abs(pred.mean - exact) / exact < 0.05

    def test_needs_three_depths_and_markovian(self):
        n = 4
        rng = np.random.default_rng(30)
        circ, _ = brickwork(n, 2, 31)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        with pytest.raises(ValueError, match="three depths"):
            est.layer_fidelity_estimate(
                self._layers(n), n, model, [2, 4], est.DfeConfig(5, 2, 50), rng
            )
        nonmark = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian=False)
        with pytest.raises(ValueError, match="Markovian"):
            est.layer_fidelity_estimate(
                self._layers(n), n, nonmark, [2, 4, 8], est.DfeConfig(5, 2, 50), rng
            )

    def test_repeated_depths_raise_before_drawing(self):
        n = 4
        rng = np.random.default_rng(32)
        circ, _ = brickwork(n, 2, 33)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="three depths"):
            est.layer_fidelity_estimate(
                self._layers(n), n, model, [2, 2, 2], est.DfeConfig(5, 2, 50), rng
            )
        assert rng.bit_generator.state == before

    def test_one_depth_left_after_dropping_raises(self, monkeypatch):
        # depths 4 and 8 read a fidelity below 1/4^n, so their points are
        # dropped and three points at depth 2 remain: no slope to fit
        def fake_dfe(layers, gates, noise, spam, config, rng):
            return est.FidelityEstimate(0.9 if len(layers) == 5 else 0.0, 0.01, 1)

        monkeypatch.setattr(est, "_dfe", fake_dfe)
        n = 4
        rng = np.random.default_rng(34)
        circ, _ = brickwork(n, 2, 35)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        with pytest.raises(ValueError, match="too few positive"):
            est.layer_fidelity_estimate(
                self._layers(n), n, model, [2, 2, 2, 4, 8], est.DfeConfig(5, 2, 50), rng
            )


class TestXeb:
    def test_fixed_point(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert est.xeb(p, p) == pytest.approx(1.0)

    def test_uniform_experiment_gives_zero(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert est.xeb(np.full(4, 0.25), p) == pytest.approx(0.0)

    def test_flat_ideal_rejected(self):
        flat = np.full(8, 1 / 8)
        with pytest.raises(ValueError, match="flat"):
            est.xeb(flat, flat)

    def test_bad_ideal_normalisation(self):
        with pytest.raises(ValueError, match="sum"):
            est.xeb(np.full(4, 0.25), np.array([0.4, 0.3, 0.2, 0.2]))

    def test_bitstrings_match_histogram_evaluation(self):
        rng = np.random.default_rng(32)
        circ, _ = brickwork(4, 4, 33, kind="haar")
        ideal = dn.ideal_output_probs(circ)
        samples = rng.choice(16, size=50_000, p=ideal)
        freq = np.bincount(samples, minlength=16) / len(samples)
        assert est.xeb(samples, ideal) == pytest.approx(
            est.xeb(freq, ideal), abs=1e-12
        )

    def test_noisy_xeb_tracks_fidelity(self):
        n = 5
        vals = []
        fids = []
        for seed in range(8):
            rng = np.random.default_rng(400 + seed)
            circ = cc.sample_brickwork(cc.BrickworkSpec(n, 10), "haar", rng)
            model = nz.sample_error_model(circ, rng, 2e-3, 2e-4)
            ideal = dn.ideal_output_probs(circ)
            samples = dn.statevector_simulate(circ, model, rng, 5000)
            vals.append(est.xeb(samples, ideal))
            fids.append(1 - nz.process_infidelity_exact(cc.cliffordize(circ, rng), model))
        diff = np.array(vals) - np.array(fids)
        sem = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) < 4 * sem + 0.01


class TestVolumetric:
    def test_zero_noise_cells_near_one(self):
        cfg = est.DfeConfig(10, 1, 200)
        cells = est.volumetric_run(
            [3], [2, 4], nz.NoiseBudget(0.0, 0.0), None, cfg,
            np.random.default_rng(34), layer_fit_depths=(2, 4, 8),
        )
        assert len(cells) == 2
        for cell in cells:
            assert not cell.errors
            for name in ("unmitigated", "reference", "readout", "layer_fidelity", "exact"):
                assert abs(cell.estimates[name].mean - 1.0) < 3 * cell.estimates[name].stderr + 1e-6

    def test_mitigated_track_exact_with_noise_and_spam(self):
        cfg = est.DfeConfig(30, 1, 500)
        cells = est.volumetric_run(
            [4], [4, 8], nz.NoiseBudget(1e-3, 1e-4), (0.01, 0.02), cfg,
            np.random.default_rng(35), layer_fit_depths=(2, 4, 8),
        )
        for cell in cells:
            exact = cell.estimates["exact"].mean
            for name in ("reference", "readout", "layer_fidelity"):
                got = cell.estimates[name]
                assert abs(got.mean - exact) < 3 * got.stderr + 0.02, (name, cell.depth)

    def test_failures_recorded_not_raised(self):
        cfg = est.DfeConfig(4, 1, 50)
        # SPAM at the validity edge makes the reference blow its floor but the
        # sweep must still return cells
        cells = est.volumetric_run(
            [3], [2], nz.NoiseBudget(0.0, 0.0), (0.45, 0.45), cfg,
            np.random.default_rng(36), layer_fit_depths=(2, 4, 8),
        )
        assert len(cells) == 1
        assert cells[0].errors or cells[0].estimates

    def test_non_markovian_reference_at_every_depth(self):
        # the reference runs the scrambler past the template's positions, and
        # after an odd depth at the other brick parity
        cfg = est.DfeConfig(5, 1, 100)
        cells = est.volumetric_run(
            [4], [3, 4], nz.NoiseBudget(1e-3, 1e-4, markovian=False), (0.01, 0.02),
            cfg, np.random.default_rng(37), layer_fit_depths=(2, 4, 8),
        )
        for cell in cells:
            assert set(cell.errors) == {"layer_fidelity"}, cell.errors
            assert "reference" in cell.estimates

    def test_markovian_draws_no_extra_entries(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Markovian sweeps draw no extra noise entries")

        monkeypatch.setattr(est, "_draw_missing_entries", refuse)
        cells = est.volumetric_run(
            [3], [2], nz.NoiseBudget(1e-3, 1e-4), None, est.DfeConfig(2, 1, 20),
            np.random.default_rng(38), layer_fit_depths=(2, 4, 8),
        )
        assert not cells[0].errors

    @pytest.mark.parametrize("name", ["dfe_with_reference", "layer_fidelity_estimate"])
    def test_bug_errors_propagate(self, monkeypatch, name):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a domain error")

        monkeypatch.setattr(est, name, broken)
        with pytest.raises(TypeError, match="a bug"):
            est.volumetric_run(
                [3], [2], nz.NoiseBudget(1e-3, 1e-4), None, est.DfeConfig(2, 1, 20),
                np.random.default_rng(39), layer_fit_depths=(2, 4, 8),
            )


class TestCov:
    def test_constant_list(self):
        mu, sigma, cov = est.coefficient_of_variation([2.0, 2.0, 2.0])
        assert sigma == 0.0 and cov == 0.0

    def test_hand_computed(self):
        mu, sigma, cov = est.coefficient_of_variation([1.0, 3.0])
        assert mu == 2.0
        assert sigma == pytest.approx(math.sqrt(2))
        assert cov == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            est.coefficient_of_variation([-1.0, 1.0])

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            est.coefficient_of_variation([1.0])


class TestConversions:
    def test_round_trip(self):
        for n in (1, 3, 6):
            for f in (0.2, 0.9, 1.0):
                p = est.fidelity_to_polarization(f, n)
                assert est.polarization_to_fidelity(p, n) == pytest.approx(f)
