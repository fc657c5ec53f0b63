import copy
import json
import math
import pickle
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest

from cliffproxy import circuits as cc
from cliffproxy import clifford as cl
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy.pauli import PauliString, pauli_walsh
from oracles import (
    circuit_tableau,
    concatenate,
    fused_tables,
    gather_fold,
    inverse,
    layer_channel,
    layer_tableau,
    per_gate_compiled_channels,
    per_gate_fold,
    per_gate_layer_infidelities,
    per_gate_walk,
    rebased,
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

    def test_entry_maps_are_read_only(self):
        # a model is a value: its compiled tables cannot go stale
        circ, rng = brickwork(2, 2, 9)
        pair = nz.GateNoise.from_rates(np.full(15, 1e-3))
        one = nz.GateNoise.from_rates(np.full(3, 1e-3))
        sampled = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian=False)
        shifted = rebased(sampled, 2)
        assert shifted is not sampled
        for model in (nz.sample_error_model(circ, rng, 1e-3, 1e-4), sampled, shifted):
            for table, entry in ((model.one_qubit, one), (model.two_qubit, pair)):
                key = next(iter(table))
                before = table[key]
                with pytest.raises(TypeError):
                    table[key] = entry
                with pytest.raises(TypeError):
                    table["new"] = entry
                with pytest.raises(TypeError):
                    del table[key]
                assert table[key] is before

    def test_attributes_cannot_be_rebound(self):
        # a rebound entry map would leave every reader on the tables
        # compiled from the old one
        circ, rng = brickwork(3, 2, 94)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        quiet = nz.process_infidelity_exact(circ, model)
        loud = {key: nz.GateNoise.from_rates(np.full(15, 1 / 16)) for key in model.two_qubit}
        for name, value in (
            ("one_qubit", MappingProxyType({})),
            ("two_qubit", MappingProxyType(loud)),
            ("markovian", False),
        ):
            before = getattr(model, name)
            with pytest.raises(AttributeError, match="read-only"):
                setattr(model, name, value)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(model, name)
            assert getattr(model, name) is before
        fresh = nz.NoiseModel(model.markovian, model.one_qubit, model.two_qubit)
        assert nz.process_infidelity_exact(circ, model) == quiet == nz.process_infidelity_exact(circ, fresh)
        assert nz.process_infidelity_exact(circ, nz.NoiseModel(True, model.one_qubit, loud)) > 0.9

    def test_rebuilt_model_folds_its_own_entries(self):
        # after a fold compiles the tables, a model rebuilt with one louder
        # pair entry folds to what its transfer matrix reads
        circ, rng = brickwork(3, 4, 94)
        model = nz.sample_error_model(circ, rng, 1e-3, 1e-4)
        quiet = nz.process_infidelity_exact(circ, model)
        key = next(iter(model.two_qubit))
        loud = nz.GateNoise.from_rates(np.full(15, 1e-2))
        changed = nz.NoiseModel(model.markovian, model.one_qubit, {**model.two_qubit, key: loud})
        exact = nz.process_infidelity_exact(circ, changed)
        dense = 1.0 - dn.process_fidelity(dn.circuit_ptm(circ), dn.circuit_ptm(circ, changed))
        assert exact == pytest.approx(dense, abs=1e-12)
        assert exact > 0.1 > quiet
        assert nz.process_infidelity_exact(circ, model) == quiet

    def test_mis_sized_entries_rejected(self):
        one = nz.GateNoise.from_rates(np.full(3, 1e-3))
        pair = nz.GateNoise.from_rates(np.full(15, 1e-3))
        with pytest.raises(ValueError, match=r"entry \('CZ', 0, 1\) has 4 probabilities"):
            nz.NoiseModel(True, {0: one, 1: one}, {("CZ", 0, 1): one})
        with pytest.raises(ValueError, match=r"entry \(2, 1\) has 16 probabilities"):
            nz.NoiseModel(False, {(2, 0): one, (2, 1): pair}, {(1, "CZ", 0, 1): pair})
        # sampled models and their JSON round trips pass the check
        circ, rng = brickwork(3, 2, 8)
        for markovian in (True, False):
            model = nz.sample_error_model(circ, rng, 1e-3, 1e-4, markovian)
            nz.NoiseModel(markovian, model.one_qubit, model.two_qubit)
            nz.noise_from_dict(nz.noise_to_dict(model))

    @pytest.mark.parametrize("markovian", [True, False])
    def test_pickle_and_deepcopy_round_trips(self, markovian):
        # a model goes to a worker process by pickle; the copy compiles its
        # own tables from equal entries and is read-only like the original
        circ, rng = brickwork(3, 4, 12)
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3, markovian)
        layers = list(enumerate(circ.layers))
        tables = [model.layer_tables(i, layer).eig for i, layer in layers]
        for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert twin is not model and twin.markovian == markovian
            for mine, theirs in ((model.one_qubit, twin.one_qubit), (model.two_qubit, twin.two_qubit)):
                assert list(mine) == list(theirs)
                assert all(np.array_equal(mine[k].probs, theirs[k].probs) for k in mine)
            for (i, layer), eig in zip(layers, tables):
                assert np.array_equal(twin.layer_tables(i, layer).eig, eig)
            assert nz.process_infidelity_exact(circ, twin) == nz.process_infidelity_exact(circ, model)
            key = next(iter(twin.two_qubit))
            with pytest.raises(TypeError):
                twin.two_qubit[key] = twin.two_qubit[key]
            with pytest.raises(AttributeError, match="read-only"):
                twin.markovian = not markovian
            with pytest.raises(ValueError, match="read-only"):
                twin.one_qubit[next(iter(twin.one_qubit))].probs[0] = 0.5


class TestGateNoise:
    def test_keeps_a_read_only_copy(self):
        probs = np.array([0.97, 0.01, 0.01, 0.01])
        entry = nz.GateNoise(probs)
        eig = entry.eigenvalues.copy()
        probs[0] = probs[1] = 0.5
        assert np.array_equal(entry.probs, [0.97, 0.01, 0.01, 0.01])
        assert np.array_equal(entry.eigenvalues, eig)
        with pytest.raises(ValueError, match="read-only"):
            entry.probs[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            entry.eigenvalues[0] = 0.5

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
    @staticmethod
    def _faults(rng):
        # identity, single-letter and random faults
        faults = list(np.eye(4))
        faults += [np.array([1 - p, 0.0, 0.0, 0.0]) + p * np.eye(4)[c] for p in (1e-4, 0.3) for c in (1, 2, 3)]
        faults += [rng.dirichlet(np.ones(4)) for _ in range(100)]
        faults += [
            nz.GateNoise.from_rates(rng.uniform(0, 1e-3) * rng.dirichlet(np.ones(3))).probs
            for _ in range(100)
        ]
        return faults

    def test_eigenvalue_rows_match_pauli_walsh(self):
        # bit for bit, row by row, each fault compiled alone
        for eps in self._faults(np.random.default_rng(91)):
            probs, eig = nz._compile_1q(eps[None])
            assert probs.shape == (1, 25, 4) and eig.shape == (1, 24, 4)
            for row, got in zip(probs[0, :24], eig[0]):
                assert np.array_equal(got, pauli_walsh(row, 1))

    def test_stacked_compile_matches_each_qubit_alone(self):
        # one pass over a stack that mixes identity, single-letter and
        # random rows gives each qubit's tables bit for bit, and each
        # eigenvalue row is pauli_walsh's
        faults = self._faults(np.random.default_rng(92))
        order = np.random.default_rng(93).permutation(len(faults))
        stack = np.array(faults)[order]
        probs, eig = nz._compile_1q(stack)
        for q, eps in enumerate(stack):
            alone = nz._compile_1q(eps[None])
            assert np.array_equal(probs[q], alone[0][0])
            assert np.array_equal(eig[q], alone[1][0])
            for row, got in zip(probs[q, :24], eig[q]):
                assert np.array_equal(got, pauli_walsh(row, 1))

    @pytest.mark.parametrize("markovian", [True, False])
    @pytest.mark.parametrize("budget", [1e-9, 1e-5, 1e-3, 1e-1])
    def test_tables_match_per_gate_oracle(self, budget, markovian):
        # bit for bit: the probability rows of all 24 Cliffords and the
        # Euler stand-in, and the eigenvalue table the folds read
        elements = tableau_cliffords()
        circ, rng = brickwork(3, 2, 90)
        model = nz.sample_error_model(circ, rng, 1e-3, budget, markovian)
        for pos in range(0, len(circ.layers), 2):
            tables = model.layer_tables(pos, circ.layers[pos])
            assert not tables.probs.flags.writeable
            assert not tables.eig.flags.writeable
            for q in range(circ.n):
                ref = per_gate_compiled_channels(model, pos, q, elements)
                assert np.array_equal(tables.probs[q], ref)
                assert np.array_equal(tables.eig[q], [pauli_walsh(row, 1) for row in ref[:24]])

    @pytest.mark.parametrize("markovian", [True, False])
    def test_every_reader_gets_one_table_per_layer(self, markovian, monkeypatch):
        # the fold, the walk, layer_infidelities, the transfer matrix and the
        # sampler read one LayerTables object per layer position, each
        # one-qubit table compiled in one stacked pass, and no entry past it
        compile_1q, calls = nz._compile_1q, []
        monkeypatch.setattr(nz, "_compile_1q", lambda eps: calls.append(eps) or compile_1q(eps))
        circ, rng = brickwork(3, 4, 93)
        # its twin of Euler gates puts the dense readers' X90 pulses in play
        euler, _ = brickwork(3, 4, 93, "haar")
        assert euler.layers[1::2] == circ.layers[1::2]
        model = nz.sample_error_model(circ, rng, 1e-2, 1e-3, markovian)
        layer_tables, twoq_noise, read = nz.NoiseModel.layer_tables, model.twoq_noise, {}

        def spy(self, position, layer):
            tables = layer_tables(self, position, layer)
            read.setdefault(reader, {}).setdefault(position, set()).add(id(tables))
            return tables

        def raw(self, *args):
            raise AssertionError(f"{reader} read an entry past its LayerTables")

        # compiled up front: a reader then has no reason to read an entry
        for pos, layer in enumerate(circ.layers):
            model.layer_tables(pos, layer)
        # on the class, as a model's attributes cannot be set
        monkeypatch.setattr(nz.NoiseModel, "layer_tables", spy)
        monkeypatch.setattr(nz.NoiseModel, "xpi2_noise", raw)
        monkeypatch.setattr(nz.NoiseModel, "twoq_noise", raw)
        readers = {
            "fold": lambda: nz.process_infidelity_exact(circ, model),
            "diagonal": lambda: nz.fold_eigenvalues(circ, model),
            "walk": lambda: nz._walk_tables(model, circ.layers, circ.n),
            "layer_infidelities": lambda: nz.layer_infidelities(circ, model),
            "ptm": lambda: dn.circuit_ptm(circ, model),
            "sampler": lambda: dn.statevector_simulate(circ, model, rng, 50),
            "euler ptm": lambda: dn.circuit_ptm(euler, model),
            "euler sampler": lambda: dn.statevector_simulate(euler, model, rng, 50),
        }
        for reader, run in readers.items():
            run()
        positions = range(len(circ.layers))
        for reader in readers:
            assert sorted(read[reader]) == list(positions), reader
        for pos in positions:
            ids = set().union(*(got.get(pos, set()) for got in read.values()))
            assert len(ids) == 1, pos
            tables = layer_tables(model, pos, circ.layers[pos])
            assert ids == {id(tables)}
            layer = circ.layers[pos]
            if isinstance(layer, cc.TwoQubitLayer):
                entries = tuple(twoq_noise(pos, layer.gate, pair) for pair in layer.pairs)
                assert tables.entries == entries
                assert np.array_equal(tables.probs, [e.probs for e in entries])
                assert np.array_equal(tables.eig, [e.eigenvalues for e in entries])
                codes = cl.twoq_conjugation_codes(layer.gate)
                for p, steps in enumerate(tables.steps):
                    for label, step in enumerate(steps):
                        image = (codes[label] >> 2, codes[label] & 3)
                        assert step == (tables.eig[p, label], *image)
            else:
                codes = cl.inverse_conjugation_codes()
                for q, steps in enumerate(tables.steps):
                    for g, row in enumerate(steps):
                        for c, step in enumerate(row):
                            assert step == (tables.eig[q, g, c], codes[g, c])
            assert len(tables.steps) == len(tables.eig)
        one_qubit_tables = 1 if markovian else len(positions[::2])
        assert len(calls) == one_qubit_tables
        assert all(eps.shape == (circ.n, 4) for eps in calls)


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
        extended = concatenate(circ, cc.LayeredCircuit.identity(3))
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
        assert circ.n == nz.FOLD_LIMIT + 1
        with pytest.raises(nz.FoldSizeError, match="Monte Carlo"):
            nz.fold_to_end(circ, model)

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
                    shifted = rebased(model, offset)
                    for k in (1, 5):
                        circs = [cc.cliffordize(template, rng) for _ in range(k)]
                        batch = nz.process_infidelities_exact((c for c in circs), shifted)
                        single = [nz.process_infidelity_exact(c, shifted) for c in circs]
                        assert np.array_equal(batch, single)
                        for c, r in zip(circs, batch):
                            want = _oracle_fold(c, model, offset)
                            got = nz.fold_eigenvalues(c, shifted)
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

    @staticmethod
    def _end_layer_case(n, depth, topology, gate, shift, rng):
        """A Clifford template of ``depth`` brick layers starting at brick
        ``shift``: on an even ring the (n-1, 0) brick sits in the odd
        bricks, so shift 1 puts it in the first layer and the last layer's
        parity follows the depth.  CNOT pairs are listed high qubit first."""
        layers = [cc.identity_layer(n)]
        for j in range(depth):
            pairs = cc.brickwork_pairs(n, j + shift, topology)
            if gate == "CNOT":
                pairs = tuple((b, a) for a, b in pairs)
            layers += [cc.TwoQubitLayer(pairs, gate), cc.identity_layer(n)]
        return cc.cliffordize(cc.LayeredCircuit(n, tuple(layers)), rng)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_contracted_last_layer_matches_full_fold(self, n):
        # the infidelity steps blocks forward through all but its last two
        # layers and backward through those, and contracts the two sides;
        # the diagonal steps blocks forward through every layer and then
        # combines them.  At shallow depths the diagonal is also checked
        # against the gather fold, to 1e-14: its blocks multiply each
        # label's eigenvalues in another order than the gather fold's steps.
        # Rings with even n carry the wrap pair in the first layer (shift
        # 1) and in the last (shift 0 at even depth, shift 1 at odd depth)
        rng = np.random.default_rng(380 + n)
        k = 1 if n >= 9 else 3
        worst = 0.0
        topologies = (("line", 0), ("ring", 0), ("ring", 1)) if n % 2 == 0 else (("line", 0),)
        for topology, shift in topologies:
            for gate in ("CZ", "CNOT"):
                for depth in (0, 1, 2, 8):
                    template = self._end_layer_case(n, depth, topology, gate, shift, rng)
                    for markovian in (True, False):
                        base = _fold_model(template, rng, markovian, 3)
                        model = rebased(base, 3)
                        circs = [cc.cliffordize(template, rng) for _ in range(k)]
                        got = nz.process_infidelities_exact(circs, model)
                        want = [1.0 - nz.fold_eigenvalues(c, model).mean() for c in circs]
                        worst = max(worst, np.max(np.abs(got - want)))
                        if depth <= 2:
                            gates = np.array([[l.indices for l in c.layers[::2]] for c in circs])
                            folded = nz._fold(template, gates, model)
                            assert np.max(np.abs(folded - gather_fold(template, gates, base, 3))) < 1e-14
        assert worst < 1e-14

    def test_batch_matches_single_across_chunks(self):
        # n = 9 folds 4 circuits per chunk, so five circuits span two chunks
        rng = np.random.default_rng(334)
        assert nz._FOLD_AMPLITUDES // 4**9 == 4
        template = self._end_layer_case(9, 3, "line", "CNOT", 0, rng)
        model = rebased(_fold_model(template, rng, False, 3), 3)
        circs = [cc.cliffordize(template, rng) for _ in range(5)]
        batch = nz.process_infidelities_exact(iter(circs), model)
        single = [nz.process_infidelity_exact(c, model) for c in circs]
        assert np.array_equal(batch, single)

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
        wide = cc.cliffordize(
            cc.sample_brickwork(cc.BrickworkSpec(nz.FOLD_LIMIT + 1, 1), "haar", rng), rng
        )
        with pytest.raises(nz.FoldSizeError):
            nz.process_infidelity_exact(wide, model)
        with pytest.raises(nz.FoldSizeError):
            nz.process_infidelities_exact(iter([wide, wide]), model)

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
        offsets 0 and 3; n = 1 has empty entangling layers.  The periodic
        and crossed layouts of :class:`TestBlockFold` leave the diagonal's
        blocks apart to the end."""
        templates = [cc.LayeredCircuit(n, (cc.identity_layer(n),))]
        for topology in ("line", "ring"):
            for gate in ("CZ", "CNOT"):
                templates.append(_fold_case(n, topology, gate, rng))
        for layout, gate in (("periodic", "CZ"), ("crossed", "CNOT")):
            templates.append(TestBlockFold._template(n, 5, layout, gate))
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
                got = nz._fold(template, gates, rebased(model, offset))
                want = per_gate_fold(template, gates, model, offset)
                assert got.shape == want.shape == (k, 4**n)
                worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_gather_fold(self, n):
        # to 1e-14, as the blocks merge in another multiplication order than
        # the gather fold's steps; a circuit's row is, bit for bit, the one
        # it gets folded alone; one circuit per batch from n = 9 to keep the
        # test short
        rng = np.random.default_rng(360 + n)
        k = 1 if n >= 9 else 5
        for template, model, offset in self._cases(n, rng):
            gates = cc._draw_cliffords(rng, k, len(template.layers[::2]), n)
            shifted = rebased(model, offset)
            got = nz._fold(template, gates, shifted)
            assert np.max(np.abs(got - gather_fold(template, gates, model, offset))) < 1e-14
            if k > 1:
                for row, alone in zip(got, gates):
                    assert np.array_equal(nz._fold(template, alone[None], shifted)[0], row)


class TestGatherTables:
    """The steps' tables gathered from per-model tables (``_layer_steps``
    and ``_step_tables``), bit for bit against ``oracles.fused_tables``,
    which builds each layer's tables on their own."""

    @staticmethod
    def _oracle(template, gates, model):
        """Each gate's (labels, eig) by (layer, gate as listed)."""
        n, layers = template.n, template.layers
        depth = gates.shape[1] - 1

        def one_qubit_layer(i):
            return gates[:, i].T.astype(np.intp), model.layer_tables(2 * i, layers[2 * i]).eig

        want = {}
        for j, group in enumerate(nz._layer_gates(n, layers[1::2])):
            pre = one_qubit_layer(j)
            post = one_qubit_layer(depth) if j == depth - 1 else None
            for gate in group:
                if len(gate) == 1:
                    digits, twoq = nz._DIGITS[1], None
                else:
                    layer = layers[2 * j + 1]
                    flip = gate[0] > gate[1]
                    digits = nz._pair_digits(layer.gate, flip)
                    twoq = model.layer_tables(2 * j + 1, layer).eig[[layer.pairs.index(gate)]]
                    twoq = twoq[:, nz._SWAP] if flip else twoq
                labels, eig = fused_tables(np.array([sorted(gate)]), digits, twoq, pre, post)
                want[j, gate] = labels[0], eig[0]
        return want

    @staticmethod
    def _cases(n, rng):
        # line, ring (its (n-1, 0) pair), CNOT listed high first, pairs
        # apart, an idle last layer; depth 12 reads the Markovian pair
        # tables often enough to build them at K = 100
        for depth in (1, 2, 12):
            for layout in ("line", "ring", "crossed", "idle end"):
                for gate in ("CZ", "CNOT"):
                    if layout == "crossed" and n < 4 or layout == "idle end" and depth == 1:
                        continue
                    yield TestBlockFold._template(n, depth, layout, gate)

    @staticmethod
    def _same(got, want):
        return all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("markovian", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_layer_steps_match_fused_tables(self, n, markovian):
        rng = np.random.default_rng(380 + n)
        for template in self._cases(n, rng):
            model = nz.sample_error_model(template, rng, 1e-2, 1e-2, markovian)
            layers = len(template.layers[::2])
            # indices from 6 up, where an int8 index times 24 overflows
            high = rng.integers(6, 24, (100, layers, n)).astype(np.int8)
            for gates in (cc._draw_cliffords(rng, 1, layers, n), high):
                want = self._oracle(template, gates, model)
                plan = nz._plan(n, template.layers[1::2], markovian)
                got = list(nz._layer_steps(template, gates, model))
                assert len(got) == len(plan.starts) - 1
                for j, steps in enumerate(got):
                    listed = plan.steps[plan.starts[j] : plan.starts[j + 1]]
                    assert [qubits for qubits, _, _ in steps] == [tuple(sorted(gate)) for _, gate in listed]
                    for (_, gate), (_, labels, eig) in zip(listed, steps):
                        assert self._same((labels, eig), want[j, gate]), (j, gate)

    @pytest.mark.parametrize("markovian", [True, False])
    def test_both_row_sources_are_read(self, markovian, monkeypatch):
        # K = 1 gathers every pair's rows factor by factor; K = 100 at depth
        # 12 reads the Markovian pair tables, built once per model, kind and
        # pairs; the non-Markovian ones, read by one layer each, and those
        # after the last layer are gathered factor by factor at any K
        template = TestBlockFold._template(4, 12, "ring", "CZ")
        rng = np.random.default_rng(397)
        model = nz.sample_error_model(template, rng, 1e-2, 1e-2, markovian)
        built, products = [], nz.LayerTables.products

        def spy(tables, kind, pair):
            got = products(tables, kind, pair)
            built.append((id(tables), kind, pair, id(got)))
            return got

        monkeypatch.setattr(nz.LayerTables, "products", spy)
        for k in (1, 100, 100, 600):
            gates = cc._draw_cliffords(rng, k, 13, 4)
            want = self._oracle(template, gates, model)
            plan = nz._plan(4, template.layers[1::2], markovian)
            tables = nz._step_tables(template, gates, model, plan)(range(len(plan.steps)))
            assert all(self._same(got, want[step]) for got, step in zip(tables, plan.steps))
            kinds = {key[1] for key in built}
            # the pairs' tables, the even layers' and the odd ones' with the
            # flipped (3, 0)
            if k == 1 or not markovian:
                assert built == []
            else:
                assert kinds == {("CZ", False), ("CZ", True)}
        # each table is built once and then read from the model's cache
        assert len({key[:3] for key in built}) == len(set(built))
        if markovian:
            # four pairs' tables, none for the last layer's pairs after it
            assert len(model.layer_tables(0, template.layers[0])._products) == 4

    def test_tables_read_once_keep_no_products(self):
        # non-Markovian, K = 600: each position's tables are read by one
        # step, gathered factor by factor in bounded batches; a (576, 16)
        # product table per position and pair would keep 74 kB each, about
        # 14 MiB over a depth-200 ring, for the model's lifetime
        template = TestBlockFold._template(2, 200, "ring", "CZ")
        rng = np.random.default_rng(399)
        model = nz.sample_error_model(template, rng, 1e-2, 1e-2, False)
        gates = cc._draw_cliffords(rng, 600, 201, 2)
        for i, layer in enumerate(template.layers):
            model.layer_tables(i, layer)
        tracemalloc.start()
        try:
            nz._infidelities(template, gates, model)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20 and held <= 2**20
        assert not any(tables._products for tables in model._tables.values())

    @pytest.mark.parametrize("markovian", [True, False])
    def test_batches_gather_like_one(self, markovian, monkeypatch):
        # a budget of two steps a batch: at least three batches, each
        # layer's tables as the one-batch fold's and the sweep's sums as
        # its one-batch sums, bit for bit
        swept = 0
        for n, layout, depth in ((2, "ring", 6), (5, "line", 6), (6, "line", 3)):
            template = TestBlockFold._template(n, depth, layout, "CNOT")
            rng = np.random.default_rng(398 + n)
            model = nz.sample_error_model(template, rng, 1e-2, 1e-2, markovian)
            gates = cc._draw_cliffords(rng, 100, depth + 1, n)
            alone = list(nz._layer_steps(template, gates, model))
            step_tables, calls = nz._step_tables, []

            def spy(*args):
                tables = step_tables(*args)
                return lambda ids: calls.append(list(ids)) or tables(ids)

            monkeypatch.setattr(nz, "_step_tables", spy)
            monkeypatch.setattr(nz, "_TABLE_AMPLITUDES", 2 * 32 * 100)
            batched = list(nz._layer_steps(template, gates, model))
            assert len(calls) >= 3
            steps = nz._plan(n, template.layers[1::2], markovian).steps
            assert sorted(sum(calls, [])) == list(range(len(steps)))
            for got, want in zip(batched, alone, strict=True):
                for a, b in zip(got, want, strict=True):
                    assert a[0] == b[0] and self._same(a[1:], b[1:])
            order, _ = nz._sweep_plan(template.n, template.layers[1::2])
            if order is not None:
                calls.clear()
                got = nz._sweep_sum(template, gates, model, order)
                assert len(calls) >= 3 and sorted(sum(calls, [])) == list(range(len(steps)))
                monkeypatch.setattr(nz, "_TABLE_AMPLITUDES", 2**16)
                assert np.array_equal(got, nz._sweep_sum(template, gates, model, order))
                swept += 1
            monkeypatch.undo()
        assert swept == 1


class TestBlockFold:
    """The infidelity: the fold of blocks stepped forward, and merged until
    one array is left, through all but the last two entangling layers, and
    backward through those two, or the sweep qubit by qubit; against each
    other, the per-gate fold and the full diagonal."""

    @staticmethod
    def _template(n, depth, layout, gate):
        """Entangling layers of ``layout``: ``line`` or ``ring`` brickwork;
        ``("wrap", j)``, line brickwork whose layer j is a ring layer, so
        on even n the (n-1, 0) pair sits in layer j alone; ``periodic``,
        one ring layer repeated, so no two blocks ever merge;
        ``crossed``, the pairs (q, q + n // 2) repeated, so no block sits
        on the first and last qubits alone; or ``idle end``, line
        brickwork whose last layer is empty.  CNOT pairs are listed high
        qubit first."""
        layers = [cc.identity_layer(n)]
        for j in range(depth):
            if layout == "periodic":
                pairs = cc.brickwork_pairs(n, 1, "ring")
            elif layout == "crossed":
                pairs = tuple((q, q + n // 2) for q in range(n // 2))
            elif layout == "idle end" and j == depth - 1:
                pairs = ()
            elif isinstance(layout, tuple):
                wrap = layout[1]
                shift = (wrap + 1) % 2
                pairs = cc.brickwork_pairs(n, j + shift, "ring" if j == wrap else "line")
            else:
                pairs = cc.brickwork_pairs(n, j, "line" if layout == "idle end" else layout)
            if gate == "CNOT":
                pairs = tuple((b, a) for a, b in pairs)
            layers += [cc.TwoQubitLayer(pairs, gate), cc.identity_layer(n)]
        return cc.LayeredCircuit(n, tuple(layers))

    @classmethod
    def _cases(cls, n, rng):
        """Depths 0-8, so the two ends overlap, touch and leave middle
        layers; the wrap pair in the first two, the last two and a middle
        layer; an idle last layer; CZ and CNOT and both noise modes in
        turn."""
        for depth in range(9):
            layouts = ["line", "ring", "periodic", "crossed", "idle end"]
            layouts += [("wrap", j) for j in sorted({0, 1, depth // 2, depth - 2, depth - 1}) if 0 <= j < depth]
            for i, layout in enumerate(layouts):
                gate = ("CZ", "CNOT")[(depth + i) % 2]
                template = cls._template(n, depth, layout, gate)
                markovian = (depth + i) % 3 != 0
                yield template, nz.sample_error_model(template, rng, 5e-2, 5e-3, markovian)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_per_gate_fold_and_diagonal(self, n):
        rng = np.random.default_rng(490 + n)
        k = 1 if n >= 9 else 2
        for template, model in self._cases(n, rng):
            gates = cc._draw_cliffords(rng, k, len(template.layers[::2]), n)
            got = nz._infidelities(template, gates, model)
            diagonal = 1.0 - nz._fold(template, gates, model).mean(axis=1)
            np.testing.assert_allclose(got, diagonal, rtol=1e-12, atol=0)
            if n <= 8:
                want = 1.0 - per_gate_fold(template, gates, model).mean(axis=1)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_chunks_across_a_boundary(self, n, monkeypatch):
        # two circuits per chunk, so five circuits fold in three chunks: a
        # chunk of the fold holds 4^n amplitudes per circuit, and one of
        # the sweep (a periodic ring here) its largest frontier
        rng = np.random.default_rng(510 + n)
        for layout in ("line", "ring", ("wrap", 3), "periodic"):
            template = self._template(n, 6, layout, "CNOT")
            model = nz.sample_error_model(template, rng, 5e-2, 5e-3, False)
            gates = cc._draw_cliffords(rng, 5, 7, n)
            whole = nz._infidelities(template, gates, model)
            width = nz._sweep_plan(n, template.layers[1::2])[1]
            monkeypatch.setattr(nz, "_FOLD_AMPLITUDES", 2 * 4**width)
            got = nz._infidelities(template, gates, model)
            monkeypatch.undo()
            assert np.array_equal(got, whole)
            want = 1.0 - per_gate_fold(template, gates, model).mean(axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sweep_matches_fold_sum_and_diagonal(self, n):
        # the sweep on every case the infidelity sweeps, against the fold's
        # sum and the mean of the diagonal, both relative to 1e-12, in one
        # batch and alone
        rng = np.random.default_rng(530 + n)
        layouts = ["line", "ring", "periodic", "crossed", "idle end"]
        layouts += [("wrap", j) for j in sorted({0, 1, n // 2})]
        swept = 0
        for depth in sorted({1, 2, 4, n + 2}):
            for i, layout in enumerate(layouts):
                template = self._template(n, depth, layout, ("CZ", "CNOT")[(depth + i) % 2])
                order, width = nz._sweep_plan(template.n, template.layers[1::2])
                if width == n:
                    continue
                markovian = (depth + i) % 3 != 0
                model = rebased(_fold_model(template, rng, markovian, 3), 3)
                circs = [cc.cliffordize(template, rng) for _ in range(1 if n >= 9 else 3)]
                gates = np.array([[layer.indices for layer in c.layers[::2]] for c in circs])
                got = 1.0 - nz._sweep_sum(template, gates, model, order) / 4**n
                alone = [1.0 - nz._sweep_sum(template, row[None], model, order)[0] / 4**n for row in gates]
                assert np.array_equal(got, alone)
                fold_sum = 1.0 - nz._fold_sum(template, gates, model) / 4**n
                diagonal = [1.0 - nz.fold_eigenvalues(c, model).mean() for c in circs]
                np.testing.assert_allclose(got, fold_sum, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got, diagonal, rtol=1e-12, atol=0)
                swept += 1
        assert swept >= len(layouts)

    @pytest.mark.parametrize(
        "n, depth, layout, picked",
        [(10, 4, "line", "sweep"), (10, 20, "periodic", "sweep"), (3, 50, "periodic", "sweep"),
         (2, 100, "ring", "fold"), (4, 4, "line", "fold"), (6, 6, "ring", "fold")],
    )
    def test_picks_the_sweep_below_four_to_the_n(self, n, depth, layout, picked, monkeypatch):
        # the sweep where its largest frontier is smaller than 4^n, else
        # the fold: an n = 2 ring at depth 100 (accuracy's targets) and
        # brickwork deeper than it is wide keep the fold
        calls = []
        for name in ("_sweep_sum", "_fold_sum"):
            def spy(*args, _run=getattr(nz, name), _name=name, **kwargs):
                calls.append(_name)
                return _run(*args, **kwargs)

            monkeypatch.setattr(nz, name, spy)
        rng = np.random.default_rng(540 + n)
        circ = cc.cliffordize(self._template(n, depth, layout, "CZ"), rng)
        model = nz.sample_error_model(circ, rng)
        nz.process_infidelity_exact(circ, model)
        assert calls == ["_sweep_sum" if picked == "sweep" else "_fold_sum"]

    @staticmethod
    def _peak_case(layout):
        """An n = 10 Clifford circuit of ``layout`` and a model for it:
        depth-4 brickwork on a line or a ring, a depth-8 line (``deep
        line``), a depth-4 line with an idle last layer, or a depth-20
        periodic ring."""
        rng = np.random.default_rng(520)
        if layout == "periodic":
            circ = cc.cliffordize(TestBlockFold._template(10, 20, "periodic", "CZ"), rng)
        else:
            topology = "ring" if layout == "ring" else "line"
            depth = 8 if layout == "deep line" else 4
            circ = cc.sample_brickwork(cc.BrickworkSpec(10, depth, topology), "clifford", rng)
        if layout == "idle end":
            circ = cc.LayeredCircuit(10, circ.layers[:-2] + (cc.TwoQubitLayer(()), circ.layers[-1]))
        return circ, nz.sample_error_model(circ, rng)

    @staticmethod
    def _traced_peak(run):
        """Peak traced memory, in bytes, of ``run``'s second call."""
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "layout, limit_mb",
        [("line", 1.0), ("deep line", 2.0), ("ring", 1.0), ("idle end", 1.0), ("periodic", 1.0)],
    )
    def test_peak_memory_at_ten_qubits(self, layout, limit_mb):
        # every case is swept: its frontier holds the letters of at most 4
        # legs at depth 4 (line, idle end), 6 on the ring, whose (9, 0)
        # pair keeps qubit 9's legs open, 8 at depth 8 (deep line) and 2
        # for a periodic ring at any depth, where the fold would hold one
        # or two 4^10 arrays, 8 MiB each
        circ, model = self._peak_case(layout)
        peak = self._traced_peak(lambda: nz.process_infidelity_exact(circ, model))
        assert peak <= limit_mb * 2**20

    @pytest.mark.parametrize(
        "layout, limit_mb", [("line", 16.0), ("ring", 32.0), ("idle end", 16.0), ("periodic", 16.0)]
    )
    def test_fold_sum_peak_memory_at_ten_qubits(self, layout, limit_mb):
        # the fold that deep circuits keep, on the same shallow circuits:
        # the backward layers' last merge is contracted against the forward
        # array, never built: building it would add a third 4^10 array.
        # With an idle last layer that merge joins two single qubits, and
        # contracting it would read the array into a 4^11 one; it is built,
        # and a larger block contracted.  A periodic ring's blocks never
        # merge, so its forward side becomes one 4^10 array only for the
        # contraction, at any depth
        circ, model = self._peak_case(layout)
        template, gates = nz._gate_indices([circ])
        peak = self._traced_peak(lambda: nz._fold_sum(template, gates, model))
        assert peak <= limit_mb * 2**20


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
                            for noise, walked in ((model, rebased(model, offset)), (None, None)):
                                for codes in rng.integers(0, 4, (10, n)).tolist():
                                    got = nz.propagate_codes(circ, walked, codes)
                                    assert got == per_gate_walk(circ, noise, codes, offset)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_index_walk_matches_per_gate_walk(self, n):
        # the walk on drawn index rows, with each model's tables read once
        # for all its walks, against the Cliffordized circuits; the
        # template's own one-qubit gates are not read
        rng = np.random.default_rng(470 + n)
        for topology in ("line", "ring"):
            for gate in ("CZ", "CNOT"):
                template = _fold_case(n, topology, gate, rng)
                layers = template.layers
                for markovian in (True, False):
                    for offset in (0, 3):
                        model = _fold_model(template, rng, markovian, offset)
                        for noise, walked in ((model, rebased(model, offset)), (None, None)):
                            tables = nz._walk_tables(walked, layers, n)
                            for _ in range(3):
                                gates = cc._draw_cliffords(rng, 1, len(layers[::2]), n)[0]
                                circ = cc.LayeredCircuit(n, tuple(
                                    cc.OneQubitLayer(map(cc.CliffordGate1Q, gates[i // 2].tolist()))
                                    if i % 2 == 0 else layer
                                    for i, layer in enumerate(layers)
                                ))
                                for codes in rng.integers(0, 4, (5, n)).tolist():
                                    got = nz._walk_codes(layers, gates.tolist(), tables, codes)
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
    def _both(target, model, k, seed):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = nz.cliffordization_infidelities(target, model, k, rng)
        want = nz.process_infidelities_exact(
            (cc.cliffordize(target, twin) for _ in range(k)), model
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
                model = rebased(_fold_model(target, rng, markovian, offset), offset)
                for k in (1, 5):
                    got, want = self._both(target, model, k, int(rng.integers(2**32)))
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
        target = _haar_target(nz.FOLD_LIMIT + 1, "disordered", rng)
        model = nz.sample_error_model(target, rng)
        before = rng.bit_generator.state
        with pytest.raises(nz.FoldSizeError):
            nz.cliffordization_infidelities(target, model, 5, rng)
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


class TestLayerInfidelities:
    @pytest.mark.parametrize("markovian", [True, False])
    def test_matches_per_gate_loop(self, markovian):
        # layers of Haar, Clifford and mixed gates, so both table rows are read
        rng = np.random.default_rng(930)
        for n in (2, 3, 5):
            circ = cc.sample_brickwork(cc.BrickworkSpec(n, 4), "haar", rng)
            layers = list(circ.layers)
            layers[2] = cc.cliffordize(circ, rng).layers[2]
            mixed = [g if rng.random() < 0.5 else cc.CliffordGate1Q(int(rng.integers(24)))
                     for g in layers[4].gates]
            layers[4] = cc.OneQubitLayer(mixed)
            circ = cc.LayeredCircuit(circ.n, tuple(layers))
            model = nz.sample_error_model(circ, rng, 2e-2, 2e-3, markovian)
            assert nz.layer_infidelities(circ, model) == per_gate_layer_infidelities(circ, model)


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
