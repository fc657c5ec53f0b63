import numpy as np
import pytest

from cliffproxy.pauli import (
    SAMPLE_LIMIT,
    PauliChannel,
    PauliString,
    commutes,
    multiply,
    pauli_walsh,
    sample_uniform,
    sample_uniform_nonidentity,
)


def random_pauli(n, rng, signed=False):
    p = PauliString.from_label(n, int(rng.integers(4**n)))
    if signed and rng.integers(2):
        p = p.negate()
    return p


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        x = PauliString.from_text("X")
        z = PauliString.from_text("Z")
        prod = multiply(x, z)
        assert prod.phase == -1j
        assert prod.letter(0) == "Y"

    def test_self_product_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_pauli(3, rng)
            sq = multiply(p, p)
            assert sq.is_identity and sq.phase == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            multiply(PauliString.from_text("X"), PauliString.from_text("XX"))

    def test_against_dense_matrix_product(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_pauli(4, rng, signed=True)
            q = random_pauli(4, rng, signed=True)
            prod = multiply(p, q)
            dense = p.to_matrix() @ q.to_matrix()
            assert np.max(np.abs(dense - prod.to_matrix())) < 1e-12

    def test_associativity_with_phases(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p, q, r = (random_pauli(3, rng, signed=True) for _ in range(3))
            left = multiply(multiply(p, q), r)
            right = multiply(p, multiply(q, r))
            assert left == right

    def test_inverse_cancels(self):
        # the letter part squares to I, so the adjoint is the inverse
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = random_pauli(4, rng, signed=True)
            prod = multiply(p, p.adjoint())
            assert prod.is_identity and prod.phase == 1


class TestCommutes:
    def test_textbook_cases(self):
        assert not commutes(PauliString.from_text("X"), PauliString.from_text("Z"))
        assert commutes(PauliString.from_text("XX"), PauliString.from_text("ZZ"))

    def test_against_dense_commutator(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = random_pauli(5, rng)
            q = random_pauli(5, rng)
            comm = p.to_matrix() @ q.to_matrix() - q.to_matrix() @ p.to_matrix()
            assert commutes(p, q) == (np.max(np.abs(comm)) < 1e-12)

    def test_matches_product_order_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_pauli(3, rng)
            q = random_pauli(3, rng)
            pq = multiply(p, q)
            qp = multiply(q, p)
            ratio = (pq.phase_exp - qp.phase_exp) % 4
            assert ratio in (0, 2)
            assert commutes(p, q) == (ratio == 0)


class TestSampling:
    def test_identity_never_sampled(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            p = sample_uniform_nonidentity(2, rng)
            assert not p.is_identity and p.phase == 1

    def test_single_qubit_support_uniform(self):
        rng = np.random.default_rng(7)
        counts = {"X": 0, "Y": 0, "Z": 0}
        draws = 100_000
        for _ in range(draws):
            counts[sample_uniform_nonidentity(1, rng).letter(0)] += 1
        expected = draws / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square with 2 dof: 0.01 quantile cut at 9.21
        assert chi2 < 9.21

    def test_three_qubit_frequencies_within_5_sigma(self):
        rng = np.random.default_rng(8)
        draws = 1_000_000
        labels = 1 + rng.integers(63, size=draws)  # same scheme as the sampler
        counts = np.bincount(labels, minlength=64)[1:]
        p = 1.0 / 63.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 5 * sigma)

    def test_sampler_matches_label_scheme(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        for _ in range(100):
            p = sample_uniform_nonidentity(3, rng1)
            assert p.label == 1 + int(rng2.integers(63))

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            sample_uniform_nonidentity(0, np.random.default_rng(0))

    def test_widths_up_to_the_sampling_limit(self):
        rng = np.random.default_rng(10)
        assert sample_uniform_nonidentity(SAMPLE_LIMIT, rng).n == SAMPLE_LIMIT == 31
        with pytest.raises(ValueError, match="31"):
            sample_uniform_nonidentity(SAMPLE_LIMIT + 1, rng)

    def test_uniform_sampler_shares_the_limit(self):
        rng = np.random.default_rng(13)
        assert sample_uniform(SAMPLE_LIMIT, rng).n == SAMPLE_LIMIT
        for n in (0, SAMPLE_LIMIT + 1):
            with pytest.raises(ValueError, match="SAMPLE_LIMIT = 31"):
                sample_uniform(n, rng)


class TestTextEncoding:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_pauli(6, rng, signed=True)
            assert PauliString.from_text(str(p)) == p

    def test_examples(self):
        p = PauliString.from_text("-XIZY")
        assert str(p) == "-XIZY"
        assert p.letter(0) == "X" and p.letter(3) == "Y"
        assert PauliString.from_text("+XIZY") == PauliString.from_text("XIZY")
        assert PauliString.from_text("−Z") == PauliString.from_text("-Z")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            PauliString.from_text("XQ")
        with pytest.raises(ValueError):
            PauliString.from_text("")

    def test_imaginary_phase_has_no_text_form(self):
        with pytest.raises(ValueError):
            str(PauliString(1, 1, 0, 1))


class TestLabels:
    def test_label_round_trip(self):
        for label in range(64):
            assert PauliString.from_label(3, label).label == label

    def test_label_order_matches_text(self):
        assert PauliString.from_label(2, 0b0111).label == PauliString.from_text("XZ").label
        assert str(PauliString.from_label(2, 7)) == "XZ"


class TestPauliChannel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliChannel(1, np.array([0.5, 0.6, 0.0, 0.0]))
        with pytest.raises(ValueError):
            PauliChannel(1, np.array([1.1, -0.1, 0.0, 0.0]))

    def test_identity_probability(self):
        ch = PauliChannel.from_dict(1, {"I": 0.97, "X": 0.02, "Z": 0.01})
        assert ch.p_identity == pytest.approx(0.97)
        assert ch.infidelity == pytest.approx(0.03)

    def test_walsh_is_self_inverse(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            v = rng.random(4**n)
            back = pauli_walsh(pauli_walsh(v, n), n) / 4**n
            assert np.max(np.abs(back - v)) < 1e-12

    def test_eigenvalue_of_x_flip_channel(self):
        ch = PauliChannel.from_dict(1, {"I": 0.9, "X": 0.1})
        eig = ch.eigenvalues()
        # X errors leave I and X alone and damp Y and Z
        assert np.allclose(eig, [1.0, 1.0, 0.8, 0.8])

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(13)
        ch = PauliChannel.from_dict(1, {"I": 0.7, "X": 0.2, "Y": 0.1})
        counts = np.zeros(4)
        draws = 20000
        for _ in range(draws):
            counts[ch.sample(rng).label] += 1
        for label, p in ((0, 0.7), (1, 0.2), (2, 0.1), (3, 0.0)):
            sigma = max(np.sqrt(draws * p * (1 - p)), 1.0)
            assert abs(counts[label] - draws * p) < 5 * sigma
