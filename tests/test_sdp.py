import math

import numpy as np
import pytest
from oracles import HermBasis, dense_diamond_sdp, newton_matrix, partial_trace_matrix

from cliffproxy import circuits as cc
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy import sdp
from cliffproxy.sdp import DiamondResult, SdpConvergenceError, solve_diamond_sdp


def choi_unitary(v):
    d = v.shape[0]
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0
    j0 = np.outer(omega, omega.conj())
    big = np.kron(v, np.eye(d))
    return big @ j0 @ big.conj().T


I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLES = [I2, X, Y, Z]
P_2Q = np.random.default_rng(0).dirichlet(np.ones(16) * 0.4)


def z_rotation(theta):
    v = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    return choi_unitary(v) - choi_unitary(I2), 2


# (Choi difference, d_in) of every closed-form instance below
INSTANCES = {
    "zero": (np.zeros((4, 4), dtype=complex), 2),
    "depolarizing": (np.eye(4, dtype=complex) / 2 - choi_unitary(I2), 2),
    "pauli_1q": (
        sum(p * choi_unitary(m) for p, m in zip([0.96, 0.01, 0.02, 0.01], SINGLES))
        - choi_unitary(I2),
        2,
    ),
    "x_flip": (choi_unitary(X) - choi_unitary(I2), 2),
    **{f"z_rotation_{theta}": z_rotation(theta) for theta in (0.1, 0.8, 2.0)},
    "pauli_2q": (
        sum(
            P_2Q[4 * a + b] * choi_unitary(np.kron(SINGLES[a], SINGLES[b]))
            for a in range(4)
            for b in range(4)
        )
        - choi_unitary(np.eye(4, dtype=complex)),
        4,
    ),
}


def _same_as_dense(delta, d_in, **kwargs):
    """The solve, after checking it against the dense solver: the same
    iterations, and value and gap within the benchmark check's 1e-13."""
    res = solve_diamond_sdp(delta, d_in, **kwargs)
    ref = dense_diamond_sdp(delta, d_in, **kwargs)
    assert res.iterations == ref.iterations
    assert abs(res.value - ref.value) <= 1e-13
    assert abs(res.duality_gap - ref.duality_gap) <= 1e-13
    return res


def _scaling(rng, d, spread):
    """A random Hermitian positive definite matrix with a random eigenbasis,
    its spectrum spread log-evenly over [1e-8, 1e4] or drawn from [0.5, 2]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = rng.permutation(np.logspace(-8, 4, d)) if spread else rng.uniform(0.5, 2.0, d)
    return sdp._herm((q * lam) @ q.conj().T)


def _hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


class TestClosedForms:
    def test_zero_difference(self):
        res = solve_diamond_sdp(*INSTANCES["zero"])
        assert abs(res.value) < 1e-8

    def test_fully_depolarizing(self):
        res = solve_diamond_sdp(*INSTANCES["depolarizing"])
        assert res.value == pytest.approx(0.75, abs=1e-8)

    def test_one_qubit_pauli_channel(self):
        res = solve_diamond_sdp(*INSTANCES["pauli_1q"])
        assert res.value == pytest.approx(0.04, abs=1e-8)

    @pytest.mark.parametrize("theta", [0.1, 0.8, 2.0])
    def test_z_rotations(self, theta):
        res = solve_diamond_sdp(*INSTANCES[f"z_rotation_{theta}"])
        assert res.value == pytest.approx(math.sin(theta / 2), abs=1e-7)

    def test_two_qubit_random_pauli_channel(self):
        res = solve_diamond_sdp(*INSTANCES["pauli_2q"])
        assert res.value == pytest.approx(1 - P_2Q[0], abs=1e-7)
        assert res.duality_gap <= 1e-8


class TestDiagnostics:
    def test_reports_gap_and_iterations(self):
        res = solve_diamond_sdp(*INSTANCES["x_flip"])
        assert isinstance(res, DiamondResult)
        assert res.iterations > 0
        assert res.duality_gap <= 1e-9

    def test_unreachable_gap_raises_with_gap(self):
        with pytest.raises(SdpConvergenceError) as err:
            solve_diamond_sdp(*INSTANCES["x_flip"], gap_tol=1e-18, gap_required=1e-17, max_iter=40)
        assert err.value.gap > 0

    @pytest.mark.parametrize("name", ["depolarizing", "pauli_1q", "pauli_2q"])
    def test_linear_algebra_breakdown_raises_with_gap(self, name):
        # driven past round-off, the Newton system turns singular (one qubit)
        # or a step overflows once scaled (two qubits); neither numpy's error
        # nor its floating-point warnings escape
        with pytest.raises(SdpConvergenceError, match="broke down") as err:
            solve_diamond_sdp(*INSTANCES[name], gap_tol=1e-18, gap_required=1e-8, max_iter=40)
        assert 0 < err.value.gap < 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eigenvalue_clips_counted(self):
        # pushed past a 1e-15 gap, two of the last iterations' spectra fall
        # below the 1e-300 floor: the solve clips them, goes on and reports them
        res = _same_as_dense(*INSTANCES["x_flip"], gap_tol=1e-18, gap_required=1e-8, max_iter=40)
        assert res.duality_gap < 1e-14
        assert res.eig_clips == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_diamond_sdp(np.zeros((5, 5), dtype=complex), 2)


class TestDenseOracle:
    """The solver against the dense solver it replaced, which assembles and
    LU-solves the Newton system in a basis of Hermitian matrices."""

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_closed_form_instances(self, name):
        assert _same_as_dense(*INSTANCES[name]).eig_clips == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_qubit_circuits(self, seed):
        rng = np.random.default_rng(70 + seed)
        circ = cc.sample_brickwork(cc.BrickworkSpec(2, 10), "haar", rng)
        model = nz.sample_error_model(circ, rng, 5e-3, 5e-4)
        ideal, noisy = dn.circuit_ptm(circ), dn.circuit_ptm(circ, model)
        _same_as_dense(dn.choi_of_ptm(noisy).mat - dn.choi_of_ptm(ideal).mat, 4)

    @pytest.mark.parametrize("spread", ["none", "scalings", "rho", "all"])
    @pytest.mark.parametrize("dim, d_in", [(4, 2), (16, 4), (64, 8)])
    def test_newton_step_solves_assembled_system(self, dim, d_in, spread):
        # the structured (dY, dt) against the Newton system assembled from the
        # congruence and partial-trace matrices, as normwise backward error
        rng = np.random.default_rng(7 * dim + len(spread))
        wide = spread in ("scalings", "all")
        tw, ts = _scaling(rng, dim, wide), _scaling(rng, dim, wide)
        trho = _scaling(rng, d_in, spread in ("rho", "all"))
        r_ws, r_rho = _hermitian(rng, dim), _hermitian(rng, d_in)
        dy, dt = sdp._newton_solver(tw, ts, trho, d_in)(r_ws, r_rho)

        basis, small = HermBasis(dim), HermBasis(d_in)
        m = newton_matrix(basis, small, partial_trace_matrix(basis, dim // d_in, d_in), tw, ts, trho)
        rhs = np.append(basis.vec(np.kron(np.eye(dim // d_in), r_rho) - r_ws), -np.trace(r_rho).real)
        x = np.append(basis.vec(dy), dt)
        residual = np.linalg.norm(m @ x - rhs)
        assert residual <= 1e-12 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(rhs))
