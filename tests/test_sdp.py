import math

import numpy as np
import pytest
from oracles import dense_diamond_sdp, partial_trace_matrix, tat_matrix

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
    """The solve, after checking it against the dense solver to the last bit."""
    res = solve_diamond_sdp(delta, d_in, **kwargs)
    ref = dense_diamond_sdp(delta, d_in, **kwargs)
    assert (res.value, res.duality_gap, res.iterations) == (
        ref.value,
        ref.duality_gap,
        ref.iterations,
    )
    return res


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unreachable_gap_raises_with_gap(self):
        with pytest.raises(SdpConvergenceError) as err:
            solve_diamond_sdp(*INSTANCES["x_flip"], gap_tol=1e-18, gap_required=1e-17, max_iter=40)
        assert err.value.gap > 0

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
    """The solver does the floating-point operations of the dense solver it
    replaced on every value that reaches the Newton system or the iterates,
    so its results are equal, not close."""

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

    @pytest.mark.parametrize("dim, d_in", [(2, 2), (4, 2), (8, 2), (8, 4), (16, 4)])
    def test_newton_blocks(self, dim, d_in):
        # the congruence matrix, and the partial trace's P.T @ G @ P as the
        # gather the Newton system is assembled with
        rng = np.random.default_rng(dim + d_in)

        def scaling(d):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return a @ a.conj().T

        basis, small = sdp._HermBasis(dim), sdp._HermBasis(d_in)
        t = scaling(dim)
        ref = tat_matrix(basis, t)
        assert np.array_equal(basis.tat_matrix(t), ref)
        assert np.array_equal(basis.tat_matrix(t, block=3 * basis.size), ref)
        g = tat_matrix(small, scaling(d_in))
        pt = partial_trace_matrix(basis, dim // d_in, d_in)
        idx, sign = sdp._tr_out_gather(basis, d_in)
        assert np.array_equal((sign[:, None] * g[idx][:, idx]) * sign, pt.T @ g @ pt)
