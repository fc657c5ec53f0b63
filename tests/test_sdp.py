import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    HermBasis,
    dense_diamond_sdp,
    newton_matrix,
    partial_trace_matrix,
    unstacked_diamond_sdp,
)

from cliffproxy import circuits as cc
from cliffproxy import dense as dn
from cliffproxy import noise as nz
from cliffproxy import sdp
from cliffproxy.sdp import (
    DiamondResult,
    SdpConvergenceError,
    solve_diamond_sdp,
    solve_diamond_sdps,
)


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


def _circuit_choi(n, depth, gates, seed, budgets):
    """The Choi difference of a noisy brickwork circuit from its ideal."""
    rng = np.random.default_rng(seed)
    circ = cc.sample_brickwork(cc.BrickworkSpec(n, depth), gates, rng)
    model = nz.sample_error_model(circ, rng, *budgets)
    ideal, noisy = dn.circuit_ptm(circ), dn.circuit_ptm(circ, model)
    return dn.choi_of_ptm(noisy).mat - dn.choi_of_ptm(ideal).mat


# two noisy ten-layer Haar brickwork circuits on two qubits
CIRCUITS_2Q = [_circuit_choi(2, 10, "haar", 70 + seed, (5e-3, 5e-4)) for seed in (0, 1)]
ONE_QUBIT = [name for name, (_, d_in) in INSTANCES.items() if d_in == 2]


def _outcome(solve, *args):
    """What a solve returns, or the error it raises."""
    try:
        return solve(*args)
    except (SdpConvergenceError, ValueError) as exc:
        return exc


def _bits(outcome):
    """A result's fields with floats as hex, or an error's type, message and gap."""
    if isinstance(outcome, Exception):
        gap = getattr(outcome, "gap", None)
        return type(outcome), str(outcome), None if gap is None else float(gap).hex()
    return (
        float(outcome.value).hex(),
        float(outcome.duality_gap).hex(),
        outcome.iterations,
        outcome.eig_clips,
    )


def _same_as_unstacked(deltas, d_in):
    """The batch's outcomes, after checking each against the one-problem
    solver bit for bit."""
    batch = solve_diamond_sdps(np.array(deltas), d_in)
    assert len(batch) == len(deltas)
    for got, delta in zip(batch, deltas):
        assert _bits(got) == _bits(_outcome(unstacked_diamond_sdp, delta, d_in))
    return batch


def _same_as_dense(delta, d_in):
    """The solve, after checking it against the dense solver at the same
    tolerances: the same iterations, and value and gap within the
    benchmark check's 1e-13."""
    res = solve_diamond_sdp(delta, d_in)
    ref = dense_diamond_sdp(delta, d_in, sdp._GAP_TOL, sdp._GAP_REQUIRED, sdp._MAX_ITER)
    assert res.iterations == ref.iterations
    assert abs(res.value - ref.value) <= 1e-13
    assert abs(res.duality_gap - ref.duality_gap) <= 1e-13
    return res


def _past_round_off(monkeypatch, gap_required):
    """Ask the solver for a 1e-18 gap within 40 iterations."""
    monkeypatch.setattr(sdp, "_GAP_TOL", 1e-18)
    monkeypatch.setattr(sdp, "_GAP_REQUIRED", gap_required)
    monkeypatch.setattr(sdp, "_MAX_ITER", 40)


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

    def test_unreachable_gap_raises_with_gap(self, monkeypatch):
        _past_round_off(monkeypatch, 1e-17)
        with pytest.raises(SdpConvergenceError) as err:
            solve_diamond_sdp(*INSTANCES["x_flip"])
        assert err.value.gap > 0

    @pytest.mark.parametrize("name", ["depolarizing", "pauli_1q", "pauli_2q"])
    def test_linear_algebra_breakdown_raises_with_gap(self, name, monkeypatch):
        # driven past round-off, the Newton system turns singular (one qubit)
        # or a step overflows once scaled (two qubits); neither numpy's error
        # nor its floating-point warnings escape
        _past_round_off(monkeypatch, 1e-8)
        with pytest.raises(SdpConvergenceError, match="broke down") as err:
            solve_diamond_sdp(*INSTANCES[name])
        assert 0 < err.value.gap < 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eigenvalue_clips_counted(self, monkeypatch):
        # pushed past a 1e-15 gap, two of the last iterations' spectra fall
        # below the 1e-300 floor: the solve clips them, goes on and reports them
        _past_round_off(monkeypatch, 1e-8)
        res = _same_as_dense(*INSTANCES["x_flip"])
        assert res.duality_gap < 1e-14
        assert res.eig_clips == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_diamond_sdp(np.zeros((5, 5), dtype=complex), 2)

    def test_non_hermitian_input_rejected(self):
        # symmetrised, |0><1| (x) I would have solved to 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            solve_diamond_sdp(np.kron([[0, 1], [0, 0]], np.eye(2)), 2)
        # within ChoiMatrix's 1e-10, the input is symmetrised as before
        delta, d_in = INSTANCES["x_flip"]
        skew = np.zeros_like(delta)
        skew[0, 1] = 5e-11
        assert solve_diamond_sdp(delta + skew, d_in).value == pytest.approx(1.0, abs=1e-8)


class TestDenseOracle:
    """The solver against the dense solver it replaced, which assembles and
    LU-solves the Newton system in a basis of Hermitian matrices."""

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_closed_form_instances(self, name):
        assert _same_as_dense(*INSTANCES[name]).eig_clips == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_qubit_circuits(self, seed):
        _same_as_dense(CIRCUITS_2Q[seed], 4)

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
        # the solver takes stacks: here stacks of one
        solve = sdp._newton_solver(tw[None], ts[None], trho[None], sdp._units(dim // d_in, d_in))
        (dy,), (dt,) = solve(r_ws[None], r_rho[None])

        basis, small = HermBasis(dim), HermBasis(d_in)
        m = newton_matrix(basis, small, partial_trace_matrix(basis, dim // d_in, d_in), tw, ts, trho)
        rhs = np.append(basis.vec(np.kron(np.eye(dim // d_in), r_rho) - r_ws), -np.trace(r_rho).real)
        x = np.append(basis.vec(dy), dt)
        residual = np.linalg.norm(m @ x - rhs)
        assert residual <= 1e-12 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(rhs))


class TestLockstep:
    """Batches against the one-problem solver they replaced, bit for bit:
    value, gap, iterations and clips, or the error's message and gap."""

    def test_one_qubit_closed_forms_stop_apart(self):
        batch = _same_as_unstacked([INSTANCES[name][0] for name in ONE_QUBIT], 2)
        assert len({res.iterations for res in batch}) > 1

    def test_two_qubit_instances(self):
        _same_as_unstacked([INSTANCES["pauli_2q"][0], *CIRCUITS_2Q], 4)

    def test_single_solve_is_a_batch_of_one(self):
        for delta in CIRCUITS_2Q:
            assert _bits(solve_diamond_sdp(delta, 4)) == _bits(unstacked_diamond_sdp(delta, 4))

    def test_three_qubit_group(self):
        # test_dense's n=3 instance with a second, Haar one: two problems fill
        # one group, whose peak stays below 64 MiB
        deltas = [
            _circuit_choi(3, 4, "clifford", 60, (2e-2, 2e-3)),
            _circuit_choi(3, 6, "haar", 61, (1e-2, 1e-3)),
        ]
        assert sdp._GROUP_AMPLITUDES // 8**2 // 64**2 == 2
        tracemalloc.start()
        try:
            batch = solve_diamond_sdps(np.array(deltas), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        for got, delta in zip(batch, deltas):
            assert _bits(got) == _bits(unstacked_diamond_sdp(delta, 8))

    def test_batch_straddles_group_boundaries(self, monkeypatch):
        # three one-qubit problems to a group: seven problems in groups of 3, 3, 1
        whole = solve_diamond_sdps(np.array([INSTANCES[name][0] for name in ONE_QUBIT]), 2)
        monkeypatch.setattr(sdp, "_GROUP_AMPLITUDES", 3 * 2**2 * 4**2)
        batch = _same_as_unstacked([INSTANCES[name][0] for name in ONE_QUBIT], 2)
        assert [_bits(res) for res in batch] == [_bits(res) for res in whole]

    def test_breakdown_stays_with_its_problem(self, monkeypatch):
        # past round-off, five of the seven break down, each at its own
        # iteration and gap, while zero and x_flip finish, x_flip with two clips
        _past_round_off(monkeypatch, 1e-8)
        batch = _same_as_unstacked([INSTANCES[name][0] for name in ONE_QUBIT], 2)
        outcomes = dict(zip(ONE_QUBIT, batch))
        assert outcomes["x_flip"].eig_clips == 2
        assert isinstance(outcomes["zero"], DiamondResult)
        broken = [res for res in batch if isinstance(res, SdpConvergenceError)]
        assert len(broken) == 5
        assert len({res.gap for res in broken}) == 5
        for err in broken:
            assert "broke down" in str(err)
            assert 0 < err.gap < 1e-13
            assert isinstance(err.__cause__, np.linalg.LinAlgError)

    def test_stall_stays_with_its_problem(self, monkeypatch):
        # cut at five iterations, the zero difference ends within the required
        # gap and every other problem stalls above it, each with its own gap
        monkeypatch.setattr(sdp, "_MAX_ITER", 5)
        batch = _same_as_unstacked([INSTANCES[name][0] for name in ONE_QUBIT], 2)
        outcomes = dict(zip(ONE_QUBIT, batch))
        assert isinstance(outcomes.pop("zero"), DiamondResult)
        for err in outcomes.values():
            assert isinstance(err, SdpConvergenceError)
            assert "stalled" in str(err)
            assert err.gap > sdp._GAP_REQUIRED
        assert len({err.gap for err in outcomes.values()}) == len(outcomes)

    def test_non_hermitian_problem_reported_alone(self):
        bad = np.kron([[0, 1], [0, 0]], np.eye(2))
        batch = _same_as_unstacked([bad, INSTANCES["x_flip"][0]], 2)
        assert isinstance(batch[0], ValueError)
        assert isinstance(batch[1], DiamondResult)

    def test_stack_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            solve_diamond_sdps(np.zeros((2, 5, 5), dtype=complex), 2)
        with pytest.raises(ValueError, match="shape"):
            solve_diamond_sdps(np.zeros((4, 4), dtype=complex), 2)
        assert solve_diamond_sdps(np.zeros((0, 4, 4), dtype=complex), 2) == []
