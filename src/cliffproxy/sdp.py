"""Dense path-following interior-point solver for the diamond-norm SDP.

For a Hermitian difference-of-channels Choi matrix J (output factor first),
half the diamond norm is the optimum of

    maximize  <J, W>
    s.t.      W + S = I_out (x) rho,   Tr(rho) = 1,   W, S, rho >= 0,

whose dual is  min t  s.t.  Y >= J, Y >= 0, Tr_out(Y) <= t*I.  The solver
runs a feasible-start primal-dual Nesterov-Todd path-following iteration
directly over the complex Hermitian cones.  Eliminating the primal step
against the scaled complementarity equations leaves one symmetric positive
definite system per iteration in the dual variables (Y, t), which is
solved in its operator form, never assembled as a matrix.

Problem sizes here are small (Choi dimension D = 4^n with n <= 3), so all
linear algebra is dense on D x D matrices.  An iteration decomposes each of
the six cone matrices once, for the scalings, the slacks' inverses and all
twelve step lengths, and factors the Newton system once for the predictor
and the corrector: two more eigendecompositions diagonalize the congruence
part on the pencil of the two D x D scalings, and the partial trace's part
enters through a d_in^2 x d_in^2 capacitance matrix (see
``_newton_solver``).  That is O(D^3) work and memory O(D^2 d_in^2) per
iteration, with no D^2 x D^2 matrix.  With one BLAS thread on a 2-vCPU
host an n = 2 solve takes about 13 ms and an n = 3 solve about 0.3 s with
a 19 MiB traced peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiamondResult", "SdpConvergenceError", "solve_diamond_sdp"]


class SdpConvergenceError(RuntimeError):
    """Raised when the solver cannot reach the required duality gap."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class DiamondResult:
    value: float
    duality_gap: float
    iterations: int
    # eigendecompositions whose smallest eigenvalue was below _FLOOR, so that
    # a square root or inverse square root was taken of a clipped spectrum
    eig_clips: int = 0


_FLOOR = 1e-300
# a solve stops at a duality gap of _GAP_TOL; stalled, it returns its best
# iterate if that gap is at most _GAP_REQUIRED
_GAP_TOL = 1e-9
_GAP_REQUIRED = 1e-8
_MAX_ITER = 200
# fraction of the distance to a cone's boundary that each step covers
_STEP_FRACTION = 0.98


def _ip(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _with_spectrum(eig: tuple[np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
    """The matrix with eigenvectors ``eig[1]`` and eigenvalues ``f``."""
    return _herm((eig[1] * f) @ eig[1].conj().T)


def _isqrt(eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x^(-1/2) of a decomposed x, its spectrum clipped at the floor."""
    return (eig[1] / np.sqrt(np.clip(eig[0], _FLOOR, None))) @ eig[1].conj().T


def _max_step(isqrt: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still positive definite, given x^(-1/2)."""
    scaled = _herm(isqrt @ dx @ isqrt)
    if not np.isfinite(scaled).all():
        # a clipped spectrum's 1e150 inverse roots can overflow the product
        raise np.linalg.LinAlgError("scaled step is not finite")
    lam_min = float(np.linalg.eigvalsh(scaled)[0])
    if lam_min >= 0.0:
        return np.inf
    return -1.0 / lam_min


def _tr_out(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    return np.einsum("aiaj->ij", m.reshape(d_out, d_in, d_out, d_in))


def _units(d_out: int, d_in: int) -> np.ndarray:
    """The (d_in^2, D, D) stack of I_out (x) E_ab, E_ab the d_in x d_in
    matrix units in row-major order: a constant of the solve."""
    return np.kron(np.eye(d_out), np.eye(d_in * d_in).reshape(-1, d_in, d_in))


def _newton_solver(tw: np.ndarray, ts: np.ndarray, trho: np.ndarray, units: np.ndarray):
    """Factor the Newton system of the dual step (dY, dt) once per iteration.

    The system is  G(dY) - dt*C = B,  -<C, dY> + kappa*dt = r0,  where
    G(Y) = L(Y) + I_out (x) (T_rho Tr_out(Y) T_rho),  L(Y) = T_w Y T_w + T_s Y T_s,
    C = I_out (x) T_rho^2,  kappa = tr T_rho^2,  B = I_out (x) r_rho - r_ws
    and  r0 = -tr r_rho.  Returns ``solve(r_ws, r_rho) -> (dY, dt)``.

    L^-1 is diagonal on the pencil of M = T_w + T_s: with
    M^(-1/2) T_w M^(-1/2) = V diag(a) V^dag, F = M^(-1/2) V and
    b = diag(F^dag T_s F) (that is 1 - a, but small entries keep their digits),
    L^-1(B) = F [(F^dag B F) / (a a' + b b')] F^dag.  The partial trace's part
    enters through the capacitance K(Z) = T_rho^-1 Z T_rho^-1 + K_L(Z), with
    K_L(Z) = Tr_out L^-1(I_out (x) Z) and u = Tr_out L^-1(B):
    dt = (r0 + <I, K^-1 u>) / <I, K^-1 I>  and
    dY = L^-1(B - I_out (x) (K^-1 u - dt K^-1 I)).  With T_rho = g g^dag,
    K^-1 = g (1 + g^dag K_L g)^-1 g^dag, so the solve factors a Hermitian
    positive definite d_in^2 x d_in^2 matrix on row-major vec(Z) and never
    forms T_rho^-1, whose rounding T_rho would amplify when it is
    ill-conditioned.  ``units`` is :func:`_units` of the solve.
    """
    big, d_in = len(tw), len(trho)
    d_out = big // d_in
    m_isqrt = _isqrt(np.linalg.eigh(_herm(tw + ts)))
    alpha, v = np.linalg.eigh(_herm(m_isqrt @ tw @ m_isqrt))
    f = m_isqrt @ v
    fh = f.conj().T
    beta = np.real(np.diagonal(fh @ ts @ f))
    den = np.outer(alpha, alpha) + np.outer(beta, beta)
    # row ab of xs is F^dag (I_out (x) E_ab) F, so K_L's column ab is Tr_out
    # of image ab
    xs = fh @ units @ f
    images = (f @ (xs / den) @ fh).reshape(-1, d_out, d_in, d_out, d_in)
    xs = xs.reshape(d_in * d_in, big * big)
    k_l = np.einsum("kaiaj->ijk", images).reshape(d_in**2, -1)
    # g^dag Z g on vec(Z) is gh @ vec(Z), and g Z g^dag is gh^dag @ vec(Z)
    lam, q = np.linalg.eigh(trho)
    g = q * np.sqrt(np.clip(lam, 0.0, None))
    gh = np.kron(g.conj().T, g.T)
    k = np.eye(d_in**2) + gh @ k_l @ gh.conj().T
    k = 0.5 * (k + k.conj().T)
    g_eye = (g.conj().T @ g).ravel()
    k_eye = np.linalg.solve(k, g_eye)
    tr_k_eye = _ip(g_eye, k_eye)

    def solve(r_ws: np.ndarray, r_rho: np.ndarray) -> tuple[np.ndarray, float]:
        # B in the pencil's coordinates, F^dag B F
        b = (r_rho.ravel() @ xs).reshape(big, big) - fh @ r_ws @ f
        k_u = np.linalg.solve(k, gh @ (xs.conj() @ (b / den).ravel()))
        r0 = -float(np.real(np.trace(r_rho)))
        dt = (r0 + _ip(g_eye, k_u)) / tr_k_eye
        z = ((gh.conj().T @ (k_u - dt * k_eye)) @ xs).reshape(big, big)
        return _herm(f @ ((b - z) / den) @ fh), dt

    return solve


@np.errstate(all="ignore")  # non-finite values are checked, not warned about
def solve_diamond_sdp(delta_choi: np.ndarray, d_in: int) -> DiamondResult:
    """Half diamond norm of the Hermitian-preserving map with Choi ``delta_choi``.

    ``delta_choi`` is (d_out*d_in) x (d_out*d_in) with the output factor
    first, Hermitian to 1e-10 (else ValueError).  Returns the midpoint of
    the final primal/dual objectives and the duality gap, stopping at a
    gap of 1e-9 (``_GAP_TOL``); raises :class:`SdpConvergenceError` if in
    200 iterations (``_MAX_ITER``) the gap cannot be pushed to 1e-8
    (``_GAP_REQUIRED``), or if an iteration's linear algebra breaks down
    (a singular Newton system, an eigensolver that does not converge, a
    step that overflows once scaled), whatever gap was reached before.
    The gap certifies the value only for feasible iterates, which inexact
    Newton steps do not keep: on generic channel differences, solves at
    gaps of at most 1e-9 have differed by up to 3e-6.
    """
    j = np.asarray(delta_choi, dtype=complex)
    big = j.shape[0]
    if j.shape != (big, big) or big % d_in != 0:
        raise ValueError("Choi matrix shape inconsistent with d_in")
    if np.max(np.abs(j - j.conj().T)) > 1e-10:
        raise ValueError("Choi matrix must be Hermitian")
    j = _herm(j)
    d_out = big // d_in

    eye_in = np.eye(d_in)
    units = _units(d_out, d_in)

    # feasible interior start
    w = np.eye(big, dtype=complex) / (2.0 * d_in)
    s = w.copy()
    rho = np.eye(d_in, dtype=complex) / d_in
    beta = float(np.linalg.norm(j, 2)) + 1.0
    y = -beta * np.eye(big, dtype=complex)
    t = -(beta * d_out + 1.0)

    def slacks(yv, tv):
        zw = -j - yv
        zs = -yv
        zrho = _tr_out(yv, d_out, d_in) - tv * eye_in
        return zw, zs, zrho

    zw, zs, zrho = slacks(y, t)
    total_dim = 2 * big + d_in
    best_gap = np.inf
    best_value = 0.0
    stall = 0
    iterations = 0
    clips = 0

    try:
        for it in range(1, _MAX_ITER + 1):
            iterations = it
            gap = _ip(w, zw) + _ip(s, zs) + _ip(rho, zrho)
            primal = _ip(j, w)
            dual = -t
            value = 0.5 * (primal + dual)
            if not (np.isfinite(gap) and np.isfinite(value)):
                break
            if abs(gap) <= _GAP_TOL:
                return DiamondResult(value, abs(gap), it - 1, clips)
            if abs(gap) < best_gap * 0.9999:
                best_gap = abs(gap)
                best_value = value
                stall = 0
            else:
                stall += 1
                if stall >= 10:
                    break
            mu = gap / total_dim
            if mu <= 0:
                break

            # one eigendecomposition per cone matrix: the Nesterov-Todd scalings
            # T with T Z T = X, the slacks' inverses and every step length use it
            eigs = [np.linalg.eigh(_herm(x)) for x in (w, s, rho, zw, zs, zrho)]
            isqrts = [_isqrt(e) for e in eigs]
            roots = [_with_spectrum(e, np.sqrt(np.clip(e[0], 0.0, None))) for e in eigs[:3]]
            inners = [np.linalg.eigh(_herm(lx @ z @ lx)) for lx, z in zip(roots, (zw, zs, zrho))]
            tw, ts, trho = (
                _herm(lx @ _with_spectrum(e, 1.0 / np.sqrt(np.clip(e[0], _FLOOR, None))) @ lx)
                for lx, e in zip(roots, inners)
            )
            zw_inv, zs_inv, zrho_inv = (_with_spectrum(e, 1.0 / e[0]) for e in eigs[3:])
            clips += sum(int(e[0][0] < _FLOOR) for e in eigs + inners)

            trho2 = _herm(trho @ trho)

            newton_solve = _newton_solver(tw, ts, trho, units)

            def newton(rw, rs, rrho):
                dy, dt = newton_solve(rw + rs, rrho)
                dzw = -dy
                dzs = -dy
                dy_in = _tr_out(dy, d_out, d_in)
                dzrho = dy_in - dt * eye_in
                dw = _herm(rw + tw @ dy @ tw)
                ds = _herm(rs + ts @ dy @ ts)
                drho = _herm(rrho - trho @ dy_in @ trho + dt * trho2)
                return dw, ds, drho, dy, dt, dzw, dzs, dzrho

            def step_sizes(*dx):
                # dx: the steps of w, s, rho, zw, zs and zrho
                steps = [_max_step(r, d) for r, d in zip(isqrts, dx)]
                ap = min(*steps[:3], 1.0 / _STEP_FRACTION)
                ad = min(*steps[3:], 1.0 / _STEP_FRACTION)
                return min(1.0, _STEP_FRACTION * ap), min(1.0, _STEP_FRACTION * ad)

            # predictor
            aff = newton(-w, -s, -rho)
            ap, ad = step_sizes(aff[0], aff[1], aff[2], aff[5], aff[6], aff[7])
            mu_aff = (
                _ip(w + ap * aff[0], zw + ad * aff[5])
                + _ip(s + ap * aff[1], zs + ad * aff[6])
                + _ip(rho + ap * aff[2], zrho + ad * aff[7])
            ) / total_dim
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-10))

            # corrector with a second-order term
            def corr(x, dx_aff, z_inv, dz_aff):
                second = dx_aff @ dz_aff @ z_inv
                return _herm(sigma * mu * z_inv - x - 0.5 * (second + second.conj().T))

            dw, ds, drho, dy, dt, dzw, dzs, dzrho = newton(
                corr(w, aff[0], zw_inv, aff[5]),
                corr(s, aff[1], zs_inv, aff[6]),
                corr(rho, aff[2], zrho_inv, aff[7]),
            )
            if not all(np.all(np.isfinite(a)) for a in (dw, ds, drho, dy)) or not np.isfinite(dt):
                break
            ap, ad = step_sizes(dw, ds, drho, dzw, dzs, dzrho)

            w = _herm(w + ap * dw)
            s = _herm(s + ap * ds)
            rho = _herm(rho + ap * drho)
            y = _herm(y + ad * dy)
            t = t + ad * dt
            zw, zs, zrho = slacks(y, t)
    except np.linalg.LinAlgError as exc:
        raise SdpConvergenceError(
            f"diamond SDP broke down ({exc}) at duality gap {best_gap:.3e}", best_gap
        ) from exc

    gap = _ip(w, zw) + _ip(s, zs) + _ip(rho, zrho)
    value = 0.5 * (_ip(j, w) - t)
    if np.isfinite(gap) and np.isfinite(value) and abs(gap) < best_gap:
        best_gap = abs(gap)
        best_value = value
    if best_gap > _GAP_REQUIRED:
        raise SdpConvergenceError(
            f"diamond SDP stalled at duality gap {best_gap:.3e} (required {_GAP_REQUIRED:.1e})",
            best_gap,
        )
    return DiamondResult(best_value, best_gap, iterations, clips)
