"""Dense path-following interior-point solver for the diamond-norm SDP.

For a Hermitian difference-of-channels Choi matrix J (output factor first),
half the diamond norm is the optimum of

    maximize  <J, W>
    s.t.      W + S = I_out (x) rho,   Tr(rho) = 1,   W, S, rho >= 0,

whose dual is  min t  s.t.  Y >= J, Y >= 0, Tr_out(Y) <= t*I.  The solver
runs a feasible-start primal-dual Nesterov-Todd path-following iteration
directly over the complex Hermitian cones.  Eliminating the primal step
against the scaled complementarity equations leaves one symmetric positive
definite system per iteration in the dual variables (Y, t), assembled in an
orthonormal basis of Hermitian matrices.

Problem sizes here are small (Choi dimension D = 4^n with n <= 3), so all
linear algebra is dense.  An iteration decomposes each of the six cone
matrices once, for the scalings, the slacks' inverses and all twelve step
lengths; forms the D^2 x D^2 congruence matrices from the entries on and
above each image's diagonal; adds the partial trace's block as a gather;
and solves the Newton system twice.  With one BLAS thread on a 2-vCPU host
an n = 2 solve takes about 50 ms, an n = 3 solve 33 s and 0.7 GB, some 60%
of it in the two LU solves of order 4097 per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DiamondResult", "SdpConvergenceError", "solve_diamond_sdp"]

# entries per row block of a congruence matrix's images (4 MB of complex)
_TAT_BLOCK = 2**18


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


class _HermBasis:
    """Orthonormal real basis bookkeeping for D x D Hermitian matrices."""

    def __init__(self, dim: int):
        self.dim = dim
        iu = np.triu_indices(dim, 1)
        self.rows = iu[0]
        self.cols = iu[1]
        self.num_off = len(iu[0])
        self.size = dim * dim

    def vec(self, m: np.ndarray) -> np.ndarray:
        re = np.real(m[self.rows, self.cols])
        im = np.imag(m[self.rows, self.cols])
        return np.concatenate(
            [np.real(np.diagonal(m)), math.sqrt(2.0) * re, math.sqrt(2.0) * im]
        )

    def unvec(self, v: np.ndarray) -> np.ndarray:
        d = self.dim
        m = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(m, v[:d])
        off = (v[d : d + self.num_off] + 1j * v[d + self.num_off :]) / math.sqrt(2.0)
        m[self.rows, self.cols] = off
        m[self.cols, self.rows] = np.conj(off)
        return m

    def tat_matrix(self, t: np.ndarray) -> np.ndarray:
        """Matrix of the congruence map A -> T A T in this basis.

        Column c holds the coordinates of T B_c T, so only the entries on and
        above each image's diagonal are formed, each one product of two
        entries of T, in contiguous row blocks of at most ``_TAT_BLOCK``
        entries.
        """
        d, num_off = self.dim, self.num_off
        g = np.empty((self.size, self.size), dtype=float)
        # rows of T and of conj(T) at the image entries (i, j), i <= j
        ti = t[np.concatenate([np.arange(d), self.rows])]
        tj = np.conj(t)[np.concatenate([np.arange(d), self.cols])]

        def images(start: int, stop: int) -> np.ndarray:
            # entries start:stop of every image T B T, the B in basis order;
            # T e_kk T = t_k t_k^dag and the pairs (k, l) form p1 +- p2
            a, b = ti[start:stop], tj[start:stop]
            p1 = np.einsum("ea,ea->ea", a[:, self.rows], b[:, self.cols])
            p2 = np.einsum("ea,ea->ea", a[:, self.cols], b[:, self.rows])
            re, im = (p1 + p2) / math.sqrt(2.0), 1j * (p1 - p2) / math.sqrt(2.0)
            return np.concatenate([np.einsum("ek,ek->ek", a, b), re, im], axis=1)

        g[:d] = np.real(images(0, d))
        step = max(1, _TAT_BLOCK // self.size)
        for start in range(d, d + num_off, step):
            stop = min(start + step, d + num_off)
            img = images(start, stop)
            g[start:stop] = math.sqrt(2.0) * np.real(img)
            g[start + num_off : stop + num_off] = math.sqrt(2.0) * np.imag(img)
        return g


def _tr_out_gather(basis: _HermBasis, d_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``idx`` and signs ``s`` of the partial trace over the output.

    Tr_out(B_c) = s[c] * B'_idx[c] in the Herm(d_in) basis, so the matrix
    P of Tr_out has P.T @ G @ P = (s[:, None] * G[idx][:, idx]) * s.
    An off-diagonal pair (i, j) survives only if i and j lie in one output
    block, where i < j makes its input pair (a, b) ordered too: every sign
    is 1 or 0.
    """
    small = _HermBasis(d_in)
    pos = np.zeros((d_in, d_in), dtype=np.intp)
    pos[small.rows, small.cols] = np.arange(small.num_off)
    alpha, a = np.divmod(basis.rows, d_in)
    beta, b = np.divmod(basis.cols, d_in)
    off = pos[a, b]
    idx = np.concatenate([np.arange(basis.dim) % d_in, d_in + off, d_in + small.num_off + off])
    same = (alpha == beta).astype(float)
    return idx, np.concatenate([np.ones(basis.dim), same, same])


def _tr_out(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    return np.einsum("aiaj->ij", m.reshape(d_out, d_in, d_out, d_in))


@np.errstate(all="ignore")  # non-finite values are checked, not warned about
def solve_diamond_sdp(
    delta_choi: np.ndarray,
    d_in: int,
    gap_tol: float = 1e-9,
    gap_required: float = 1e-8,
    max_iter: int = 200,
) -> DiamondResult:
    """Half diamond norm of the Hermitian-preserving map with Choi ``delta_choi``.

    ``delta_choi`` is (d_out*d_in) x (d_out*d_in) with the output factor
    first.  Returns the midpoint of the final primal/dual objectives along
    with the duality gap achieved; raises :class:`SdpConvergenceError` if
    the gap cannot be pushed below ``gap_required``, or if an iteration's
    linear algebra breaks down (a singular Newton system, an eigensolver
    that does not converge, a step that overflows once scaled), whatever
    gap was reached before.
    """
    j = _herm(np.asarray(delta_choi, dtype=complex))
    big = j.shape[0]
    if j.shape != (big, big) or big % d_in != 0:
        raise ValueError("Choi matrix shape inconsistent with d_in")
    d_out = big // d_in

    basis = _HermBasis(big)
    basis_rho = _HermBasis(d_in)
    pt_idx, pt_sign = _tr_out_gather(basis, d_in)
    eye_out = np.eye(d_out)
    m = np.empty((basis.size + 1, basis.size + 1), dtype=float)

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
        zrho = _tr_out(yv, d_out, d_in) - tv * np.eye(d_in)
        return zw, zs, zrho

    zw, zs, zrho = slacks(y, t)
    total_dim = 2 * big + d_in
    best_gap = np.inf
    best_value = 0.0
    stall = 0
    iterations = 0
    clips = 0

    try:
        for it in range(1, max_iter + 1):
            iterations = it
            gap = _ip(w, zw) + _ip(s, zs) + _ip(rho, zrho)
            primal = _ip(j, w)
            dual = -t
            value = 0.5 * (primal + dual)
            if not (np.isfinite(gap) and np.isfinite(value)):
                break
            if abs(gap) <= gap_tol:
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

            gw = basis.tat_matrix(tw)
            gs = basis.tat_matrix(ts)
            grho = basis_rho.tat_matrix(trho)
            trho2 = _herm(trho @ trho)
            c_mat = np.kron(eye_out, trho2)
            c_vec = basis.vec(c_mat)

            top = m[: basis.size, : basis.size]
            np.add(gw, gs, out=top)
            top += (pt_sign[:, None] * grho[pt_idx][:, pt_idx]) * pt_sign
            m[: basis.size, -1] = -c_vec
            m[-1, : basis.size] = -c_vec
            m[-1, -1] = float(np.real(np.trace(trho2)))

            def newton(rw, rs, rrho):
                b_mat = np.kron(eye_out, rrho) - rw - rs
                rhs = np.concatenate([basis.vec(b_mat), [-float(np.real(np.trace(rrho)))]])
                sol = np.linalg.solve(m, rhs)
                dy = basis.unvec(sol[:-1])
                dt = float(sol[-1])
                dzw = -dy
                dzs = -dy
                dy_in = _tr_out(dy, d_out, d_in)
                dzrho = dy_in - dt * np.eye(d_in)
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
    if best_gap > gap_required:
        raise SdpConvergenceError(
            f"diamond SDP stalled at duality gap {best_gap:.3e} (required {gap_required:.1e})",
            best_gap,
        )
    return DiamondResult(best_value, best_gap, iterations, clips)
