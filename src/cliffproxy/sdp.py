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
linear algebra is dense on D x D matrices.  An iteration decomposes the
six cone matrices once, for the scalings, the slacks' inverses and all
twelve step lengths, and factors the Newton system once for the predictor
and the corrector: two more eigendecompositions diagonalize the congruence
part on the pencil of the two D x D scalings, and the partial trace's part
enters through a d_in^2 x d_in^2 capacitance matrix (see
``_newton_solver``).  That is O(D^3) work and memory O(D^2 d_in^2) per
iteration, with no D^2 x D^2 matrix.

:func:`solve_diamond_sdps` solves a stack of problems of one size in
lockstep groups: every array carries the group's problems on a leading
axis, so an iteration decomposes the group's four D x D cone matrices
(W, S, Z_W, Z_S) in one stacked call, its two d_in x d_in ones (rho,
Z_rho) in another, and takes each size's step lengths in one more.  Each
problem keeps its own gap, stall count, best iterate and stopping rules,
and leaves the group when it stops.  Every stacked call runs the
one-matrix LAPACK or BLAS routine on each problem's slice, so a problem's
result is bit for bit the same in any group.  A group holds at most
``_GROUP_AMPLITUDES`` amplitudes of its problems' (d_in^2, D, D) Newton
stacks: 128 problems at n = 2, two at n = 3.  With one BLAS thread on a
2-vCPU host one n = 2 solve takes about 11 ms, two in one call 19 ms and
twenty 147 ms, against 235 ms one by one; an n = 3 solve takes about
0.3 s with a 19 MiB traced peak, and a group of two peaks at 31 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiamondResult", "SdpConvergenceError", "solve_diamond_sdp", "solve_diamond_sdps"]


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
# amplitudes of the (d_in^2, D, D) Newton stacks a lockstep group holds,
# d_in^2 D^2 per problem (8 MiB of complex entries; at least one problem)
_GROUP_AMPLITUDES = 2**19


def _ip(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


def _ips(a: np.ndarray, b: np.ndarray) -> list[float]:
    """``_ip`` of each pair of slices along the leading axis."""
    return [_ip(x, y) for x, y in zip(a, b)]


def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _dag(a))


def _with_spectrum(eig: tuple[np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
    """The matrices with eigenvectors ``eig[1]`` and eigenvalues ``f``."""
    return _herm((eig[1] * f[..., None, :]) @ _dag(eig[1]))


def _isqrt(eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x^(-1/2) of each decomposed x, its spectrum clipped at the floor."""
    return (eig[1] / np.sqrt(np.clip(eig[0], _FLOOR, None))[..., None, :]) @ _dag(eig[1])


def _max_steps(isqrt: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Largest alpha with each x + alpha*dx still positive definite, given x^(-1/2)."""
    scaled = _herm(isqrt @ dx @ isqrt)
    if not np.isfinite(scaled).all():
        # a clipped spectrum's 1e150 inverse roots can overflow the product
        raise np.linalg.LinAlgError("scaled step is not finite")
    lam_min = np.linalg.eigvalsh(scaled)[..., 0]
    return np.where(lam_min >= 0.0, np.inf, -1.0 / lam_min)


def _tr_out(m: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    return np.einsum("...aiaj->...ij", m.reshape(m.shape[:-2] + (d_out, d_in, d_out, d_in)))


def _units(d_out: int, d_in: int) -> np.ndarray:
    """The (d_in^2, D, D) stack of I_out (x) E_ab, E_ab the d_in x d_in
    matrix units in row-major order: a constant of the solve."""
    return np.kron(np.eye(d_out), np.eye(d_in * d_in).reshape(-1, d_in, d_in))


def _newton_solver(tw: np.ndarray, ts: np.ndarray, trho: np.ndarray, units: np.ndarray):
    """Factor the Newton systems of a stack's dual steps (dY, dt) once per iteration.

    ``tw``, ``ts`` and ``trho`` carry the problems on their leading axis.
    Each system is  G(dY) - dt*C = B,  -<C, dY> + kappa*dt = r0,  where
    G(Y) = L(Y) + I_out (x) (T_rho Tr_out(Y) T_rho),  L(Y) = T_w Y T_w + T_s Y T_s,
    C = I_out (x) T_rho^2,  kappa = tr T_rho^2,  B = I_out (x) r_rho - r_ws
    and  r0 = -tr r_rho.  Returns ``solve(r_ws, r_rho) -> (dY, dt)`` on stacks.

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
    count, big, d_in = len(tw), tw.shape[-1], trho.shape[-1]
    d_out, size = big // d_in, d_in * d_in
    m_isqrt = _isqrt(np.linalg.eigh(_herm(tw + ts)))
    alpha, v = np.linalg.eigh(_herm(m_isqrt @ tw @ m_isqrt))
    f = m_isqrt @ v
    fh = _dag(f)
    beta = np.real(np.diagonal(fh @ ts @ f, axis1=-2, axis2=-1))
    den = alpha[:, :, None] * alpha[:, None, :] + beta[:, :, None] * beta[:, None, :]
    # row ab of xs is F^dag (I_out (x) E_ab) F, so K_L's column ab is Tr_out
    # of image ab
    xs = fh[:, None] @ units @ f[:, None]
    images = (f[:, None] @ (xs / den[:, None]) @ fh[:, None]).reshape(
        count, size, d_out, d_in, d_out, d_in
    )
    xs = xs.reshape(count, size, big * big)
    k_l = np.einsum("bkaiaj->bijk", images).reshape(count, size, size)
    # g^dag Z g on vec(Z) is gh @ vec(Z), and g Z g^dag is gh^dag @ vec(Z)
    lam, q = np.linalg.eigh(trho)
    g = q * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
    gt = g.swapaxes(-1, -2)
    gh = (_dag(g)[:, :, None, :, None] * gt[:, None, :, None, :]).reshape(count, size, size)
    k = _herm(np.eye(size) + gh @ k_l @ _dag(gh))
    g_eye = (_dag(g) @ g).reshape(count, size, 1)
    k_eye = np.linalg.solve(k, g_eye)
    tr_k_eye = _ips(g_eye, k_eye)
    xs_conj, gh_dag = xs.conj(), _dag(gh)

    def solve(r_ws: np.ndarray, r_rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # B in the pencil's coordinates, F^dag B F
        b = (r_rho.reshape(count, 1, size) @ xs).reshape(count, big, big) - fh @ r_ws @ f
        k_u = np.linalg.solve(k, gh @ (xs_conj @ (b / den).reshape(count, -1, 1)))
        dt = np.array([
            (-float(np.real(np.trace(r))) + _ip(ge, ku)) / tr
            for r, ge, ku, tr in zip(r_rho, g_eye, k_u, tr_k_eye)
        ])
        z = (gh_dag @ (k_u - dt[:, None, None] * k_eye)).reshape(count, 1, size) @ xs
        return _herm(f @ ((b - z.reshape(count, big, big)) / den) @ fh), dt

    return solve


def _slacks(j, y, t, d_in):
    """The dual slacks Z_W = -J - Y, Z_S = -Y and Z_rho = Tr_out(Y) - t I."""
    zrho = _tr_out(y, y.shape[-1] // d_in, d_in) - t[:, None, None] * np.eye(d_in)
    return -j - y, -y, zrho


def _step(w, s, rho, y, t, zw, zs, zrho, mu, units):
    """One predictor-corrector step of each problem in the stack, given its
    slacks, its ``mu`` (a list) and :func:`_units` of the solve.

    Returns a mask of the problems whose corrector came out finite, the
    eigendecompositions each clipped at the floor, and the stepped
    (W, S, rho, Y, t) of the masked problems.  Raises LinAlgError if the
    linear algebra of any problem breaks down.
    """
    d_in = rho.shape[-1]
    d_out = w.shape[-1] // d_in
    total_dim = 2 * w.shape[-1] + d_in
    # one eigendecomposition per cone matrix, stacked by size: the
    # Nesterov-Todd scalings T with T Z T = X, the slacks' inverses and every
    # step length use it; cones (W, S, Z_W, Z_S) and (rho, Z_rho)
    cones = np.stack([w, s, zw, zs], axis=1), np.stack([rho, zrho], axis=1)
    eigs = [np.linalg.eigh(_herm(c)) for c in cones]
    isqrts = [_isqrt(e) for e in eigs]
    # each size's cones are its X half, then its Z half: (W, Z_W), (S, Z_S)
    # and (rho, Z_rho) pair up
    half = (2, 1)
    roots = [
        _with_spectrum((lam[:, :h], vec[:, :h]), np.sqrt(np.clip(lam[:, :h], 0.0, None)))
        for (lam, vec), h in zip(eigs, half)
    ]
    inners = [np.linalg.eigh(_herm(lx @ c[:, h:] @ lx)) for lx, c, h in zip(roots, cones, half)]
    scalings = [
        _herm(lx @ _with_spectrum(e, 1.0 / np.sqrt(np.clip(e[0], _FLOOR, None))) @ lx)
        for lx, e in zip(roots, inners)
    ]
    tws, trho = scalings[0], scalings[1][:, 0]
    z_invs = [
        _with_spectrum((lam[:, h:], vec[:, h:]), 1.0 / lam[:, h:]) for (lam, vec), h in zip(eigs, half)
    ]
    clips = sum((e[0][..., 0] < _FLOOR).sum(axis=1) for e in eigs + inners)

    trho2 = _herm(trho @ trho)
    eye_in = np.eye(d_in)
    newton_solve = _newton_solver(tws[:, 0], tws[:, 1], trho, units)

    def newton(r_ws, r_rho):
        # from the residuals (r_W, r_S) and (r_rho,), the cone steps of each
        # size, (dW, dS, dZ_W, dZ_S) and (drho, dZ_rho), and (dY, dt)
        dy, dt = newton_solve(r_ws[:, 0] + r_ws[:, 1], r_rho[:, 0])
        dy_in = _tr_out(dy, d_out, d_in)
        dt3 = dt[:, None, None]
        d_ws = _herm(r_ws + tws @ dy[:, None] @ tws)
        drho = _herm(r_rho[:, 0] - trho @ dy_in @ trho + dt3 * trho2)
        dz = -dy[:, None]
        d_big = np.concatenate([d_ws, dz, dz], axis=1)
        return d_big, np.stack([drho, dy_in - dt3 * eye_in], axis=1), dy, dt

    def step_sizes(isqrts, d_big, d_small):
        big, small = (_max_steps(r, d) for r, d in zip(isqrts, (d_big, d_small)))
        cap = 1.0 / _STEP_FRACTION
        ap = np.minimum(np.minimum(big[:, :2].min(axis=1), small[:, 0]), cap)
        ad = np.minimum(np.minimum(big[:, 2:].min(axis=1), small[:, 1]), cap)
        return np.minimum(1.0, _STEP_FRACTION * ap), np.minimum(1.0, _STEP_FRACTION * ad)

    def moved(ap, ad, d_big, d_small):
        # each cone matrix stepped by its primal or dual length
        return (
            cones[0] + np.stack([ap, ap, ad, ad], axis=1)[:, :, None, None] * d_big,
            cones[1] + np.stack([ap, ad], axis=1)[:, :, None, None] * d_small,
        )

    # predictor
    aff_big, aff_small, _, _ = newton(-cones[0][:, :2], -cones[1][:, :1])
    big, small = moved(*step_sizes(isqrts, aff_big, aff_small), aff_big, aff_small)
    pairs = (big[:, 0], big[:, 2]), (big[:, 1], big[:, 3]), (small[:, 0], small[:, 1])
    sigma_mu = []
    for (mw, ms, mr), m in zip(zip(*(_ips(x, z) for x, z in pairs)), mu):
        mu_aff = (mw + ms + mr) / total_dim
        sigma_mu.append(min(1.0, max((max(mu_aff, 0.0) / m) ** 3, 1e-10)) * m)
    sigma_mu = np.array(sigma_mu)[:, None, None, None]

    # corrector with a second-order term
    def corr(x, dx_aff, z_inv, dz_aff, target):
        second = dx_aff @ dz_aff @ z_inv
        return _herm(target * z_inv - x - 0.5 * (second + _dag(second)))

    big_r = corr(cones[0][:, :2], aff_big[:, :2], z_invs[0], aff_big[:, 2:], sigma_mu)
    small_r = corr(cones[1][:, :1], aff_small[:, :1], z_invs[1], aff_small[:, 1:], sigma_mu)
    d_big, d_small, dy, dt = newton(big_r, small_r)
    ok = (
        np.isfinite(d_big[:, :3]).all(axis=(1, 2, 3))
        & np.isfinite(d_small[:, 0]).all(axis=(1, 2))
        & np.isfinite(dt)
    )
    if not ok.all():
        w, s, rho, y, t, d_big, d_small, dy, dt = (
            a[ok] for a in (w, s, rho, y, t, d_big, d_small, dy, dt)
        )
        isqrts = [a[ok] for a in isqrts]
    ap, ad = step_sizes(isqrts, d_big, d_small)
    ap3, ad3 = ap[:, None, None], ad[:, None, None]
    return ok, clips, (
        _herm(w + ap3 * d_big[:, 0]),
        _herm(s + ap3 * d_big[:, 1]),
        _herm(rho + ap3 * d_small[:, 0]),
        _herm(y + ad3 * dy),
        t + ad * dt,
    )


def _stopped(gap, value, best_gap, best_value, iterations, clips):
    """The outcome of a problem that stopped short of the gap tolerance at
    an iterate with this gap and value: its best iterate, if good enough."""
    if np.isfinite(gap) and np.isfinite(value) and abs(gap) < best_gap:
        best_gap, best_value = abs(gap), value
    if best_gap > _GAP_REQUIRED:
        return SdpConvergenceError(
            f"diamond SDP stalled at duality gap {best_gap:.3e} (required {_GAP_REQUIRED:.1e})",
            best_gap,
        )
    return DiamondResult(best_value, best_gap, iterations, clips)


def _breakdown(exc: np.linalg.LinAlgError, best_gap: float) -> SdpConvergenceError:
    err = SdpConvergenceError(
        f"diamond SDP broke down ({exc}) at duality gap {best_gap:.3e}", best_gap
    )
    err.__cause__ = exc
    return err


def _solve_group(js: np.ndarray, d_in: int) -> list:
    """The outcome of each Hermitian problem of the stack ``js``, solved in lockstep."""
    count, big = js.shape[:2]
    d_out = big // d_in
    units = _units(d_out, d_in)
    total_dim = 2 * big + d_in

    # feasible interior start
    w = np.repeat(np.eye(big, dtype=complex)[None] / (2.0 * d_in), count, axis=0)
    s = w.copy()
    rho = np.repeat(np.eye(d_in, dtype=complex)[None] / d_in, count, axis=0)
    beta = np.linalg.norm(js, 2, axis=(1, 2)) + 1.0
    y = -beta[:, None, None] * np.eye(big, dtype=complex)
    t = -(beta * d_out + 1.0)

    # per problem, by position in the group; `live` lists the positions of
    # the problems still stepping, in the order of the stacked arrays
    best_gap, best_value = [np.inf] * count, [0.0] * count
    stall, clips = [0] * count, [0] * count
    outcomes = [None] * count
    live = list(range(count))
    j = js
    for it in range(1, _MAX_ITER + 2):
        zw, zs, zrho = _slacks(j, y, t, d_in)
        gaps = [a + b + c for a, b, c in zip(_ips(w, zw), _ips(s, zs), _ips(rho, zrho))]
        values = [0.5 * (primal + -tv) for primal, tv in zip(_ips(j, w), t.tolist())]
        keep, mu = [], []
        for k, p in enumerate(live):
            gap, value = gaps[k], values[k]
            if it > _MAX_ITER or not (np.isfinite(gap) and np.isfinite(value)):
                iterations = min(it, _MAX_ITER)
                outcomes[p] = _stopped(gap, value, best_gap[p], best_value[p], iterations, clips[p])
                continue
            if abs(gap) <= _GAP_TOL:
                outcomes[p] = DiamondResult(value, abs(gap), it - 1, clips[p])
                continue
            if abs(gap) < best_gap[p] * 0.9999:
                best_gap[p], best_value[p], stall[p] = abs(gap), value, 0
            else:
                stall[p] += 1
            if stall[p] >= 10 or gap / total_dim <= 0:
                outcomes[p] = _stopped(gap, value, best_gap[p], best_value[p], it, clips[p])
                continue
            keep.append(k)
            mu.append(gap / total_dim)
        if not keep:
            break
        state = j, w, s, rho, y, t, zw, zs, zrho
        if len(keep) < len(live):
            live = [live[k] for k in keep]
            gaps, values = [gaps[k] for k in keep], [values[k] for k in keep]
            state = tuple(a[keep] for a in state)
        j = state[0]
        try:
            steps = [_step(*state[1:], mu, units)]
        except np.linalg.LinAlgError:
            # step each problem alone to find the ones that broke down
            steps = []
            for k, p in enumerate(live):
                try:
                    steps.append(_step(*(a[k : k + 1] for a in state[1:]), mu[k : k + 1], units))
                except np.linalg.LinAlgError as exc:
                    outcomes[p] = _breakdown(exc, best_gap[p])
                    steps.append((np.zeros(1, bool), np.zeros(1, int), None))
        ok = np.concatenate([step[0] for step in steps])
        for k, (p, added) in enumerate(zip(live, np.concatenate([step[1] for step in steps]))):
            clips[p] += int(added)
            if not ok[k] and outcomes[p] is None:
                # a corrector that is not finite stops the problem where it stands
                outcomes[p] = _stopped(
                    gaps[k], values[k], best_gap[p], best_value[p], it, clips[p]
                )
        live = [p for p, flag in zip(live, ok) if flag]
        if not live:
            break
        j = j[ok]
        stepped = [step[2] for step in steps if step[2] is not None]
        w, s, rho, y, t = (np.concatenate(parts) for parts in zip(*stepped))
    return outcomes


@np.errstate(all="ignore")  # non-finite values are checked, not warned about
def solve_diamond_sdps(delta_chois, d_in: int) -> list:
    """Half diamond norms of a stack of Choi differences of one size.

    ``delta_chois`` is (B, D, D), each problem as for
    :func:`solve_diamond_sdp` (else ValueError for the whole stack if the
    shape is wrong).  Returns one entry per problem: its
    :class:`DiamondResult`, or the ValueError or
    :class:`SdpConvergenceError` that solving it alone raises, which the
    caller raises or reports.  The problems are solved in lockstep groups of
    at most ``_GROUP_AMPLITUDES`` Newton-stack amplitudes, and each entry
    is bit for bit what the problem gives alone.
    """
    js = np.asarray(delta_chois, dtype=complex)
    if js.ndim != 3 or js.shape[1] != js.shape[2] or js.shape[1] % d_in != 0:
        raise ValueError("Choi matrix shape inconsistent with d_in")
    big = js.shape[1]
    outcomes: list = [None] * len(js)
    solvable = []
    for k, j in enumerate(js):
        if np.max(np.abs(j - j.conj().T)) > 1e-10:
            outcomes[k] = ValueError("Choi matrix must be Hermitian")
        else:
            solvable.append(k)
    per_group = max(1, _GROUP_AMPLITUDES // (d_in * d_in * big * big))
    for start in range(0, len(solvable), per_group):
        group = solvable[start : start + per_group]
        for k, outcome in zip(group, _solve_group(_herm(js[group]), d_in)):
            outcomes[k] = outcome
    return outcomes


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
    gaps of at most 1e-9 have differed by up to 3e-6.  This is
    :func:`solve_diamond_sdps` of one problem.
    """
    (outcome,) = solve_diamond_sdps([delta_choi], d_in)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
