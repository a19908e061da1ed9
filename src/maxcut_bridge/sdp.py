"""Solvers for small dense semidefinite programs.

Solves min/max <C, X> subject to a fixed diagonal X_ii = diag_i and trace
constraints <A_i, X> = b_i, with X in the positive-semidefinite cone,
optionally intersected with the entrywise nonnegative cone.

Every PSD-cone problem with a positive fixed diagonal (MAX-CUT, the moment
relaxations of the penalty bound and the first Lasserre relaxation, with or
without trace rows) goes to a primal-dual interior-point method.  Its
iterates stay strictly dual feasible, so every solve, at any iteration
budget, returns multipliers y that certify a bound on the optimum
(``certified_diag_bound``).  Its X meets trace rows only in the limit, so a
solve with rows returns X projected onto them, as ADMM returns its affine
iterate, with ``primal_residual`` its distance to the PSD cone.

ADMM now serves only the doubly-nonnegative cone and problems without a
positive fixed diagonal.  The fixed diagonal is stacked as rows E_ii ahead of
the other constraints.  The splitting keeps one variable exactly
affine-feasible and one copy per cone exactly cone-feasible, and one loop
serves both cones: it runs over a list of copies, a PSD copy and, for the
doubly-nonnegative cone, an orthant copy, each with its own scaled dual.
Every iteration costs one eigendecomposition (plus one clip for the
orthant).  At convergence the copies agree to tolerance and the
affine-feasible iterate is returned.

Both methods drop dependent constraint rows up front with one routine
(``_independent_rows``), and both are deterministic: the same problem and
config always produce the same iteration path.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add

import numpy as np


class Sense(Enum):
    MIN = "min"
    MAX = "max"


class Cone(Enum):
    PSD = "psd"
    PSD_NONNEG = "psd_nonneg"


class SolveStatus(Enum):
    CONVERGED = "Converged"
    ITERATION_LIMIT = "IterationLimit"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class SolverConfig:
    eps_abs: float = 1e-7
    eps_rel: float = 1e-6
    max_iter: int = 100000
    admm_rho: float = 1.0

    def __post_init__(self):
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise ValueError("tolerances must be positive")
        if not (self.max_iter > 0 and self.admm_rho > 0):
            raise ValueError("max_iter and admm_rho must be positive")


@dataclass(frozen=True)
class SdpProblem:
    """min/max <C, X> s.t. X_ii = diag_i, <A_i, X> = b_i, X in cone.

    ``diag`` is None (no diagonal fixed) or a finite vector of length d.
    """

    C: np.ndarray
    constraints: tuple = ()
    sense: Sense = Sense.MIN
    cone: Cone = Cone.PSD
    diag: np.ndarray | None = None

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("C must be square")
        if not np.allclose(C, C.T, rtol=0.0, atol=1e-12):
            raise ValueError("C must be symmetric")
        C = (C + C.T) / 2.0
        d = C.shape[0]
        pairs = []
        for k, (A, b) in enumerate(self.constraints):
            A = np.asarray(A, dtype=float)
            if A.shape != (d, d):
                raise ValueError(f"constraint {k}: matrix must be {d}x{d}")
            if not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
                raise ValueError(f"constraint {k}: matrix must be symmetric")
            pairs.append(((A + A.T) / 2.0, float(b)))
        if self.diag is not None:
            diag = np.asarray(self.diag, dtype=float)
            if diag.shape != (d,):
                raise ValueError(f"diag must be a vector of length {d}")
            if not np.all(np.isfinite(diag)):
                raise ValueError("diag must be finite")
            object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "constraints", tuple(pairs))

    @property
    def dim(self) -> int:
        return self.C.shape[0]


@dataclass
class SdpSolution:
    X: np.ndarray
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: SolveStatus
    message: str = ""
    sigma: float = field(default=0.0, repr=False)
    # multipliers in the problem's sense (interior-point solves only), one per
    # row: the diagonal first, then ``constraints`` in order, 0 for a dropped
    # dependent row.  C - A*(y) is PSD for Min, A*(y) - C for Max, where
    # A*(y) = Diag(y[:d]) + sum_k y[d + k] A_k
    y: np.ndarray | None = field(default=None, repr=False)


def project_psd(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive-semidefinite matrix: clip negative eigenvalues."""
    S = (S + S.T) / 2.0
    w, V = np.linalg.eigh(S)
    if w[0] >= 0.0:
        return S
    w = np.maximum(w, 0.0)
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def _clip_nonneg(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest entrywise nonnegative matrix."""
    return np.maximum(S, 0.0)


def _fro(A: np.ndarray) -> float:
    """Frobenius norm: the dot product np.linalg.norm runs, without its call overhead."""
    v = A.ravel("K")
    return math.sqrt(v.dot(v))


def project_psd_nonneg(S: np.ndarray, tol: float = 1e-9, max_inner: int = 50) -> np.ndarray:
    """Dykstra alternation between the PSD cone and the nonnegative orthant.

    Alternates the two exact projections with Dykstra correction terms until
    successive iterates agree within ``tol`` (Frobenius), so the result lies in
    the intersection up to that tolerance.  ``solve_sdp`` does not call it: its
    doubly-nonnegative split keeps a separate copy per cone instead.
    """
    X = (S + S.T) / 2.0
    P = np.zeros_like(X)
    Q = np.zeros_like(X)
    Y = X
    for _ in range(max_inner):
        Y = project_psd(X + P)
        P = X + P - Y
        X_new = np.maximum(Y + Q, 0.0)
        Q = Y + Q - X_new
        gap = np.linalg.norm(Y - X_new)
        X = X_new
        if gap <= tol:
            break
    return (X + X.T) / 2.0


def certified_diag_bound(p: SdpProblem, y: np.ndarray) -> float:
    """Bound on the optimum of a fixed-diagonal SDP, certified by any multipliers y.

    ``y`` holds one multiplier per row in the problem's sense, the diagonal
    first and then ``p.constraints`` in order (an interior-point solve's
    ``SdpSolution.y``).  Every feasible X has trace T = sum(diag), so for Min

        <C, X> = b'y + <C - A*(y), X> >= b'y + T * min(0, lambda_min(C - A*(y))),

    the bounded-trace safe bound of Jansson, Chaykin & Keil (SIAM J. Numer.
    Anal. 46, 2007); Max mirrors it with A*(y) - C.  The result is a true
    bound for any y, however rough the solve; it is additionally clamped
    against the spectral bound T * lambda_extreme(C), which is valid on its
    own.
    """
    d = p.dim
    y = np.asarray(y, dtype=float)
    T = p.diag.sum()
    rhs = np.concatenate([p.diag, [b for _, b in p.constraints]])
    mats = np.array([A for A, _ in p.constraints]).reshape(-1, d, d)
    A_y = np.diag(y[:d]) + np.tensordot(y[d:], mats, axes=1)
    value = (rhs * y).sum()
    spectrum = np.linalg.eigvalsh(p.C)
    if p.sense == Sense.MAX:
        low = float(np.linalg.eigvalsh(A_y - p.C)[0])
        return min(float(value - T * min(0.0, low)), T * float(spectrum[-1]))
    low = float(np.linalg.eigvalsh(p.C - A_y)[0])
    return max(float(value + T * min(0.0, low)), T * float(spectrum[0]))


class _InconsistentSystem(Exception):
    pass


def _independent_rows(p: SdpProblem):
    """The trace rows of ``p`` that do not depend on the rows ahead of them.

    Each row <A, X> = b is divided by ||A||_F and reduced by the fixed
    diagonal's rows E_ii, when there is one.  A QR factorization of the
    remainders then gives, on its diagonal, the norm of each row less its
    projection onto the rows before it.  The first row where that norm is at
    most 1e-6 (a zero matrix included) is a combination of the rows before
    it; it is dropped if its right-hand side is the same combination of
    theirs, and otherwise no X satisfies the rows and
    ``_InconsistentSystem`` is raised.  The factorization is repeated without
    it until no such row is left.

    Returns the kept rows as a (k, d*d) array, their right-hand sides, their
    indices in ``p.constraints`` and their norms.
    """
    d = p.dim
    k = len(p.constraints)
    norms = np.array([np.linalg.norm(A) for A, _ in p.constraints])
    scale = np.where(norms > 0.0, norms, 1.0)
    rows = np.array([A.reshape(-1) for A, _ in p.constraints]).reshape(k, d * d)
    rows = rows / scale[:, None]
    rhs = np.array([b for _, b in p.constraints], dtype=float) / scale
    fixed = np.zeros(0) if p.diag is None else p.diag
    slack = 1e-9 * (1.0 + np.linalg.norm(np.concatenate([fixed, rhs])))
    V, t = rows.copy(), rhs.copy()
    if p.diag is not None:  # the diagonal rows are orthonormal
        t -= V[:, :: d + 1] @ p.diag
        V[:, :: d + 1] = 0.0
    keep = np.arange(k)
    while keep.size:
        R = np.linalg.qr(V[keep].T, mode="r")
        remainder = np.zeros(keep.size)
        remainder[: min(R.shape)] = np.abs(np.diag(R))
        small = np.flatnonzero(remainder <= 1e-6)
        if not small.size:
            break
        i = small[0]
        c = np.linalg.solve(R[:i, :i], R[:i, i])  # row i in terms of the rows before it
        if abs(t[keep[i]] - c @ t[keep[:i]]) > slack:
            raise _InconsistentSystem(
                "constraint rows are linearly dependent with conflicting right-hand sides"
            )
        keep = np.delete(keep, i)
    return rows[keep], rhs[keep], keep, norms[keep]


class _AffineProjector:
    """Projection onto {X symmetric : X_ii = diag_i, <A_i, X> = b_i}.

    The diagonal rows come first, as E_ii, ahead of the independent
    normalized constraint rows (``_independent_rows``), and the projection
    uses a cached eigendecomposition of the row Gram matrix.
    """

    def __init__(self, p: SdpProblem, independent: tuple | None = None):
        d = p.dim
        self.d = d
        # the rows and right-hand sides of _independent_rows, when known
        flat, rhs = independent or _independent_rows(p)[:2]
        if p.diag is not None:
            E = np.zeros((d, d * d))
            E[np.arange(d), np.arange(d) * (d + 1)] = 1.0
            flat = np.concatenate([E, flat])
            rhs = np.concatenate([p.diag, rhs])
        self.rhs = rhs
        self.m = len(rhs)
        if self.m > 0:
            w, V = np.linalg.eigh(flat @ flat.T)
            keep = w > 1e-12 * max(w[-1], 1.0)  # a pseudo-inverse, for near-dependent rows
            self._flat = flat
            self._V = V[:, keep]
            self._w_inv = 1.0 / w[keep]

    def __call__(self, S: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return S
        r = self._flat @ S.reshape(-1) - self.rhs
        lam = self._V @ (self._w_inv * (self._V.T @ r))
        out = S - (lam @ self._flat).reshape(self.d, self.d)
        return (out + out.T) / 2.0


_CHECK_EVERY = 100        # residual-balancing cadence for the penalty parameter
_STABLE_ITERS = 100       # consecutive sub-threshold iterations required to converge
_STALL_SAMPLE = 200       # sampling cadence of the stall (infeasibility) detector
_STALL_WINDOW = 10        # samples that must agree before declaring a stall


def _max_step(L_inv: np.ndarray, dM: np.ndarray) -> float:
    """0.95 of the largest step keeping M + a dM positive definite, capped at 1.

    ``L_inv`` is the inverse Cholesky factor of M, so the step is limited by
    the most negative eigenvalue of L_inv dM L_inv'.
    """
    low = float(np.linalg.eigvalsh(L_inv @ dM @ L_inv.T)[0])
    return 1.0 if low >= -0.95 else -0.95 / low


def _solve_diag_ipm(p: SdpProblem, cfg: SolverConfig) -> SdpSolution:
    """Primal-dual interior-point method for a fixed diagonal plus trace rows.

    Solves min <C,X> s.t. diag(X) = a, <A_k, X> = b_k, X PSD, over the
    independent normalized rows of ``_independent_rows``.  The dual is
    max a'y + b'w s.t. Z = C - Diag(y) - sum_k w_k A_k PSD; below, y stacks
    both kinds of multiplier and A*(y) is that sum.  Each step is the
    infeasible-start HKM search direction of Helmberg, Rendl, Vanderbei &
    Wolkowicz (SIAM J. Optim. 6, 1996): with mu = 0.1 * <X, Z> / d, solve
    M dy = rhs - mu A(Z^-1), where the Schur matrix M_ij = tr(A_i X A_j Z^-1)
    has the diagonal block X o Z^-1; then dX = sym(mu Z^-1 - X + X A*(dy) Z^-1)
    and dZ = -A*(dy).  Each side moves 0.95 of the way to the boundary of the
    PSD cone, at most a full step, so the row residual shrinks by the primal
    step.  X starts at Diag(a), the diagonal multipliers at a diagonally
    dominant point and the row multipliers at 0: Z stays strictly dual
    feasible throughout, and X meets the diagonal, but the other rows only
    in the limit.  Without rows this is the feasible-start method it
    extends, operation for operation.  A dual objective above
    sum_ij |C_ij| sqrt(a_i a_j), which bounds <C, X> for every feasible X,
    proves the rows infeasible and ends the solve as Diverged.  Otherwise,
    with rows, the returned X is the iterate projected onto the affine set,
    and ``primal_residual`` its distance to the PSD cone.  Requires a > 0.
    """
    d = p.dim
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    C = sign * p.C
    a = p.diag
    rows, b, keep, norms = _independent_rows(p)
    m = len(b)
    A = rows.reshape(m, d, d)
    rhs = np.concatenate([a, b])
    root = np.sqrt(a)
    bound = float(root @ np.abs(C) @ root)
    res_tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + float(np.linalg.norm(b)))

    def adjoint(v):  # A*(v) = Diag(v[:d]) + sum_k v[d + k] A_k
        D = np.diag(v[:d])
        return D + (v[d:] @ rows).reshape(d, d) if m else D

    X = np.diag(a)
    off = np.abs(C).sum(axis=1) - np.abs(np.diag(C))
    y = np.concatenate([np.diag(C) - off - 1.0, np.zeros(m)])
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    while True:
        primal = float(np.tensordot(C, X))
        dual = float(rhs @ y)
        gap = primal - dual
        residual = b - rows @ X.reshape(-1)
        xz = gap + float(y[d:] @ residual)  # <X, Z>; the gap once X meets the rows
        tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + abs(primal))
        if gap <= tol and xz <= tol and _fro(residual) <= res_tol:
            status = SolveStatus.CONVERGED
            break
        if dual > bound + tol:
            status = SolveStatus.DIVERGED
            message = (f"dual objective {sign * dual:.6g} is beyond {sign * bound:.6g}, "
                       "which bounds <C, X> over every feasible X: the constraints are "
                       "infeasible")
            break
        if it == cfg.max_iter:
            break
        try:
            # inverse Cholesky factors; LinAlgError unless Z and X are PD
            Z_inv_L = np.linalg.inv(np.linalg.cholesky(C - adjoint(y)))
            Z_inv = Z_inv_L.T @ Z_inv_L
            mu = 0.1 * xz / d
            # the Schur matrix: X o Z^-1 on the diagonal rows, bordered by
            # the trace rows, which X A_k Z^-1 serves for every block
            M, g = X * Z_inv, np.diag(Z_inv)
            if m:
                P = (X @ A @ Z_inv).reshape(m, d * d)
                B = P[:, :: d + 1]
                M = np.vstack([np.hstack([M, B.T]), np.hstack([B, rows @ P.T])])
                g = np.concatenate([g, rows @ Z_inv.reshape(-1)])
            dy = np.linalg.solve(M, rhs - mu * g)
            dX = mu * Z_inv - X + (X * dy[:d]) @ Z_inv
            if m:
                dX += (dy[d:] @ P).reshape(d, d)
            dX = (dX + dX.T) / 2.0
            step_x = _max_step(np.linalg.inv(np.linalg.cholesky(X)), dX)
            step_z = _max_step(Z_inv_L, -adjoint(dy))
        except np.linalg.LinAlgError as exc:
            message = f"interior-point step failed after {it} iterations: {exc}"
            break
        X = X + step_x * dX
        y = y + step_z * dy
        it += 1

    y_rows = np.zeros(d + len(p.constraints))  # dropped rows keep multiplier 0
    y_rows[:d] = y[:d]
    y_rows[d + keep] = y[d:] / norms
    diverged = status == SolveStatus.DIVERGED
    primal_residual = float(np.hypot(np.linalg.norm(np.diag(X) - a), np.linalg.norm(residual)))
    if m and not diverged:
        # X meets the trace rows only in the limit: return its projection
        # onto the affine set, as ADMM returns its affine iterate, and
        # measure how far that is from the PSD cone
        X = _AffineProjector(p, (rows, b))(X)
        primal_residual = _fro(X - project_psd(X))
    return SdpSolution(
        X=X,
        objective=sign * np.inf if diverged else float(np.tensordot(p.C, X)),
        primal_residual=primal_residual,
        dual_residual=gap,
        iterations=it,
        status=status,
        message=message,
        y=sign * y_rows,
    )


def solve_sdp(p: SdpProblem, cfg: SolverConfig = SolverConfig()) -> SdpSolution:
    """Solve the SDP; the method depends on the cone and the diagonal.

    A PSD-cone problem with a positive fixed diagonal, with or without trace
    rows, goes to the primal-dual interior-point method
    (``_solve_diag_ipm``), where ``max_iter`` counts its iterations and
    ``admm_rho`` is unused.

    ADMM serves only the doubly-nonnegative cone and problems without a
    positive fixed diagonal.  It runs on a consensus split of
    min <C,X> + i_affine(X) + i_cone(X) with one copy K_j per cone and its
    scaled dual D_j: X = Z with Z PSD, and for the doubly-nonnegative cone
    also X = N with N >= 0.  The copies separate, so this is a two-block
    ADMM (Wen, Goldfarb & Yin 2010; Sun, Toh & Yang 2015): the X-update
    projects the average of the k shifted copies K_j - D_j, less C / sigma,
    onto the affine set (the fixed diagonal as rows E_ii, then the trace
    constraints); each copy then takes its cone's projection of X + D_j
    (one eigenvalue clip, one entrywise clip), and each dual accumulates
    its gap X - K_j.  Convergence requires both
    residuals to stay below their Boyd-style thresholds for 100 consecutive
    iterations.  Iterates whose primal residual stalls at a positive level
    (affine set disjoint from the cone) are reported as Diverged.

    On either path, dependent rows with conflicting right-hand sides are
    reported as Diverged with "infeasible constraint system".
    """
    d = p.dim
    try:
        if p.diag is not None and p.cone == Cone.PSD and np.all(p.diag > 0.0):
            return _solve_diag_ipm(p, cfg)
        affine = _AffineProjector(p)
    except _InconsistentSystem as exc:
        return SdpSolution(
            X=np.zeros((d, d)),
            objective=np.inf if p.sense == Sense.MIN else -np.inf,
            primal_residual=np.inf,
            dual_residual=np.inf,
            iterations=0,
            status=SolveStatus.DIVERGED,
            message=f"infeasible constraint system: {exc}",
        )
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    C = sign * p.C

    # looked up per solve, so a patched sdp.project_psd sees every call
    projections = [project_psd]
    if p.cone == Cone.PSD_NONNEG:
        projections.append(_clip_nonneg)
    k = len(projections)
    sqrt_k = np.sqrt(k)

    sigma0 = cfg.admm_rho * (1.0 + np.linalg.norm(C) / d)
    sigma = sigma0
    sigma_lo, sigma_hi = sigma0 * 2.0 ** -20, sigma0 * 2.0 ** 20
    C_sigma = C / sigma

    copies = [np.zeros((d, d)) for _ in projections]   # one per cone
    duals = [np.zeros((d, d)) for _ in projections]    # scaled, one per copy
    r_norm = s_norm = np.inf
    eps_p = eps_d = 0.0
    stable = 0
    stall_hist: list[float] = []
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    X = copies[0]

    for it in range(1, cfg.max_iter + 1):
        X = affine((reduce(add, [K - D for K, D in zip(copies, duals)]) - C_sigma) / k)
        prev = copies
        copies = [proj(X + D) for proj, D in zip(projections, duals)]
        duals = [D + X - K for K, D in zip(copies, duals)]

        r_norm = reduce(np.hypot, [_fro(X - K) for K in copies])
        s_norm = sigma * _fro(reduce(add, [K - P for K, P in zip(copies, prev)]))
        # k stacked copies of X against the k cone copies
        spread = max(sqrt_k * _fro(X), reduce(np.hypot, [_fro(K) for K in copies]))
        eps_p = d * cfg.eps_abs + cfg.eps_rel * spread
        eps_d = d * cfg.eps_abs + cfg.eps_rel * sigma * _fro(reduce(add, duals))

        if r_norm <= eps_p and s_norm <= eps_d:
            stable += 1
            if stable >= _STABLE_ITERS:
                status = SolveStatus.CONVERGED
                break
        else:
            stable = 0

        if it % _CHECK_EVERY == 0 and stable == 0:
            if r_norm > 10.0 * s_norm and sigma < sigma_hi:
                sigma *= 2.0
                duals = [D / 2.0 for D in duals]
                C_sigma = C / sigma
            elif s_norm > 10.0 * r_norm and sigma > sigma_lo:
                sigma /= 2.0
                duals = [D * 2.0 for D in duals]
                C_sigma = C / sigma

        if it % _STALL_SAMPLE == 0:
            stall_hist.append((r_norm, reduce(np.hypot, [_fro(D) for D in duals])))
            if len(stall_hist) > _STALL_WINDOW:
                stall_hist.pop(0)
            floor = max(1e3 * eps_p, 1e-4 * (1.0 + np.linalg.norm(affine.rhs)))
            rs = [r for r, _ in stall_hist]
            us = [u for _, u in stall_hist]
            if (
                len(stall_hist) == _STALL_WINDOW
                and min(rs) > floor
                and max(rs) <= 1.02 * min(rs)
                # a linearly growing dual iterate is the divergence signature;
                # a merely slow feasible solve keeps the duals bounded
                and us[-1] > 1.2 * us[0]
                and all(b >= a for a, b in zip(us, us[1:]))
            ):
                status = SolveStatus.DIVERGED
                message = (
                    "primal residual stalled at "
                    f"{r_norm:.3e}: affine constraints appear disjoint from the cone"
                )
                break

    if status == SolveStatus.DIVERGED and message.startswith("primal residual stalled"):
        objective = np.inf if p.sense == Sense.MIN else -np.inf
    else:
        objective = float(np.tensordot(p.C, X))
    return SdpSolution(
        X=X,
        objective=objective,
        primal_residual=float(r_norm),
        dual_residual=float(s_norm),
        iterations=it,
        status=status,
        message=message,
        sigma=sigma,
    )


def export_sdpa(p: SdpProblem, path) -> None:
    """Write the problem in SDPA sparse format (.dat-s) for external cross-checks.

    The file encodes  max <F0, Y> s.t. <F_i, Y> = c_i, Y PSD  (the SDPA dual),
    so F0 = -C for a Min problem and F0 = C for Max.  A fixed diagonal is
    written as the first d constraint matrices E_ii.  Only the PSD cone is
    representable; a PSD-and-nonnegative problem is exported with its cone
    relaxed to PSD and a comment line saying so.
    """
    d = p.dim
    F0 = -p.C if p.sense == Sense.MIN else p.C
    lines = []
    if p.cone == Cone.PSD_NONNEG:
        lines.append('"nonnegativity constraints omitted: PSD relaxation only"')
    diag = () if p.diag is None else tuple(p.diag)
    lines.append(f"{len(diag) + len(p.constraints)} = mDIM")
    lines.append("1 = nBLOCK")
    lines.append(f"{d} = bLOCKsTRUCT")
    lines.append(" ".join(repr(float(b)) for b in diag + tuple(b for _, b in p.constraints)))

    def emit(mat_no, M):
        for i in range(d):
            for j in range(i, d):
                if M[i, j] != 0.0:
                    lines.append(f"{mat_no} 1 {i + 1} {j + 1} {float(M[i, j])!r}")

    emit(0, F0)
    for i in range(len(diag)):
        lines.append(f"{i + 1} 1 {i + 1} {i + 1} 1.0")
    for k, (A, _) in enumerate(p.constraints, start=len(diag) + 1):
        emit(k, A)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
