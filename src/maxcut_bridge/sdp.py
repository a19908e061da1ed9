"""Solvers for small dense semidefinite programs.

Solves min/max <C, X> subject to a fixed diagonal X_ii = diag_i and trace
constraints <A_i, X> = b_i, with X in the positive-semidefinite cone,
optionally intersected with the entrywise nonnegative cone.

Two primal-dual interior-point methods serve every problem, and both keep
their iterates strictly dual feasible, so every solve, at any iteration
budget, returns multipliers that certify a bound on the optimum
(``certified_diag_bound``).

A PSD-cone problem with a positive fixed diagonal (MAX-CUT, the moment
relaxations of the penalty bound and the first Lasserre relaxation, with or
without trace rows) goes to ``_solve_diag_ipm``, whose Schur matrix is built
from the diagonal.  Its X meets trace rows only in the limit, so a solve
with rows returns X projected onto them, with ``primal_residual`` its
distance to the PSD cone.

Every other problem (the doubly-nonnegative cone, and rows that fix the
trace without a positive diagonal) goes to ``_solve_face_ipm``.  It solves
over X = V R V', where V is the problem's ``face`` (facial reduction: an
orthonormal basis that the range of every feasible X lies in) or the
identity, with R positive semidefinite and, for the doubly-nonnegative
cone, the entries of V R V' that the rows do not pin to zero kept
nonnegative.

Both methods drop dependent constraint rows up front with one routine
(``_independent``), and both are deterministic: the same problem and config
always produce the same iteration path.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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
    """Tolerances and the iteration budget of ``solve_sdp``.

    ``admm_rho`` is unused since both solvers are interior-point methods;
    the benchmark still constructs it, until ROADMAP item 10 drops it.
    """

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
    ``face`` is None or a d x r matrix V with orthonormal columns, which
    restricts X further to V R V' with R PSD: a face of the PSD cone, such
    as facial reduction finds when the rows leave X no interior point.
    """

    C: np.ndarray
    constraints: tuple = ()
    sense: Sense = Sense.MIN
    cone: Cone = Cone.PSD
    diag: np.ndarray | None = None
    face: np.ndarray | None = None

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("C must be square")
        if not np.allclose(C, C.T, rtol=0.0, atol=1e-12):
            raise ValueError("C must be symmetric")
        C = (C + C.T) / 2.0
        d = C.shape[0]
        mats = [np.asarray(A, dtype=float) for A, _ in self.constraints]
        for k, A in enumerate(mats):
            if A.shape != (d, d):
                raise ValueError(f"constraint {k}: matrix must be {d}x{d}")
        mats = np.array(mats).reshape(-1, d, d)
        flipped = mats.transpose(0, 2, 1)
        # np.allclose(A, A.T, rtol=0, atol=1e-12) for every matrix at once
        close = (mats == flipped) | (np.abs(mats - flipped) <= 1e-12)
        asymmetric = np.flatnonzero(~close.all(axis=(1, 2)))
        if asymmetric.size:
            raise ValueError(f"constraint {asymmetric[0]}: matrix must be symmetric")
        pairs = zip((mats + flipped) / 2.0, (float(b) for _, b in self.constraints))
        if self.diag is not None:
            diag = np.asarray(self.diag, dtype=float)
            if diag.shape != (d,):
                raise ValueError(f"diag must be a vector of length {d}")
            if not np.all(np.isfinite(diag)):
                raise ValueError("diag must be finite")
            object.__setattr__(self, "diag", diag)
        if self.face is not None:
            V = np.asarray(self.face, dtype=float)
            if V.ndim != 2 or V.shape[0] != d or not np.all(np.isfinite(V)):
                raise ValueError(f"face must be a finite matrix with {d} rows")
            if not np.allclose(V.T @ V, np.eye(V.shape[1]), rtol=0.0, atol=1e-9):
                raise ValueError("face must have orthonormal columns")
            object.__setattr__(self, "face", V)
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
    # always 0: no solver has a penalty parameter; the benchmark still reads
    # it, until ROADMAP item 10 drops it
    sigma: float = field(default=0.0, repr=False)
    # multipliers in the problem's sense, one per row: the diagonal first (if
    # fixed), then ``constraints`` in order, 0 for a dropped dependent row.
    # With A*(y) = Diag(y[:d]) + sum_k y[d + k] A_k (no Diag term without a
    # fixed diagonal), C - A*(y) - W is PSD on the face for Min, and
    # A*(y) + W - C for Max
    y: np.ndarray | None = field(default=None, repr=False)
    # the nonnegative orthant's multipliers as a symmetric d x d matrix,
    # <W, X> = sum_{i <= j} w_ij X_ij, zero off the orthant (None for Cone.PSD)
    W: np.ndarray | None = field(default=None, repr=False)


def project_psd(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive-semidefinite matrix: clip negative eigenvalues."""
    S = (S + S.T) / 2.0
    w, V = np.linalg.eigh(S)
    if w[0] >= 0.0:
        return S
    w = np.maximum(w, 0.0)
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def _fro(A: np.ndarray) -> float:
    """Frobenius norm: the dot product np.linalg.norm runs, without its call overhead."""
    v = A.ravel("K")
    return math.sqrt(v.dot(v))


def project_psd_nonneg(S: np.ndarray, tol: float = 1e-9, max_inner: int = 50) -> np.ndarray:
    """Dykstra alternation between the PSD cone and the nonnegative orthant.

    Alternates the two exact projections with Dykstra correction terms until
    successive iterates agree within ``tol`` (Frobenius), so the result lies in
    the intersection up to that tolerance.  Nothing in the package calls it;
    the benchmark still traces it, until ROADMAP item 10 drops it.
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


@lru_cache(maxsize=64)
def _svec_index(r: int):
    """Index pairs (a, b), a <= b, of the svec coordinates of an r x r matrix.

    svec(M) = M[a, b] * s with s = 1 on the diagonal and sqrt(2) off it, so
    svec(M) @ svec(N) = <M, N> for symmetric M and N.  The arrays are shared
    by every caller, so they are read-only.
    """
    a, b = np.triu_indices(r)
    s = np.where(a == b, 1.0, math.sqrt(2.0))
    for array in (a, b, s):
        array.setflags(write=False)
    return a, b, s


def _face_rows(p: SdpProblem):
    """The rows of ``p`` on its face, in the svec coordinates of R.

    Every row, the fixed diagonal's E_ii first and then ``p.constraints``,
    becomes svec(V' A V) for X = V R V' (V the identity without a face),
    divided by its norm, and its right-hand side is divided alike.  A row
    that the face shrinks below 1e-9 of its norm in X (such as X_ii = x_i
    for a variable the face pins to 0) is set to zero, not blown up from
    round-off.
    Returns V, the rows, right-hand sides and norms (0 for a zero row).
    """
    d = p.dim
    V = np.eye(d) if p.face is None else p.face
    a, b, s = _svec_index(V.shape[1])
    mats = np.array([A for A, _ in p.constraints]).reshape(-1, d, d)
    rhs = np.array([c for _, c in p.constraints], dtype=float)
    if p.diag is not None:
        eye = np.eye(d)
        mats = np.concatenate([eye[:, :, None] * eye[:, None, :], mats])
        rhs = np.concatenate([p.diag, rhs])
    rows = (V.T @ mats @ V)[:, a, b] * s
    norms = np.linalg.norm(rows, axis=1)
    norms[norms <= 1e-9 * np.linalg.norm(mats, axis=(1, 2))] = 0.0
    rows[norms == 0.0] = 0.0
    scale = np.where(norms > 0.0, norms, 1.0)
    return V, rows / scale[:, None], rhs / scale, norms


def _fixed_trace(rows: np.ndarray, rhs: np.ndarray, r: int):
    """The trace T that the rows fix, and the row weights u with sum_k u_k A_k = I.

    ``rows`` are svec rows of r x r matrices.  Raises ValueError unless the
    identity is a combination of the rows and T = u'rhs is positive.
    """
    a, b, _ = _svec_index(r)
    target = (a == b).astype(float)  # svec(I)
    u = np.linalg.lstsq(rows.T, target, rcond=None)[0]
    T = float(u @ rhs)
    if np.linalg.norm(rows.T @ u - target) > 1e-8 * (1.0 + math.sqrt(r)) or not T > 0.0:
        raise ValueError("solve_sdp needs a fixed diagonal or constraint rows that fix "
                         "the trace of X at a positive value")
    return T, u


def certified_diag_bound(p: SdpProblem, y: np.ndarray, W: np.ndarray | None = None) -> float:
    """Bound on the optimum of a fixed-trace SDP, certified by any multipliers.

    ``y`` holds one multiplier per row in the problem's sense, the diagonal
    (if fixed) first and then ``p.constraints`` in order, and ``W`` the
    orthant's (``SdpSolution.y`` and ``SdpSolution.W``).  Every feasible X
    has the trace T = sum(diag), or the trace the rows fix, and is V R V'
    with tr R = T on the face V.  So for Min

        <C, X> = b'y + <W, X> + <V'(C - A*(y) - W)V, R>
               >= b'y + T * min(0, lambda_min(V'(C - A*(y) - W)V)),

    the bounded-trace safe bound of Jansson, Chaykin & Keil (SIAM J. Numer.
    Anal. 46, 2007), where only the nonnegative part of W enters, as
    <W, X> >= 0 for W, X >= 0 (the doubly-nonnegative cone; W is ignored
    on the PSD cone).  Max mirrors it with A*(y) + W - C and the
    nonpositive part of W.  The result is a true bound for any y and W,
    however rough the solve; it is additionally clamped against the
    spectral bound T * lambda_extreme(V'CV), which is valid on its own.
    """
    d = p.dim
    y = np.asarray(y, dtype=float)
    mats = np.array([A for A, _ in p.constraints]).reshape(-1, d, d)
    if p.diag is None:
        V, rows, rhs, _ = _face_rows(p)
        T = _fixed_trace(rows, rhs, V.shape[1])[0]
        rhs = np.array([b for _, b in p.constraints], dtype=float)
        A_y = np.tensordot(y, mats, axes=1)
    else:
        T = p.diag.sum()
        rhs = np.concatenate([p.diag, [b for _, b in p.constraints]])
        A_y = np.diag(y[:d]) + np.tensordot(y[d:], mats, axes=1)
    if W is not None and p.cone == Cone.PSD_NONNEG:
        A_y = A_y + (np.maximum(W, 0.0) if p.sense == Sense.MIN else np.minimum(W, 0.0))
    value = (rhs * y).sum()

    def on_face(M):
        return M if p.face is None else p.face.T @ M @ p.face

    spectrum = np.linalg.eigvalsh(on_face(p.C))
    if p.sense == Sense.MAX:
        low = float(np.linalg.eigvalsh(on_face(A_y - p.C))[0])
        return min(float(value - T * min(0.0, low)), T * float(spectrum[-1]))
    low = float(np.linalg.eigvalsh(on_face(p.C - A_y))[0])
    return max(float(value + T * min(0.0, low)), T * float(spectrum[0]))


class _InconsistentSystem(Exception):
    pass


def _independent(rows: np.ndarray, rhs: np.ndarray, slack: float) -> np.ndarray:
    """Indices of the rows that do not depend on the rows ahead of them.

    A QR factorization of the rows gives, on its diagonal, the norm of each
    row less its projection onto the rows before it.  The first row where
    that norm is at most 1e-6 (a zero row included) is a combination of the
    rows before it; it is dropped if its right-hand side is the same
    combination of theirs within ``slack``, and otherwise no X satisfies the
    rows and ``_InconsistentSystem`` is raised.  The factorization is
    repeated without it until no such row is left.
    """
    keep = np.arange(len(rows))
    while keep.size:
        R = np.linalg.qr(rows[keep].T, mode="r")
        remainder = np.zeros(keep.size)
        remainder[: min(R.shape)] = np.abs(np.diag(R))
        small = np.flatnonzero(remainder <= 1e-6)
        if not small.size:
            break
        i = small[0]
        c = np.linalg.solve(R[:i, :i], R[:i, i])  # row i in terms of the rows before it
        if abs(rhs[keep[i]] - c @ rhs[keep[:i]]) > slack:
            raise _InconsistentSystem(
                "constraint rows are linearly dependent with conflicting right-hand sides"
            )
        keep = np.delete(keep, i)
    return keep


def _independent_rows(p: SdpProblem):
    """The trace rows of ``p`` that do not depend on the rows ahead of them.

    Each row <A, X> = b is divided by ||A||_F and reduced by the fixed
    diagonal's rows E_ii, when there is one, before ``_independent`` drops
    the dependent ones.

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
    keep = _independent(V, t, slack)
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


def _step_to(low: float) -> float:
    """0.95 of the largest step a keeping 1 + a low positive, capped at 1."""
    return 1.0 if low >= -0.95 else -0.95 / low


def _max_step(L_inv: np.ndarray, dM: np.ndarray) -> float:
    """0.95 of the largest step keeping M + a dM positive definite, capped at 1.

    ``L_inv`` is the inverse Cholesky factor of M, so the step is limited by
    the most negative eigenvalue of L_inv dM L_inv'.
    """
    return _step_to(float(np.linalg.eigvalsh(L_inv @ dM @ L_inv.T)[0]))


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
        # onto the affine set, and measure how far that is from the PSD cone
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


def _solve_face_ipm(p: SdpProblem, cfg: SolverConfig) -> SdpSolution:
    """Primal-dual interior-point method over the face X = V R V'.

    Works in the svec coordinates of R, r(r+1)/2 of them.  The rows of
    ``_face_rows``, less the dependent ones, read A rho = b.  For the
    doubly-nonnegative cone, G rho = v >= 0 collects the entries X_ij,
    i <= j, that the rows do not pin to zero.  An entry is pinned when its
    row G_ij is a combination of the rows with right-hand side 0, such as
    x_i z_i when x_i + z_i = 1; kept, it would leave the orthant without an
    interior point.  The dual is max b'y s.t. Z = C - A'y - G'w PSD, w >= 0.

    Each iteration is a Mehrotra predictor-corrector step in the
    Nesterov-Todd scaling (Todd, Toh & Tutuncu, SIAM J. Optim. 8, 1998).
    One Newton matrix, [[W^-1 (x)s W^-1 + G' Diag(w/v) G, A'], [A, 0]] with
    the scaling point W (W Z W = R), serves both the affine step, which sets
    the centering (mu_affine / mu)^3, and the corrector.  Each side moves
    0.95 of the way to the boundary of its cones, at most a full step.
    R starts at (T/r) I, where T is the trace the rows fix, v at T/d, w at
    1 + max|C_ij|, and y at the multiple of the row weights that sum to the
    identity which puts lambda_min(Z) there too.  Z is recomputed from y and
    w after every step, so it stays strictly dual feasible, and
    b'y + T * min(0, lambda_min(Z)) is a certified bound at every iterate.
    Once b'y passes T * lambda_max(V'CV), which bounds <C, X> over the face,
    that recomputed certificate decides whether the rows are infeasible
    (Diverged).  Converged needs the gap, <R, Z> + v'w and the row and
    orthant residuals under tolerance.  The returned X is V R V';
    ``primal_residual`` is the norm of its normalized row residual and of
    its negative orthant entries.
    """
    d = p.dim
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    V, rows, rhs, norms = _face_rows(p)
    r = V.shape[1]
    ia, ib, s = _svec_index(r)
    keep = _independent(rows, rhs, 1e-9 * (1.0 + np.linalg.norm(rhs)))
    A, b = rows[keep], rhs[keep]
    m = len(b)
    T, weights = _fixed_trace(A, b, r)
    C = sign * (p.C if p.face is None else V.T @ p.C @ V)
    c = C[ia, ib] * s
    bound = T * float(np.linalg.eigvalsh(C)[-1])
    res_tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + float(np.linalg.norm(b)))

    pi, pj = _svec_index(d)[:2] if p.cone == Cone.PSD_NONNEG else (np.zeros(0, int),) * 2
    Va, Vb = V[:, ia], V[:, ib]
    G = (Va[pi] * Vb[pj] + Vb[pi] * Va[pj]) * (s / 2.0)  # X_ij = G_ij rho
    Q, R_b = np.linalg.qr(A.T)
    along = G @ Q
    outside = np.linalg.norm(G - along @ Q.T, axis=1)
    pinned_to = along @ np.linalg.solve(R_b.T, b)
    free = (outside > 1e-9) | (np.abs(pinned_to) > 1e-9)
    pi, pj, G = pi[free], pj[free], G[free]
    q = len(G)

    def smat(u):  # svec coordinates (last axis) to symmetric r x r matrices
        M = np.zeros(u.shape[:-1] + (r, r))
        M[..., ia, ib] = M[..., ib, ia] = u / s
        return M

    N = len(c)
    K = np.zeros((N + m, N + m))  # the Newton matrix [[H, A'], [A, 0]]; H changes
    K[:N, N:] = A.T
    K[N:, :N] = A
    half_ss = np.outer(s, s / 2.0)
    rho = (T / r) * (ia == ib)
    v = np.full(q, T / d)
    eta = 1.0 + float(np.abs(C).max())
    w = np.full(q, eta)
    shift = float(np.linalg.eigvalsh(smat(c - G.T @ w))[0]) - eta
    y = shift * weights
    z = c - A.T @ y - G.T @ w
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    while True:
        primal = float(c @ rho)
        dual = float(b @ y)
        gap = primal - dual
        r_p = b - A @ rho
        r_g = v - G @ rho
        comp = float(rho @ z + v @ w)  # <R, Z> + v'w
        tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + abs(primal))
        if gap <= tol and comp <= tol and math.hypot(_fro(r_p), _fro(r_g)) <= res_tol:
            status = SolveStatus.CONVERGED
            break
        Z = smat(z)
        if dual > bound + tol:
            certified = dual + T * min(0.0, float(np.linalg.eigvalsh(Z)[0]))
            if certified > bound + tol:
                status = SolveStatus.DIVERGED
                message = (f"certified bound {sign * certified:.6g} is beyond "
                           f"{sign * bound:.6g}, which bounds <C, X> over every feasible X: "
                           "the constraints are infeasible")
                break
        if it == cfg.max_iter:
            break
        try:
            # NT scaling: with L L' = R and L'ZL = U Diag(l)^2 U', the map
            # S = L U Diag(l)^(-1/2) takes R and Z to the same diagonal,
            # S^-1 R S^-T = S' Z S = Diag(l), and W^-1 = S^-T S^-1 = F F'
            L = np.linalg.cholesky(smat(rho))
            lam, U = np.linalg.eigh(L.T @ Z @ L)
            if not lam[0] > 0.0:
                raise np.linalg.LinAlgError("Z is not positive definite")
            l = np.sqrt(lam)
            root = np.sqrt(l)
            S = L @ (U / root)
            F = Z @ S / l  # S^-T, as S' Z S = Diag(l)
            scalings = np.array([F, S])
            P = F @ F.T
            Pa, Pb = P[ia], P[ib]
            D = w / v
            # H = W^-1 (x)s W^-1 + G' Diag(w/v) G, in svec coordinates
            K[:N, :N] = (Pa[:, ia] * Pb[:, ib] + Pa[:, ib] * Pb[:, ia]) * half_ss
            G_D = G * np.sqrt(D)[:, None]
            GDG = G_D.T @ G_D
            K[:N, :N] += GDG
            pair = 2.0 / (l[:, None] + l[None, :])
            unit = 1.0 / np.outer(root, root)  # scales Diag(l) to I
            shifted = D * r_g

            def direction(r_c, t):
                # Newton step for Diag(l) o (S^-1 dR S^-T + S' dZ S) = target
                # (o the symmetrized product), given as r_c = svec(S^-T E S^-1)
                # for the E with Diag(l) o E = target, and for w dv + v dw = t
                t_v = t / v
                pulled = G.T @ (t_v + shifted)
                step = np.linalg.solve(K, np.concatenate([r_c + pulled, r_p]))
                d_rho, dy = step[:N], -step[N:]
                dv = G @ d_rho - r_g
                dw = t_v - D * dv  # so G' dw = pulled - G'DG d_rho
                # S^-1 dR S^-T and S' dZ S, whose eigenvalues against Diag(l)
                # limit the steps
                scaled = scalings.transpose(0, 2, 1) @ smat(
                    np.array([d_rho, GDG @ d_rho - pulled - A.T @ dy])) @ scalings
                low = np.linalg.eigvalsh(scaled * unit)[:, 0]
                return (d_rho, dv, dy, dw, scaled[0], scaled[1],
                        _step_to(min(low[0], (dv / v).min(initial=0.0))),
                        _step_to(min(low[1], (dw / w).min(initial=0.0))))

            # the affine step (target -Diag(l)^2, so r_c = -Z) sets the
            # centering; its second-order term enters the corrector
            mu = comp / (r + q)
            _, dv, _, dw, scaled_r, scaled_z, step_p, step_d = direction(-z, -v * w)
            mu_aff = (comp + step_p * float(np.diag(scaled_r) @ l)
                      + step_d * float(np.diag(scaled_z) @ l)
                      + step_p * step_d * float(np.vdot(scaled_r, scaled_z))
                      + step_p * float(dv @ w) + step_d * float(v @ dw)
                      + step_p * step_d * float(dv @ dw)) / (r + q)
            centering = min(1.0, (max(mu_aff, 0.0) / mu) ** 3) * mu
            target = (scaled_r @ scaled_z + scaled_z @ scaled_r) / -2.0
            target.flat[:: r + 1] += centering - lam
            r_c = F @ (target * pair) @ F.T
            d_rho, dv, dy, dw, _, _, step_p, step_d = direction(
                r_c[ia, ib] * s, centering - v * w - dv * dw)
        except np.linalg.LinAlgError as exc:
            message = f"interior-point step failed after {it} iterations: {exc}"
            break
        rho = rho + step_p * d_rho
        v = v + step_p * dv
        y = y + step_d * dy
        w = w + step_d * dw
        z = c - A.T @ y - G.T @ w
        it += 1

    R = smat(rho)
    X = R if p.face is None else V @ R @ V.T
    y_rows = np.zeros(len(rows))  # dropped rows keep multiplier 0
    y_rows[keep] = y / norms[keep]
    W = None
    if p.cone == Cone.PSD_NONNEG:
        W = np.zeros((d, d))
        W[pi, pj] += w / 2.0
        W[pj, pi] += w / 2.0
    diverged = status == SolveStatus.DIVERGED
    return SdpSolution(
        X=X,
        objective=sign * np.inf if diverged else float(np.tensordot(p.C, X)),
        primal_residual=math.hypot(_fro(r_p), _fro(np.minimum(G @ rho, 0.0))),
        dual_residual=gap,
        iterations=it,
        status=status,
        message=message,
        y=sign * y_rows,
        W=None if W is None else sign * W,
    )


def solve_sdp(p: SdpProblem, cfg: SolverConfig = SolverConfig()) -> SdpSolution:
    """Solve the SDP with one of two primal-dual interior-point methods.

    A PSD-cone problem with a positive fixed diagonal, with or without trace
    rows, goes to ``_solve_diag_ipm``; every other problem, which needs a
    fixed diagonal or rows that fix the trace of X (ValueError otherwise),
    to ``_solve_face_ipm``.  ``max_iter`` counts interior-point iterations.

    A negative fixed diagonal entry, which no PSD matrix has, and dependent
    rows with conflicting right-hand sides are reported as Diverged up front.
    """
    d = p.dim
    infeasible = ""
    if p.diag is not None and np.any(p.diag < 0.0):
        infeasible = "a fixed diagonal entry is negative, which no PSD matrix has"
    else:
        try:
            if p.diag is not None and p.cone == Cone.PSD and np.all(p.diag > 0.0):
                return _solve_diag_ipm(p, cfg)
            return _solve_face_ipm(p, cfg)
        except _InconsistentSystem as exc:
            infeasible = f"infeasible constraint system: {exc}"
    return SdpSolution(
        X=np.zeros((d, d)),
        objective=np.inf if p.sense == Sense.MIN else -np.inf,
        primal_residual=np.inf,
        dual_residual=np.inf,
        iterations=0,
        status=SolveStatus.DIVERGED,
        message=infeasible,
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
