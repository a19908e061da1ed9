"""Solvers for small dense semidefinite programs.

Solves min/max <C, X> over X in the positive-semidefinite cone, optionally
restricted to the face X K' = 0 of an integer matrix K (facial reduction:
every feasible X is V R V' for V an orthonormal basis of K's null space),
subject to one of two kinds of constraint:

- a fixed positive diagonal X_ii = diag_i, on the PSD cone alone (MAX-CUT,
  the moment relaxations of ``shor_box_extrema``, and the first Lasserre
  relaxation on the face its constraints cut out);
- the rows of ``A``, in order, <A_k, X> = b_k (one m x d x d array and its
  m right-hand sides), on the PSD cone or its intersection with the
  entrywise nonnegative cone (the doubly-nonnegative bound).

Each kind has one primal-dual interior-point method, and both keep their
iterates strictly dual feasible, so every solve, at any iteration budget,
returns multipliers that certify a bound on the optimum
(``certified_diag_bound``).

A fixed diagonal goes to ``_solve_diag_ipm``, whose Schur matrix is built
from the diagonal.  Rows go to ``_solve_face_ipm``, which solves over R in
svec coordinates, with R positive semidefinite and, for the
doubly-nonnegative cone, the entries of V R V' that the rows do not pin to
zero kept nonnegative.

Both methods drop dependent rows up front and iterate on the kept rows
alone, returning 0 as a dropped row's multiplier.  K's exact echelon form
(``integer.echelon``) decides the face and the diagonal method's rows on it
(``_kept_diagonal``).  The face method's float rows (``_face_rows``) are
reduced by one pass exact to round-off (``_independent_rows``), one record
per problem (``SdpProblem._rows``).  A solve whose X meets its rows only in
the limit moves X onto them at the end, and ``primal_residual`` is then its
distance to the PSD cone.  Both methods are deterministic.

Inside the loops of both methods, and of the box QP of ``relaxations``,
every factorization and eigenvalue call goes through one seam of the
gufuncs that numpy.linalg dispatches to (``_lapack``), under one errstate
per solve (``_raising``): a call that fails, or an invalid value anywhere
in a step, ends the solve as a failed step, with the multipliers of its
last iterate.  The public functions keep numpy.linalg.
"""

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
# The gufuncs that numpy.linalg dispatches to.  The interior-point loops call
# them directly (``_lapack``): at d <= 25 each numpy.linalg call spends 3-5 us
# on type checks and an errstate around 2-12 us of LAPACK, and the loops make
# thousands of such calls.
from numpy.linalg import _umath_linalg

from . import integer


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
        # each message leads with the field it refuses; the CLI reports it under its flag
        for name in ("eps_abs", "eps_rel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError("max_iter must be a positive integer")
        if not self.admm_rho > 0:
            raise ValueError("admm_rho must be positive")


class _Invalid(np.linalg.LinAlgError):
    """An invalid floating-point result under ``_raising``."""


def _raise_invalid(kind, flag):
    raise _Invalid("invalid floating-point result")


def _raising():
    """The errstate an interior-point loop runs under, one per solve: an
    invalid floating-point result raises ``_Invalid``, a LinAlgError, so it
    ends the step it occurs in as a failed factorization does."""
    return np.errstate(call=_raise_invalid, invalid="call")


def _lapack(gufunc, signature: str, message: str):
    """``gufunc`` of numpy.linalg's float64 path, with its signature: the
    result is bit for bit that of the numpy.linalg function, and the invalid
    flag that the gufunc sets on failure is re-raised as numpy.linalg's
    LinAlgError with ``message``.  Call it only under ``_raising``."""
    def call(*args):
        try:
            return gufunc(*args, signature=signature)
        except _Invalid:
            raise np.linalg.LinAlgError(message) from None
    return call


# The seam of the interior-point loops: np.linalg.cholesky, inv, solve (of a
# vector right-hand side), eigvalsh and eigh, lower triangle read
_cholesky = _lapack(_umath_linalg.cholesky_lo, "d->d", "Matrix is not positive definite")
_inv = _lapack(_umath_linalg.inv, "d->d", "Singular matrix")
_solve = _lapack(_umath_linalg.solve1, "dd->d", "Singular matrix")
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "d->d", "Eigenvalues did not converge")
_eigh = _lapack(_umath_linalg.eigh_lo, "d->dd", "Eigenvalues did not converge")


def _asymmetric(M: np.ndarray):
    """Whether np.allclose(A, A.T, rtol=0, atol=1e-12) fails, for each finite matrix A of ``M``."""
    return (np.abs(M - np.swapaxes(M, -1, -2)) > 1e-12).any(axis=(-2, -1))


class _Rows(NamedTuple):
    """What the face method reads of a problem (``SdpProblem._rows``)."""

    V: np.ndarray
    A: np.ndarray
    b: np.ndarray
    norms: np.ndarray
    keep: np.ndarray
    L_inv: np.ndarray
    T: float
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """min/max <C, X> s.t. X_ii = diag_i, or <A_k, X> = b_k, with X in cone.

    A problem fixes a diagonal or states rows, never both.  ``A`` holds the
    m rows, an m x d x d stack or a sequence of d x d matrices (None for
    none), and ``b`` their right-hand sides.  ``diag`` is None when no
    diagonal is fixed, else a vector of length d with positive entries, and
    it takes no rows and only ``Cone.PSD``: a diagonal on the
    doubly-nonnegative cone, or beside rows, is stated as rows.  ``C``,
    ``A``, ``b`` and ``diag`` must be finite, and ``C`` and each row
    symmetric; both are stored symmetrized.  ``face`` is None or a matrix K
    of integer dtype with d columns, which restricts X further to the face
    X K' = 0 of the PSD cone, such as facial reduction finds when the
    constraints leave X no interior point.  Problems compare and hash by
    identity, as the data they cache belongs to the one object.
    """

    C: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    sense: Sense = Sense.MIN
    cone: Cone = Cone.PSD
    diag: np.ndarray | None = None
    face: np.ndarray | None = None

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValueError("C must be square")
        if not np.isfinite(C).all():
            raise ValueError("C must be finite")
        if _asymmetric(C):
            raise ValueError("C must be symmetric")
        C = (C + C.T) / 2.0
        d = C.shape[0]
        if self.A is None and self.b is None:  # no rows: nothing to check
            A, b = np.zeros((0, d, d)), np.zeros(0)
        else:
            mats = [np.asarray(M, dtype=float) for M in (() if self.A is None else self.A)]
            for k, M in enumerate(mats):
                if M.shape != (d, d):
                    raise ValueError(f"row {k}: matrix must be {d}x{d}")
            A = np.array(mats).reshape(-1, d, d)
            b = np.zeros(0) if self.b is None else np.array(self.b, dtype=float)
            if b.ndim != 1:
                raise ValueError("b must be a vector")
            if len(A) != len(b):
                raise ValueError(f"row {min(len(A), len(b))}: A has {len(A)} rows and b {len(b)}")
            infinite = np.flatnonzero(~(np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b)))
            if infinite.size:
                raise ValueError(f"row {infinite[0]}: matrix and right-hand side must be finite")
            asymmetric = np.flatnonzero(_asymmetric(A))
            if asymmetric.size:
                raise ValueError(f"row {asymmetric[0]}: matrix must be symmetric")
            A = (A + A.swapaxes(1, 2)) / 2.0
        if self.diag is not None:
            diag = np.asarray(self.diag, dtype=float)
            if diag.shape != (d,):
                raise ValueError(f"diag must be a vector of length {d}")
            if not np.isfinite(diag).all():
                raise ValueError("diag must be finite")
            object.__setattr__(self, "diag", diag)
        if self.face is not None:
            K = np.asarray(self.face)
            if K.ndim != 2 or K.shape[1] != d or not np.issubdtype(K.dtype, np.integer):
                raise ValueError(f"face must be an integer matrix with {d} columns")
            object.__setattr__(self, "face", K)
        if self.diag is not None:  # the diagonal method's shape, and no other
            if len(A):
                raise ValueError("diag takes no rows of A: state the diagonal as rows")
            if self.cone != Cone.PSD:
                raise ValueError("diag takes only Cone.PSD: state the diagonal as rows")
            if not (self.diag > 0.0).all():
                raise ValueError("diag must be positive")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def _echelon(self) -> integer.Echelon | None:
        """The exact echelon form of the face's K (``integer.echelon``); None
        without a face or where K is zero, which cuts out none."""
        e = None if self.face is None else integer.echelon(self.face.tolist(), self.dim)
        return e if e is not None and e.pivots else None

    @cached_property
    def _basis(self) -> np.ndarray | None:
        """The orthonormal basis V of the face X = V R V': the complement of
        K's echelon rows, from one Householder QR (None without a face)."""
        e = self._echelon
        if e is None:
            return None
        rows = np.array([[x / e.denominator for x in row] for row in e.rows])
        return np.linalg.qr(rows.T, mode="complete")[0][:, len(e.pivots):]

    @cached_property
    def _rows(self) -> _Rows:
        """What the face method and the certificate of its multipliers read of
        this problem, derived once from ``_face_rows``: the face V (the
        identity without one), the unit svec rows A that one pass over the
        rows keeps (``_independent_rows``) and their right-hand sides b,
        every row's norm on the face (0 for a zero row), the kept indices
        with the inverse Cholesky factor L^-1 of their Gram block, and the
        trace T = u'b that the rows fix with the least-squares row weights
        u = L^-T L^-1 A svec(I).  Raises ``_InconsistentSystem`` where the
        rows conflict, then ValueError unless A'u = svec(I) and T > 0.  Its
        arrays but V are read-only."""
        V, rows, rhs, norms = _face_rows(self)
        keep, L_inv = _independent_rows(rows, rhs)
        A, b = rows[keep], rhs[keep]
        r = V.shape[1]
        ia, ib, _ = _svec_index(r)
        target = (ia == ib).astype(float)  # svec(I)
        weights = L_inv.T @ (L_inv @ (A @ target))
        T = float(weights @ b)
        if np.linalg.norm(A.T @ weights - target) > 1e-8 * (1.0 + math.sqrt(r)) or not T > 0.0:
            raise ValueError("solve_sdp needs a fixed diagonal or constraint rows that fix "
                             "the trace of X at a positive value")
        for array in (A, b, norms, keep, L_inv, weights):
            array.setflags(write=False)
        return _Rows(V, A, b, norms, keep, L_inv, T, weights)


@dataclass
class SdpSolution:
    X: np.ndarray
    objective: float
    # the returned X's distance to the PSD cone (and to the orthant, for
    # Cone.PSD_NONNEG) once moved onto its rows; for a diagonal solve without
    # a face, its diagonal's distance from the fixed one (inf for conflicting rows)
    primal_residual: float
    # the final duality gap, primal minus dual objective, not a residual; the
    # benchmark reads it under this name until ROADMAP item 10
    dual_residual: float
    iterations: int
    status: SolveStatus
    message: str = ""
    # always 0: no solver has a penalty parameter; the benchmark still reads
    # it, until ROADMAP item 10 drops it
    sigma: float = field(default=0.0, repr=False)
    # multipliers in the problem's sense, one per fixed diagonal entry or one
    # per row of ``A`` in order, 0 for a dropped dependent row.  With
    # A*(y) = Diag(y) or sum_k y_k A_k, C - A*(y) - W is PSD on the face for
    # Min, and A*(y) + W - C for Max
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


@lru_cache(maxsize=64)
def _svec_basis(r: int) -> np.ndarray:
    """The svec basis of r x r symmetric matrices, one flattened matrix a row.

    Row k holds 1 at (a, a) for a diagonal coordinate and 1/sqrt(2) at
    (a, b) and (b, a) otherwise, so the rows are orthonormal, smat(u) =
    (u @ basis).reshape(r, r) and svec(M) = basis @ M.ravel() for symmetric
    M.  Shared by every caller, so read-only.
    """
    a, b, s = _svec_index(r)
    basis = np.zeros((len(s), r, r))
    k = np.arange(len(s))
    basis[k, a, b] = basis[k, b, a] = 1.0 / s
    basis = basis.reshape(len(s), r * r)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=64)
def _newton_index(r: int) -> np.ndarray:
    """Flat indices into an N x N matrix over svec coordinates (N = r(r+1)/2)
    that assemble a symmetrized Kronecker block, shape (2, N, N).

    With k = (a, b) and l = (c, e) and pos(i, j) the svec coordinate of
    {i, j}, the block of Om is (Om[pos(a, c), pos(b, e)] + Om[pos(a, e),
    pos(b, c)]) * s_k s_l / 2.  For Om = svec'(P) svec'(P) (P's entries
    unscaled) that is P (x)s P in svec coordinates.  Read-only.
    """
    a, b, _ = _svec_index(r)
    n = len(a)
    pos = np.zeros((r, r), dtype=np.intp)
    pos[a, b] = pos[b, a] = np.arange(n)
    a, b = a[:, None], b[:, None]
    index = np.array([pos[a, a.T] * n + pos[b, b.T], pos[a, b.T] * n + pos[b, a.T]])
    index.setflags(write=False)
    return index


def _face_rows(p: SdpProblem):
    """The rows of ``p.A`` on the face of ``p``, in the svec coordinates of R.

    Every row becomes svec(V' A V) for X = V R V' (V the identity without a
    face), divided by its norm, and its right-hand side is divided alike.
    A row that the face shrinks below 1e-9 of its norm in X (such as
    X_ii = x_i for a variable the face pins to 0) is set to zero, not blown
    up from round-off.
    Returns V, the rows, right-hand sides and norms (0 for a zero row).
    """
    V = np.eye(p.dim) if p._basis is None else p._basis
    a, b, s = _svec_index(V.shape[1])
    rows = (V.T @ p.A @ V)[:, a, b] * s
    norms = np.linalg.norm(rows, axis=1)
    norms[norms <= 1e-9 * np.linalg.norm(p.A, axis=(1, 2))] = 0.0
    rows[norms == 0.0] = 0.0
    scale = np.where(norms > 0.0, norms, 1.0)
    return V, rows / scale[:, None], p.b / scale, norms


def certified_diag_bound(p: SdpProblem, y: np.ndarray, W: np.ndarray | None = None) -> float:
    """Bound on the optimum of a fixed-trace SDP, certified by any multipliers.

    ``y`` holds the multipliers in the problem's sense, one per diagonal
    entry or one per row of ``p.A``, and ``W`` the orthant's
    (``SdpSolution.y`` and ``SdpSolution.W``).  With A*(y) = Diag(y) and
    T = sum(diag) for a fixed diagonal, or A*(y) = sum_k y_k A_k and T the
    trace the rows fix, every feasible X has trace T and is V R V' with
    tr R = T on the face V.  So for Min

        <C, X> = b'y + <W, X> + <V'(C - A*(y) - W)V, R>
               >= b'y + T * min(0, lambda_min(V'(C - A*(y) - W)V)),

    the bounded-trace safe bound of Jansson, Chaykin & Keil (SIAM J. Numer.
    Anal. 46, 2007), where only the nonnegative part of W enters, as
    <W, X> >= 0 for W, X >= 0 (the doubly-nonnegative cone; W is ignored
    on the PSD cone).  Max mirrors it with A*(y) + W - C and the
    nonpositive part of W.  The result is a true bound for any y and W,
    however rough the solve; it is additionally clamped against the
    spectral bound T * lambda_extreme(V'CV), which is valid on its own.
    The rows' trace comes from the independent rows
    (``SdpProblem._rows``): ValueError where they fix none or conflict.
    ValueError too unless y is a finite vector with one entry per diagonal
    entry or row, and W, where given, a finite d x d matrix.
    """
    y = np.asarray(y, dtype=float)
    m = p.dim if p.diag is not None else len(p.b)
    if y.shape != (m,) or not np.isfinite(y).all():
        raise ValueError(f"y must be a finite vector of length {m}")
    if W is not None:
        W = np.asarray(W, dtype=float)
        if W.shape != (p.dim, p.dim) or not np.isfinite(W).all():
            raise ValueError(f"W must be a finite {p.dim}x{p.dim} matrix")
    if p.diag is None:
        T, rhs, A_y = p._rows.T, p.b, np.tensordot(y, p.A, axes=1)
    else:
        T, rhs, A_y = p.diag.sum(), p.diag, np.diag(y)
    if W is not None and p.cone == Cone.PSD_NONNEG:
        A_y = A_y + (np.maximum(W, 0.0) if p.sense == Sense.MIN else np.minimum(W, 0.0))
    value = (rhs * y).sum()
    pair = np.array([p.C, A_y - p.C if p.sense == Sense.MAX else p.C - A_y])
    if p._basis is not None:
        pair = p._basis.T @ pair @ p._basis
    spectrum, slack = np.linalg.eigvalsh(pair)
    low = float(slack[0])
    if p.sense == Sense.MAX:
        return min(float(value - T * min(0.0, low)), T * float(spectrum[-1]))
    return max(float(value + T * min(0.0, low)), T * float(spectrum[0]))


def _solution(p: SdpProblem, X: np.ndarray, status: SolveStatus, **fields) -> SdpSolution:
    """The SdpSolution of a solve of ``p`` that ends at X with ``status`` and
    the other ``fields``: its objective is <C, X>, or +inf for Min and -inf
    for Max where the solve proved the rows infeasible (Diverged)."""
    infinite = np.inf if p.sense == Sense.MIN else -np.inf
    objective = infinite if status == SolveStatus.DIVERGED else float(np.vdot(p.C, X))
    return SdpSolution(X=X, objective=objective, status=status, **fields)


class _InconsistentSystem(ValueError):
    """Dependent rows with conflicting right-hand sides: no X meets them."""


def _kept_diagonal(e: integer.Echelon, a: np.ndarray):
    """The diagonal rows X_ii = a_i kept on the face of K's echelon form
    ``e``, the first independent ones in order, and the d x len(keep) matrix E
    of every row's exact combination of them, so that A*(y) = A*_kept(y @ E).
    The rows depend as the n_i n_i' of K's null-space basis N (N[free] = I)
    do: the free rows e_f e_f' are independent, and a pivot row depends on the
    rest exactly when its off-diagonal part does on those of the other pivot
    rows u_q of D N, as their integer Gram matrix (u_p . u_q)^2 -
    sum_f u_pf^2 u_qf^2 shows.  A right-hand side that is not the same
    combination of the others, read as a rational, raises
    ``_InconsistentSystem``."""
    u = [[row[f] for f in e.free] for row in e.rows]
    g = integer.echelon([[sum(x * y for x, y in zip(p, q)) ** 2
                          - sum((x * y) ** 2 for x, y in zip(p, q)) for q in u] for p in u], len(u))
    drops = {}  # a dropped row's combination of the kept rows
    for j in g.free:  # the pivot row e.pivots[j] depends on the kept rows
        c = {q: Fraction(row[j], g.denominator) for q, row in zip(g.pivots, g.rows)}
        w = drops[e.pivots[j]] = {e.pivots[q]: c_q for q, c_q in c.items()}
        w.update((f, Fraction(u[j][i] ** 2 - sum(c_q * u[q][i] ** 2 for q, c_q in c.items()),
                              e.denominator**2)) for i, f in enumerate(e.free))
        if sum(x * Fraction(a[k]) for k, x in w.items()) != a[e.pivots[j]]:
            raise _InconsistentSystem(
                "constraint rows are linearly dependent with conflicting right-hand sides")
    for i in range(len(a)):
        later = [k for k, x in drops.get(i, {}).items() if x and k > i]
        if later:  # row i is independent of the rows before it: it takes row j's place
            w, j = drops.pop(i), max(later)
            wj = {k: -x / w[j] for k, x in w.items() if k != j} | {i: 1 / w[j]}
            for v in drops.values():
                c = v.pop(j, 0)
                v.update((k, v.get(k, 0) + c * x) for k, x in wj.items() if c)
            drops[j] = wj
    keep = [k for k in range(len(a)) if k not in drops]
    at, E = {k: i for i, k in enumerate(keep)}, np.eye(len(a))[:, keep]
    for p, w in drops.items():
        E[p, [at[k] for k in w]] = [float(x) for x in w.values()]
    return np.array(keep, dtype=np.intp), E


def _independent_rows(rows: np.ndarray, rhs: np.ndarray):
    """Indices of the rows, unit or zero, that do not depend on the rows kept
    ahead of them, and the inverse L^-1 of the kept rows' Cholesky factor.

    One pass orthogonalizes each row twice against the orthonormal rows
    Q = L^-1 rows_K kept so far, row = l'Q + rest, which is exact to
    round-off ("twice is enough": Giraud, Langou & Rozloznik, Comput.
    Math. Appl. 50, 2005).  A row with |rest|^2 at most 1e-12 is dropped;
    if its right-hand side misses that of its combination of the kept rows,
    l'x with x = L^-1 rhs_K, by more than 1e-9 (1 + |rhs|), no X meets the
    rows and ``_InconsistentSystem`` is raised.  A kept row adds
    rest / |rest| to Q and borders L^-1 with (-l'L^-1, 1) / |rest|.
    """
    keep, k = np.zeros(len(rows), dtype=np.intp), 0
    slack = 1e-9 * (1.0 + np.linalg.norm(rhs))
    Q, L_inv, x = np.zeros(rows.shape), np.zeros((len(rows),) * 2), np.zeros(len(rows))
    for i, row in enumerate(rows):
        l, rest = np.zeros(k), row
        for _ in range(2):
            h = Q[:k] @ rest
            l, rest = l + h, rest - h @ Q[:k]
        s = rest @ rest
        if s <= 1e-12:
            if abs(rhs[i] - l @ x[:k]) > slack:
                raise _InconsistentSystem(
                    "constraint rows are linearly dependent with conflicting right-hand sides")
            continue
        norm = math.sqrt(s)
        Q[k] = rest / norm
        L_inv[k, :k], L_inv[k, k] = -(l @ L_inv[:k, :k]) / norm, 1.0 / norm
        x[k] = (rhs[i] - l @ x[:k]) / norm
        keep[k], k = i, k + 1
    return keep[:k], L_inv[:k, :k]


def _step_to(low: float) -> float:
    """0.95 of the largest step a keeping 1 + a low positive, capped at 1."""
    return 1.0 if low >= -0.95 else -0.95 / low


def _schur_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs, or a least-squares solution when M is singular."""
    try:
        return _solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


_TRI_BLOCK = 24  # triangular blocks of at most this many rows go to _inv


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, or of each matrix of a stack [..., d, d].

    Blocked inversion (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 14.2; LAPACK trtri): split at d/2 into
    L = [[A, 0], [B, C]], whose inverse is [[A^-1, 0], [-C^-1 B A^-1, C^-1]],
    with A and C inverted the same way.  Blocks of at most ``_TRI_BLOCK``
    rows go to ``_inv``, np.linalg.inv's gufunc, as they are, so a small L
    gets exactly np.linalg.inv's result.  A large one costs about 2d^3/3
    flops, nearly all in matrix products, against 8d^3/3 for the LU inverse
    of the whole of L.
    """
    d = L.shape[-1]
    if d <= _TRI_BLOCK:
        return _inv(L)
    h = d // 2
    A_inv = _tri_inv(L[..., :h, :h])
    C_inv = _tri_inv(L[..., h:, h:])
    out = np.zeros_like(L)
    out[..., :h, :h] = A_inv
    out[..., h:, h:] = C_inv
    out[..., h:, :h] = -(C_inv @ L[..., h:, :h] @ A_inv)
    return out


def _solve_diag_ipm(p: SdpProblem, cfg: SolverConfig) -> SdpSolution:
    """Primal-dual interior-point method for a fixed diagonal, on an optional face.

    Solves min <C, X> s.t. diag(X) = a, X = V R V' with R PSD, where V is the
    basis of the problem's face (``SdpProblem._basis``) or the identity.  The dual is max a'y s.t.
    Z = C_V - A*(y) PSD, with C_V = V'CV and A*(y) = V' Diag(y) V.  Each
    iteration takes the infeasible-start HKM search direction of Helmberg,
    Rendl, Vanderbei & Wolkowicz (SIAM J. Optim. 6, 1996) with Mehrotra's
    second-order correction (SIAM J. Optim. 2, 1992).  One Cholesky
    factorization of the stack [R, Z] gives L_R and L_Z, one blocked
    triangular inverse (``_tri_inv``; ``_inv`` on blocks of at most
    ``_TRI_BLOCK`` rows) gives L_R^-1 and L_Z^-1, and Z^-1 = L_Z^-T L_Z^-1.
    The Schur matrix M = (V R V') o (V Z^-1 V') is solved twice.  The
    affine predictor solves M dy_a = a, with dR_a = sym(-R + R A*(dy_a) Z^-1).
    With mu = sigma <X, Z> / r, the corrector solves
    M dy = a - mu diag(V Z^-1 V') - diag(V dR_a A*(dy_a) Z^-1 V'); then
    dR = sym(mu Z^-1 - R + R A*(dy) Z^-1 + dR_a A*(dy_a) Z^-1) and
    dZ = -A*(dy).  sigma starts at 0.1 and is then 1 - min(step_p, step_d)
    of the last step, clipped to [0.05, 0.5], so short steps center more.
    M turns singular as R nears a low-rank optimum on a face; once solve
    fails, a least-squares solution stands in.  One eigvalsh of the stack
    [L_R^-1 dR L_R^-T, L_Z^-1 dZ L_Z^-T] gives each side's most negative
    eigenvalue, and the side moves 0.95 of the way to the boundary of the
    PSD cone that it marks, at most a full step.  R starts at V' Diag(a) V
    and y at a diagonally dominant point, so Z is positive definite by
    congruence, and it stays strictly dual feasible throughout.  Without a
    face X meets the diagonal from the start; on a face only in the limit,
    and the residual a - diag(V R V') enters <X, Z> and the stopping test.
    On a face the rows X_ii = <V_i' V_i, R>, for V's rows V_i, are decided
    from K's echelon form, never formed (``_kept_diagonal``): a dependent
    one (X_22 when x_1 + x_2 = 0) is dropped.  V and a are cut to the kept
    rows once, the rows' exact combinations of them carry y over with Z
    unchanged, and the returned y has 0 at each dropped row.  The returned
    X is the last iterate moved onto the kept diagonal, R + V' Diag((P o
    P)^-1 (a - diag(V R V'))) V with P = V V', P o P solved as M is, and
    ``primal_residual`` is its distance to the PSD cone.  A dual objective
    above sum_ij |C_ij| sqrt(a_i a_j), which bounds <C, X> for every
    feasible X, proves the problem infeasible and ends the solve as
    Diverged.  As Z stays positive definite, a'y is a certified bound at
    every iterate.  The loop runs under one ``_raising`` errstate and calls
    LAPACK through the seam only: a factorization that fails, or an invalid
    value anywhere in a step, ends the solve at the last iterate with the
    step's error as its message.  a > 0 holds by construction (``SdpProblem``).
    """
    d = p.dim
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    C = sign * p.C
    a = p.diag
    V = p._basis
    root = np.sqrt(a)
    bound = float(root @ np.abs(C) @ root)
    res_tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + float(np.linalg.norm(a)))
    off = np.abs(C).sum(axis=1) - np.abs(C.diagonal())
    y = C.diagonal() - off - 1.0  # C - Diag(y) is diagonally dominant
    if V is not None:
        keep, E = _kept_diagonal(p._echelon, a)  # from here on the kept rows alone
        C, y, V, a = V.T @ C @ V, y @ E, V[keep], a[keep]

    def adjoint(v):  # A*(v) = V' Diag(v) V
        return np.diag(v) if V is None else (V.T * v) @ V

    r = len(C)
    R = adjoint(a)
    RZ = np.array([R, C])  # [R, Z]: one Cholesky factorization and inverse for both
    Z_diag = RZ[1].reshape(-1)[:: r + 1]  # without a face only Z's diagonal moves
    sigma = 0.1  # the centering; then set by the last step lengths
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    with _raising():  # one errstate for the whole loop
        while True:
            RV = R if V is None else R @ V.T  # R V'
            X = RV if V is None else V @ RV
            primal = float(C.ravel() @ R.ravel())
            dual = float(a @ y)
            gap = primal - dual
            xz, res_norm = gap, 0.0  # without a face X keeps its diagonal from the start
            if V is not None:
                residual = a - X.diagonal()
                xz, res_norm = gap + float(y @ residual), _fro(residual)  # <X, Z>
            tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + abs(primal))
            if gap <= tol and xz <= tol and res_norm <= res_tol:
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
                RZ[0] = R
                if V is None:
                    np.subtract(C.diagonal(), y, out=Z_diag)
                else:
                    RZ[1] = C - adjoint(y)
                # inverse Cholesky factors of R and Z; LinAlgError unless both are PD
                L_inv = _tri_inv(_cholesky(RZ))
                Z_inv = L_inv[1].T @ L_inv[1]
                VZ = Z_inv if V is None else V @ Z_inv  # V Z^-1
                Z_lift = VZ if V is None else VZ @ V.T
                M = X * Z_lift  # the Schur matrix
                dy_a = _schur_solve(M, a)  # the affine predictor
                dR_a = (RV * dy_a) @ VZ - R
                dR_a = (dR_a + dR_a.T) / 2.0
                dR_aV = dR_a if V is None else dR_a @ V.T  # dR_a V'
                lifted = dR_aV if V is None else V @ dR_aV  # V dR_a V'
                mu = sigma * xz / r
                dy = _schur_solve(M, a - mu * Z_lift.diagonal() - (lifted * Z_lift) @ dy_a)
                dR = mu * Z_inv - R + (RV * dy + dR_aV * dy_a) @ VZ  # + dR_a A*(dy_a) Z^-1
                dR = (dR + dR.T) / 2.0
                # the most negative eigenvalue of L^-1 dM L^-T limits each side's step;
                # without a face L_Z^-1 dZ = -L_Z^-1 Diag(dy) scales columns
                L_dZ = L_inv[1] * -dy if V is None else L_inv[1] @ -adjoint(dy)
                scaled = np.array([L_inv[0] @ dR, L_dZ]) @ L_inv.transpose(0, 2, 1)
                low = _eigvalsh(scaled)[:, 0]
                step_p, step_d = _step_to(float(low[0])), _step_to(float(low[1]))
                R, y = R + step_p * dR, y + step_d * dy
            except np.linalg.LinAlgError as exc:
                message = f"interior-point step failed after {it} iterations: {exc}"
                break
            sigma = min(max(1.0 - min(step_p, step_d), 0.05), 0.5)
            it += 1
        if V is not None:  # onto the kept diagonal
            R = R + adjoint(_schur_solve((V @ V.T) ** 2, residual))

    if V is None:
        primal_residual = _fro(a - X.diagonal())
    else:
        primal_residual = _fro(R - project_psd(R))
        X = p._basis @ R @ p._basis.T
        y = np.eye(d)[:, keep] @ y  # a dropped row's multiplier is 0
    return _solution(p, X, status, primal_residual=primal_residual, dual_residual=gap,
                     iterations=it, message=message, y=sign * y)


def _solve_face_ipm(p: SdpProblem, cfg: SolverConfig) -> SdpSolution:
    """Primal-dual interior-point method over the face X = V R V'.

    Works in the svec coordinates of R, r(r+1)/2 of them, which one cached
    basis matrix maps to and from r x r matrices (``_svec_basis``).  The
    kept rows of the record ``SdpProblem._rows`` read A rho = b.  For
    the doubly-nonnegative cone, G rho = v >= 0 collects the entries X_ij,
    i <= j, that the rows do not pin to zero.  An entry is pinned when its
    row G_ij is a combination of the rows with right-hand side 0, such as
    x_i z_i when x_i + z_i = 1; kept, it would leave the orthant without an
    interior point.  The dual is max b'y s.t. Z = C - A'y - G'w PSD, w >= 0.
    The iterate is two stacked vectors, x = (rho, v) and u = (y, w), over
    the stacked rows B = [A; G]: one product B rho gives both primal
    residuals, b - A rho and v - G rho, one product B'u gives Z, and one
    update moves each side.

    Each iteration is a Mehrotra predictor-corrector step in the
    Nesterov-Todd scaling (Todd, Toh & Tutuncu, SIAM J. Optim. 8, 1998).
    One Newton matrix, [[W^-1 (x)s W^-1 + G' Diag(w/v) G, A'], [A, 0]] with
    the scaling point W (W Z W = R), serves both the affine step, which sets
    the centering (mu_affine / mu)^3, and the corrector.  Both terms of H
    are symmetrized Kronecker products, so one gather (``_newton_index``)
    of one N x N matrix gives H: Om = p p' + Y' E Y, with p the entries
    P_ab, a <= b, of P = W^-1, row i of Y (d x N) those of V_i' V_i for
    V's row V_i, and E the symmetric d x d matrix that puts w/v on the
    orthant entries, half on each of E_ij and E_ji off the diagonal.  Each
    side moves 0.95 of the way to the boundary of its cones, at most a full
    step.
    R starts at (T/r) I, where T is the trace the rows fix, v at T/d, w at
    1 + max|C_ij|, and y at the multiple of the row weights that sum to the
    identity which puts lambda_min(Z) there too.  Z is recomputed from y and
    w after every step, so it stays strictly dual feasible, and
    b'y + T * min(0, lambda_min(Z)) is a certified bound at every iterate.
    Once b'y passes T * lambda_max(V'CV), which bounds <C, X> over the face,
    that recomputed certificate decides whether the rows are infeasible
    (Diverged).  Converged needs the gap, <R, Z> + v'w and the row and
    orthant residuals under tolerance.  The returned X is V R V' with R
    moved onto the rows by the least-norm correction Q'L^-1 (b - A rho),
    where Q = L^-1 A with the record's factor; ``primal_residual``
    is the norm of R's distance to the PSD cone and of X's negative orthant
    entries.  The loop runs under one ``_raising`` errstate and calls LAPACK
    through the seam only: a factorization that fails, an L'ZL without a
    positive spectrum, or an invalid value anywhere in a step ends the solve
    at the last iterate with the step's error as its message.
    """
    d = p.dim
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    V, A, b, norms, keep, L_inv, T, weights = p._rows
    r = V.shape[1]
    ia, ib, s = _svec_index(r)
    basis = _svec_basis(r)
    N = len(s)
    m = len(b)
    C = sign * (p.C if p._basis is None else V.T @ p.C @ V)
    c = basis @ C.ravel()
    bound = T * float(np.linalg.eigvalsh(C)[-1])
    res_tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + float(np.linalg.norm(b)))

    pi, pj = _svec_index(d)[:2] if p.cone == Cone.PSD_NONNEG else (np.zeros(0, int),) * 2
    Va, Vb = V[:, ia], V[:, ib]
    G = (Va[pi] * Vb[pj] + Vb[pi] * Va[pj]) * (s / 2.0)  # X_ij = G_ij rho
    Q = L_inv @ A  # orthonormal rows that span A's
    along = G @ Q.T
    outside = np.linalg.norm(G - along @ Q, axis=1)  # explicit: |G|^2 - |along|^2 cancels
    pinned_to = along @ (L_inv @ b)
    free = (outside > 1e-9) | (np.abs(pinned_to) > 1e-9)
    pi, pj, G = pi[free], pj[free], G[free]
    q = len(G)
    B = np.concatenate([A, G])  # A rho = b and G rho = v, stacked

    K = np.zeros((N + m, N + m))  # the Newton matrix [[H, A'], [A, 0]]; H changes
    K[:N, N:] = A.T
    K[N:, :N] = A
    H = K[:N, :N]
    kkt = np.empty(N + m)  # its right-hand side; the rows' residual is shared
    gather = _newton_index(r)
    half_ss = np.outer(s, s / 2.0)
    # Om = Y_p' E_p Y_p with Y_p = [Y; p'] and E_p = [[E, 0], [0, 1]]
    Y_p = np.concatenate([Va * Vb, np.zeros((1, N))])  # row i: V_ia V_ib, a <= b
    E_p = np.zeros((d + 1, d + 1))
    E_p[d, d] = 1.0
    upper, lower = pi * (d + 1) + pj, pj * (d + 1) + pi  # E_ij and E_ji in E_p.ravel()
    halves = np.where(pi == pj, 1.0, 0.5)
    entries = ia * r + ib  # P_ab, a <= b, in P.ravel()

    eta = 1.0 + float(np.abs(C).max())
    x = np.concatenate([(T / r) * (ia == ib), np.full(q, T / d)])  # (rho, v)
    u = np.concatenate([np.zeros(m), np.full(q, eta)])  # (y, w)
    u[:m] = (float(np.linalg.eigvalsh(((c - u @ B) @ basis).reshape(r, r))[0]) - eta) * weights
    rho, v = x[:N], x[N:]
    y, w = u[:m], u[m:]
    b_0 = np.concatenate([b, np.zeros(q)])

    def multipliers():  # y and W in the problem's sense and rows
        y_rows = np.zeros(len(norms))  # dropped rows keep multiplier 0
        y_rows[keep] = y / norms[keep]
        if p.cone != Cone.PSD_NONNEG:
            return sign * y_rows, None
        W = np.zeros((d, d))
        W[pi, pj] += w / 2.0
        W[pj, pi] += w / 2.0
        return sign * y_rows, sign * W

    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    with _raising():  # one errstate for the whole loop
        while True:
            slack = np.concatenate([c - u @ B, w])  # (z, w), paired with x = (rho, v)
            z = slack[:N]
            primal = float(c @ rho)
            dual = float(b @ y)
            gap = primal - dual
            residual = b_0 - B @ rho  # (b - A rho, v - G rho)
            residual[m:] += v
            comp = float(x @ slack)  # <R, Z> + v'w
            tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + abs(primal))
            if gap <= tol and comp <= tol and _fro(residual) <= res_tol:
                status = SolveStatus.CONVERGED
                break
            Z = (z @ basis).reshape(r, r)
            if dual > bound + tol:
                certified = dual + T * min(0.0, float(_eigvalsh(Z)[0]))
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
                L = _cholesky((rho @ basis).reshape(r, r))
                lam, U = _eigh(L.T @ Z @ L)
                if not lam[0] > 0.0:
                    raise np.linalg.LinAlgError("Z is not positive definite")
                l = np.sqrt(lam)
                root = np.sqrt(l)
                S = L @ (U / root)
                F = Z @ S / l  # S^-T, as S' Z S = Diag(l)
                scalings = np.array([F, S])
                D = w / v
                # H = W^-1 (x)s W^-1 + G' Diag(w/v) G, in svec coordinates
                np.take(F @ F.T, entries, out=Y_p[d])
                E_p.flat[upper] = E_p.flat[lower] = D * halves
                Om = (Y_p.T @ (E_p @ Y_p)).take(gather)
                np.multiply(Om[0] + Om[1], half_ss, out=H)
                pair = 2.0 / (l[:, None] + l[None, :])
                unit = 1.0 / np.outer(root, root)  # scales Diag(l) to I
                r_g = residual[m:]
                shifted = D * r_g
                kkt[N:] = residual[:m]

                def direction(r_c, t):
                    # Newton step for Diag(l) o (S^-1 dR S^-T + S' dZ S) = target
                    # (o the symmetrized product), given as r_c = svec(S^-T E S^-1)
                    # for the E with Diag(l) o E = target, and for w dv + v dw = t;
                    # returns dx = (d_rho, dv), du = (dy, dw) and (dZ, dw)
                    t_v = t / v
                    pulled = (t_v + shifted) @ G
                    np.add(r_c, pulled, out=kkt[:N])
                    step = _solve(K, kkt)
                    d_rho = step[:N]
                    dx = np.concatenate([d_rho, G @ d_rho - r_g])
                    dv = dx[N:]
                    du = np.concatenate([-step[N:], t_v - D * dv])
                    d_slack = np.concatenate([-(du @ B), du[m:]])
                    # S^-1 dR S^-T and S' dZ S, whose eigenvalues against Diag(l)
                    # limit the steps
                    scaled = scalings.transpose(0, 2, 1) @ (
                        np.array([d_rho, d_slack[:N]]) @ basis).reshape(2, r, r) @ scalings
                    low = _eigvalsh(scaled * unit)[:, 0]
                    return (dx, du, d_slack, scaled[0], scaled[1],
                            _step_to(min(low[0], (dv / v).min(initial=0.0))),
                            _step_to(min(low[1], (du[m:] / w).min(initial=0.0))))

                # the affine step (target -Diag(l)^2, so r_c = -Z) sets the
                # centering; its second-order term enters the corrector
                mu = comp / (r + q)
                dx, _, d_slack, scaled_r, scaled_z, step_p, step_d = direction(-z, -v * w)
                mu_aff = (comp + step_p * float(dx @ slack) + step_d * float(x @ d_slack)
                          + step_p * step_d * float(dx @ d_slack)) / (r + q)
                centering = min(1.0, (max(mu_aff, 0.0) / mu) ** 3) * mu
                target = (scaled_r @ scaled_z + scaled_z @ scaled_r) / -2.0
                target.flat[:: r + 1] += centering - lam
                r_c = F @ (target * pair) @ F.T
                dx, du, _, _, _, step_p, step_d = direction(
                    basis @ r_c.ravel(), centering - v * w - dx[N:] * d_slack[N:])
                x += step_p * dx
                u += step_d * du
            except np.linalg.LinAlgError as exc:
                message = f"interior-point step failed after {it} iterations: {exc}"
                break
            it += 1

    R = ((rho + (L_inv @ (b - A @ rho)) @ Q) @ basis).reshape(r, r)  # moved onto the rows
    X = R if p._basis is None else V @ R @ V.T
    y_rows, W = multipliers()
    distance = math.hypot(_fro(R - project_psd(R)), _fro(np.minimum(X[pi, pj], 0.0)))
    return _solution(p, X, status, primal_residual=distance, dual_residual=gap,
                     iterations=it, message=message, y=y_rows, W=W)


def solve_sdp(p: SdpProblem, cfg: SolverConfig = SolverConfig()) -> SdpSolution:
    """Solve the SDP with one of two primal-dual interior-point methods.

    A fixed diagonal, with or without a face, goes to ``_solve_diag_ipm``;
    rows, which must fix the trace of X (ValueError otherwise), go to
    ``_solve_face_ipm``.  ``max_iter`` counts interior-point iterations.
    Both methods keep Z positive definite, so the multipliers of every
    solve, at any iteration budget, certify a bound
    (``certified_diag_bound``).  Dependent rows with conflicting right-hand
    sides are reported as Diverged up front.
    """
    try:
        return _solve_face_ipm(p, cfg) if p.diag is None else _solve_diag_ipm(p, cfg)
    except _InconsistentSystem as exc:
        return _solution(p, np.zeros((p.dim, p.dim)), SolveStatus.DIVERGED,
                         primal_residual=np.inf, dual_residual=np.inf, iterations=0,
                         message=f"infeasible constraint system: {exc}")
