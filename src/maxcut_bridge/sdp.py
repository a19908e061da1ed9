"""First-order (ADMM) solver for small dense semidefinite programs.

Solves min/max <C, X> subject to a fixed diagonal X_ii = diag_i and trace
constraints <A_i, X> = b_i, with X in the positive-semidefinite cone,
optionally intersected with the entrywise nonnegative cone.  The fixed
diagonal is stated as data rather than as d matrices E_ii, so the
unit-diagonal family (MAX-CUT and the moment relaxations of the penalty
bound) projects onto its affine set in closed form.  The splitting keeps one
variable exactly affine-feasible and one exactly cone-feasible; at
convergence they agree to tolerance and the affine-feasible iterate is
returned.  Everything is deterministic: the same problem and config always
produce the same iteration path.
"""

from dataclasses import dataclass, field
from enum import Enum

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


def project_psd(S: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive-semidefinite matrix: clip negative eigenvalues."""
    S = (S + S.T) / 2.0
    w, V = np.linalg.eigh(S)
    if w[0] >= 0.0:
        return S
    w = np.maximum(w, 0.0)
    P = (V * w) @ V.T
    return (P + P.T) / 2.0


def project_psd_nonneg(S: np.ndarray, tol: float = 1e-9, max_inner: int = 50) -> np.ndarray:
    """Dykstra alternation between the PSD cone and the nonnegative orthant.

    Alternates the two exact projections with Dykstra correction terms until
    successive iterates agree within ``tol`` (Frobenius), so the result lies in
    the intersection up to that tolerance.
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


def certified_diag_bound(C: np.ndarray, X: np.ndarray, sense: Sense) -> float:
    """Dual-feasible bound on a unit-diagonal SDP extremum.

    Any y with Diag(y) - C PSD certifies e'y >= max <C, X> over all PSD X
    with unit diagonal, so start from the complementarity guess
    y_i = (C X)_ii and repair it by shifting every entry with the most
    negative eigenvalue of Diag(y) - C.  The min sense mirrors the argument.
    The result is a true outer bound for any X, however rough the solve; it
    is additionally clamped against the trivial spectral bound
    d * lambda_extreme(C), which is valid on its own.
    """
    C = np.asarray(C, dtype=float)
    X = np.asarray(X, dtype=float)
    d = C.shape[0]
    y = np.einsum("ij,ji->i", C, X)
    spectrum = np.linalg.eigvalsh(C)
    if sense == Sense.MAX:
        shift = max(0.0, -float(np.linalg.eigvalsh(np.diag(y) - C)[0]))
        return min(float(y.sum() + d * shift), d * float(spectrum[-1]))
    shift = max(0.0, -float(np.linalg.eigvalsh(C - np.diag(y))[0]))
    return max(float(y.sum() - d * shift), d * float(spectrum[0]))


class _AffineProjector:
    """Projection onto {X symmetric : X_ii = diag_i, <A_i, X> = b_i}.

    When the problem's ``diag`` is its only constraint (the unit-diagonal SDP
    family) the projection is closed form: overwrite the diagonal.  Otherwise
    the diagonal rows come first, as E_ii, ahead of the normalized constraint
    rows, and the projection uses a cached eigendecomposition of the row Gram
    matrix, with redundant rows handled by a pseudo-inverse.
    """

    def __init__(self, diag, constraints, d: int):
        self.d = d
        mats = []
        rhs = []
        for A, b in constraints:
            nrm = np.linalg.norm(A)
            if nrm == 0.0:
                if abs(b) > 1e-12:
                    raise _InconsistentSystem(f"zero constraint matrix with rhs {b}")
                continue
            mats.append(A.reshape(-1) / nrm)
            rhs.append(b / nrm)
        self.diag = diag if not mats else None
        if self.diag is not None:
            self.rhs = diag
            return
        if diag is not None:
            E = np.zeros((d, d * d))
            E[np.arange(d), np.arange(d) * (d + 1)] = 1.0
            mats = list(E) + mats
            rhs = list(diag) + rhs
        self.rhs = np.array(rhs, dtype=float)
        self.m = len(mats)
        if self.m > 0:
            flat = np.stack(mats)
            G = flat @ flat.T
            w, V = np.linalg.eigh(G)
            w_max = max(w[-1], 1.0)
            keep = w > 1e-12 * w_max
            self._flat = flat
            self._V = V[:, keep]
            self._w_inv = 1.0 / w[keep]
            # Consistency: b must lie in the range of the Gram matrix.
            proj_b = self._V @ (self._V.T @ self.rhs)
            if np.linalg.norm(proj_b - self.rhs) > 1e-9 * (1.0 + np.linalg.norm(self.rhs)):
                raise _InconsistentSystem(
                    "constraint rows are linearly dependent with conflicting right-hand sides"
                )

    def __call__(self, S: np.ndarray) -> np.ndarray:
        if self.diag is not None:
            out = S.copy()
            np.fill_diagonal(out, self.diag)
            return out
        if self.m == 0:
            return S
        r = self._flat @ S.reshape(-1) - self.rhs
        lam = self._V @ (self._w_inv * (self._V.T @ r))
        out = S - (lam @ self._flat).reshape(self.d, self.d)
        return (out + out.T) / 2.0


class _InconsistentSystem(Exception):
    pass


_CHECK_EVERY = 100        # residual-balancing cadence for the penalty parameter
_STABLE_ITERS = 100       # consecutive sub-threshold iterations required to converge
_STALL_SAMPLE = 200       # sampling cadence of the stall (infeasibility) detector
_STALL_WINDOW = 10        # samples that must agree before declaring a stall


def solve_sdp(p: SdpProblem, cfg: SolverConfig = SolverConfig()) -> SdpSolution:
    """Run ADMM on the split  min <C,X> + i_affine(X) + i_cone(Z)  s.t. X = Z.

    X-updates project onto the affine set (the fixed diagonal and the trace
    constraints), Z-updates onto the cone, and the scaled dual U accumulates
    the gap.  Convergence requires both residuals to stay below their
    Boyd-style thresholds for 100 consecutive iterations.  Structurally
    inconsistent constraint systems and iterates whose primal residual stalls
    at a positive level (affine set disjoint from the cone) are reported as
    Diverged.
    """
    d = p.dim
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    C = sign * p.C

    try:
        affine = _AffineProjector(p.diag, p.constraints, d)
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

    cone_proj = project_psd if p.cone == Cone.PSD else project_psd_nonneg

    sigma0 = cfg.admm_rho * (1.0 + np.linalg.norm(C) / d)
    sigma = sigma0
    sigma_lo, sigma_hi = sigma0 * 2.0 ** -20, sigma0 * 2.0 ** 20

    Z = np.zeros((d, d))
    U = np.zeros((d, d))
    r_norm = s_norm = np.inf
    eps_p = eps_d = 0.0
    stable = 0
    stall_hist: list[float] = []
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    X = Z

    for it in range(1, cfg.max_iter + 1):
        X = affine(Z - U - C / sigma)
        Z_prev = Z
        Z = cone_proj(X + U)
        U = U + X - Z

        r_norm = np.linalg.norm(X - Z)
        s_norm = sigma * np.linalg.norm(Z - Z_prev)
        eps_p = d * cfg.eps_abs + cfg.eps_rel * max(np.linalg.norm(X), np.linalg.norm(Z))
        eps_d = d * cfg.eps_abs + cfg.eps_rel * sigma * np.linalg.norm(U)

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
                U /= 2.0
            elif s_norm > 10.0 * r_norm and sigma > sigma_lo:
                sigma /= 2.0
                U *= 2.0

        if it % _STALL_SAMPLE == 0:
            stall_hist.append((r_norm, np.linalg.norm(U)))
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
                # a merely slow feasible solve keeps U bounded
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
