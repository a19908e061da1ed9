"""The five comparison bounds for equality-constrained binary programs.

Every operation returns a RelaxationResult whose ``value`` is in the units of
its input program (sign-form raw units for the sign-program relaxations, 0/1
units for the copositive one).  ``inflation`` is the one-sided widening that
makes an approximately solved bound safe: subtract it from a min-sense value
before claiming a valid lower bound, add it for max-sense.  For the MAX-CUT
SDP, ``lasserre1`` and ``copositive_dnn`` it is the gap from the value to the
bound certified by the solve's own dual multipliers, so value -/+ inflation
is a true bound at any iteration budget.  compute_bounds assembles
everything into a BoundReport with all values mapped to original-problem
units.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .instances import brute_force
from .model import SignProgram, ZeroOneProgram, to_zero_one
from .penalty import PenaltyBound, _moment_cost, rho as penalty_rho
from .reduction import MaxCutInstance, homogenize
from .sdp import (Cone, SdpProblem, Sense, SolveStatus, SolverConfig,
                  certified_diag_bound, solve_sdp)

_LP_TOL = 1e-9

CONVERGED = "Converged"
ITERATION_LIMIT = "IterationLimit"
DIVERGED = "Diverged"
INFEASIBLE = "Infeasible"
SKIPPED = "Skipped"
EXACT = "Exact"

class LpInfeasible(Exception):
    """The box LP has no feasible point (which certifies original infeasibility)."""


@dataclass
class RelaxationResult:
    value: float
    status: str
    inflation: float = 0.0
    note: str = ""
    solution: object = None


# --- dense two-phase simplex -------------------------------------------------


@dataclass
class LpResult:
    value: float
    x: np.ndarray | None
    status: str  # Optimal | Infeasible | Unbounded


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_min(T, basis, cost):
    """Minimize cost over the tableau with Bland's anti-cycling rule."""
    m, width = T.shape
    n = width - 1
    while True:
        red = cost - cost[basis] @ T[:, :n]
        enter = -1
        for j in range(n):
            if red[j] < -_LP_TOL:
                enter = j
                break
        if enter < 0:
            return "Optimal"
        col = T[:, enter]
        ratios = [(T[i, n] / col[i], i) for i in range(m) if col[i] > _LP_TOL]
        if not ratios:
            return "Unbounded"
        rmin = min(r for r, _ in ratios)
        leave = min((i for r, i in ratios if r <= rmin + 1e-12), key=lambda i: basis[i])
        _pivot(T, basis, leave, enter)


def solve_lp(c, A_eq, b_eq, lower, upper) -> LpResult:
    """min c'x s.t. A_eq x = b_eq, lower <= x <= upper, by two-phase simplex.

    The box is converted to standard form with one slack per variable, phase 1
    minimizes artificial variables (positive optimum means infeasible), and
    phase 2 optimizes the true cost with Bland's rule throughout.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("box must be finite")
    if np.any(lower > upper):
        return LpResult(np.inf, None, "Infeasible")
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n) if np.size(A_eq) else np.zeros((0, n))
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    m = A_eq.shape[0]

    # standard form over [y, t] >= 0:  A_eq y = b_eq - A_eq lower;  y + t = upper - lower
    rows = m + n
    cols = 2 * n
    A = np.zeros((rows, cols))
    A[:m, :n] = A_eq
    A[m:, :n] = np.eye(n)
    A[m:, n:] = np.eye(n)
    b = np.concatenate([b_eq - A_eq @ lower, upper - lower])
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial basis
    T = np.hstack([A, np.eye(rows), b[:, None]])
    basis = list(range(cols, cols + rows))
    cost1 = np.concatenate([np.zeros(cols), np.ones(rows)])
    if _bland_min(T, basis, cost1) != "Optimal" or cost1[basis] @ T[:, -1] > 1e-7:
        return LpResult(np.inf, None, "Infeasible")

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(rows):
        if basis[i] >= cols:
            enter = next((j for j in range(cols) if abs(T[i, j]) > _LP_TOL), None)
            if enter is None:
                continue  # redundant row
            _pivot(T, basis, i, enter)
        keep.append(i)
    T = np.ascontiguousarray(np.hstack([T[keep][:, :cols], T[keep][:, -1:]]))
    basis = [basis[i] for i in keep]

    cost2 = np.concatenate([c, np.zeros(n)])
    status = _bland_min(T, basis, cost2)
    if status != "Optimal":
        return LpResult(-np.inf, None, status)
    y_full = np.zeros(cols)
    for i, j in enumerate(basis):
        y_full[j] = T[i, -1]
    x = lower + y_full[:n]
    return LpResult(float(c @ x), x, "Optimal")


# --- the five bounds ----------------------------------------------------------


def shor_maxcut(mc: MaxCutInstance, sense: Sense = Sense.MIN,
                cfg: SolverConfig = SolverConfig()) -> RelaxationResult:
    """Unit-diagonal SDP bound on the quadratic form Q (either sense).

    The inflation is the gap from the solve's value to the bound certified
    by its dual multipliers, so value -/+ inflation is exactly that
    certified bound: a rigorous outer bound even when the solve stops far
    from the SDP optimum.
    """
    p = SdpProblem(C=mc.Q, sense=sense, diag=np.ones(mc.dim))
    sol = solve_sdp(p, cfg)
    certified = certified_diag_bound(p, sol.y)
    return RelaxationResult(
        value=sol.objective,
        status=sol.status.value,
        inflation=sol.objective - certified if sense == Sense.MIN else certified - sol.objective,
        note=sol.message,
        solution=sol,
    )


def _null_face(K: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis V of the null space of K, or None when K is zero.

    A PSD moment matrix Y with Y K' = 0 is V R V' with R PSD: the face that
    facial reduction (Borwein & Wolkowicz 1981) restricts the solve to.  The
    rank counts the singular values above max * cols * eps; V has no
    columns when K has full column rank, and None means the whole cone.
    """
    _, singular, vt = np.linalg.svd(K)
    rank = int(np.sum(singular > singular.max(initial=0.0) * K.shape[1] * np.finfo(float).eps))
    return None if rank == 0 else vt[rank:].T


def lasserre1(q: SignProgram, cfg: SolverConfig = SolverConfig()) -> RelaxationResult:
    """First moment relaxation of the constrained program itself.

    The moment block Y = [[X, x], [x', 1]] has unit diagonal.  Each
    constraint row A_k x = b_k and its linearized products
    x_i (A_k x - b_k) = 0 say, on a PSD Y, exactly Y K' = 0 for
    K = [A, -b], so the solve gets the face V, the null space of K, in
    place of those rows (as ``copositive_dnn`` does).  The interior-point
    solve certifies its own bound: the inflation is the gap from the value
    to ``certified_diag_bound`` of its multipliers, so value - inflation is
    a lower bound at any iteration budget.  An infeasible moment system
    (e.g. a constraint unreachable inside the box), which the solve proves
    from its dual or from the diagonal on the face, or where A x = b has no
    real solution at all (an empty face), is reported as Infeasible with
    value +inf.
    """
    face = _null_face(np.hstack([q.A, -q.b[:, None]]).astype(float))
    if face is not None and face.shape[1] == 0:
        return RelaxationResult(value=np.inf, status=INFEASIBLE,
                                note="A x = b has no real solution")
    p = SdpProblem(C=_moment_cost(q.c, q.F), diag=np.ones(q.n + 1), face=face)
    sol = solve_sdp(p, cfg)
    if sol.status == SolveStatus.DIVERGED:
        return RelaxationResult(value=np.inf, status=INFEASIBLE, note=sol.message, solution=sol)
    return RelaxationResult(
        value=sol.objective,
        status=sol.status.value,
        inflation=sol.objective - certified_diag_bound(p, sol.y),
        note=sol.message,
        solution=sol,
    )


def lp_box(q: SignProgram, cfg: SolverConfig = SolverConfig()) -> RelaxationResult:
    """Linear relaxation: the hypercube replaced by the box [-1, 1]^n."""
    if np.count_nonzero(q.F):
        raise ValueError("lp_box requires a linear objective (F = 0)")
    res = solve_lp(q.c, q.A.astype(float), q.b.astype(float), -np.ones(q.n), np.ones(q.n))
    if res.status == "Infeasible":
        raise LpInfeasible("box LP infeasible: the program has no feasible point")
    if res.status != "Optimal":
        return RelaxationResult(value=-np.inf, status=DIVERGED, note=res.status, solution=res)
    return RelaxationResult(value=res.value, status=CONVERGED, solution=res)


class _BoxAffineProjector:
    """Dykstra alternation between the box [-1,1]^n and {x : Ax = b}."""

    def __init__(self, A: np.ndarray, b: np.ndarray, tol: float = 1e-12, max_inner: int = 200):
        self.A = A
        self.b = b
        self.pinv = np.linalg.pinv(A) if A.size else None
        self.tol = tol
        self.max_inner = max_inner

    def affine(self, x):
        if self.pinv is None:
            return x
        return x - self.pinv @ (self.A @ x - self.b)

    def __call__(self, x0):
        if self.pinv is None:
            return np.clip(x0, -1.0, 1.0)
        x = x0
        p = np.zeros_like(x0)
        q = np.zeros_like(x0)
        for _ in range(self.max_inner):
            y = np.clip(x + p, -1.0, 1.0)
            p = x + p - y
            x_new = self.affine(y + q)
            q = y + q - x_new
            if np.linalg.norm(y - x_new) <= self.tol:
                return x_new
            x = x_new
        return x


def convex_quadratic_relaxation(q: SignProgram,
                                cfg: SolverConfig = SolverConfig()) -> RelaxationResult:
    """Eigen-shifted convex relaxation over the box intersected with Ax = b.

    The quadratic part is shifted PSD by theta = |lambda_min(F)| + 1 (zero when
    already PSD), the convex program is solved by accelerated projected
    gradient, and a rigorous lower bound on its optimum is extracted from the
    final gradient by one linear minimization over the same feasible set.
    Since x_i^2 = 1 on the hypercube, value = (that bound) - n*theta is a
    valid lower bound on the original optimum.
    """
    n = q.n
    lam_min = float(np.linalg.eigvalsh(q.F)[0]) if np.count_nonzero(q.F) else 0.0
    theta = abs(lam_min) + 1.0 if lam_min < 0 else 0.0
    F_s = q.F + theta * np.eye(n)
    c = q.c
    lam_max = float(np.linalg.eigvalsh(F_s)[-1]) if np.count_nonzero(F_s) else 0.0
    L = max(2.0 * lam_max, 1e-9)
    project = _BoxAffineProjector(q.A.astype(float), q.b.astype(float))

    grad = lambda x: c + 2.0 * (F_s @ x)
    value = lambda x: float(c @ x + x @ F_s @ x)
    pg_tol = 1e-7 * (1.0 + float(np.linalg.norm(c)))

    x = project(np.zeros(n))
    y = x
    t = 1.0
    status = ITERATION_LIMIT
    # a zero (after shift) quadratic part makes the problem linear: the
    # gradient is constant and the closing LP below is already exact
    max_iter = 0 if lam_max == 0.0 else min(cfg.max_iter, 20000)
    if max_iter == 0:
        status = CONVERGED
    for it in range(1, max_iter + 1):
        x_new = project(y - grad(y) / L)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if it % 10 == 0 or it == max_iter:
            pg = L * (x - project(x - grad(x) / L))
            if np.linalg.norm(pg) <= pg_tol:
                status = CONVERGED
                break

    # Rigorous lower bound on the convex optimum from convexity:
    # psi >= g(x) + min_{y in box ∩ affine} grad(x)'(y - x).
    g_x = grad(x)
    lp = solve_lp(g_x, q.A.astype(float), q.b.astype(float), -np.ones(n), np.ones(n))
    if lp.status == "Infeasible":
        return RelaxationResult(value=np.inf, status=INFEASIBLE,
                                note="box/affine intersection empty")
    lb = value(x) + lp.value - float(g_x @ x)
    gap = value(x) - lb
    return RelaxationResult(
        value=lb - n * theta,
        status=status,
        note=f"theta={theta:.6g} fw_gap={gap:.3e}",
        solution=x,
    )


def copositive_dnn(p: ZeroOneProgram, cfg: SolverConfig = SolverConfig()) -> RelaxationResult:
    """Doubly-nonnegative relaxation of the slack-completed 0/1 program.

    Variables are lifted to (x, z) with x + z = e, giving the constraint
    system S = [[A, 0], [I, I]] with right-hand side (b, e).  The moment
    block X = [[Y, x], [x', 1]] of size 2n+1 is PSD and entrywise
    nonnegative, its diagonal is linked to the first-order variables
    (X_ii = x_i), and S enters both linearly and as lifted squares
    S_i Y S_i' = rhs_i^2.  On a PSD X the two kinds of row together say
    X K' = 0 for K = [S, -rhs], and once X_nn = 1 that face implies both.
    So the solve gets the face V, an orthonormal basis of the null space of
    K (facial reduction, Borwein & Wolkowicz 1981; r = n + 1 - rank A
    columns against 2n + 1), X_nn = 1 and the linking rows, which fix the
    trace at n + 1.  The inflation is the gap from the value to
    ``certified_diag_bound`` of the solve's multipliers, so value -
    inflation is a lower bound at any iteration budget.  Rows that the solve
    proves infeasible, from that certificate or because no X on the face
    has X_nn = 1, are reported as Infeasible with value +inf.
    """
    if not p.all_eq:
        raise ValueError("copositive relaxation needs all-EQ rows: run slack_expand first")
    n = p.n
    nn = 2 * n
    d = nn + 1
    S = np.zeros((p.m + n, nn))
    S[: p.m, :n] = p.A.astype(float)
    S[p.m :, :n] = np.eye(n)
    S[p.m :, n:] = np.eye(n)
    rhs = np.concatenate([p.b.astype(float), np.ones(n)])

    cons = []
    E = np.zeros((d, d))
    E[nn, nn] = 1.0
    cons.append((E, 1.0))
    for i in range(n):  # on the face, z's links repeat x's: X_ii - x_i = -X_{i,n+i}
        M = np.zeros((d, d))
        M[i, i] = 1.0
        M[i, nn] -= 0.5
        M[nn, i] -= 0.5
        cons.append((M, 0.0))

    C = np.zeros((d, d))
    C[:n, :n] = p.F
    C[:n, nn] = p.c / 2.0
    C[nn, :n] = p.c / 2.0
    problem = SdpProblem(C=C, constraints=tuple(cons), cone=Cone.PSD_NONNEG,
                         face=_null_face(np.hstack([S, -rhs[:, None]])))
    sol = solve_sdp(problem, cfg)
    if sol.status == SolveStatus.DIVERGED:
        return RelaxationResult(value=np.inf, status=INFEASIBLE, note=sol.message, solution=sol)
    return RelaxationResult(
        value=sol.objective + p.constant,
        status=sol.status.value,
        inflation=sol.objective - certified_diag_bound(problem, sol.y, sol.W),
        note=sol.message,
        solution=sol,
    )


# --- report assembly ----------------------------------------------------------

_BRUTE_FORCE_AUTO_N = 18


@dataclass
class BoundEntry:
    value: float            # original-problem units
    raw: float | None       # sign-form raw units when applicable
    status: str
    seconds: float
    inflation: float = 0.0  # original-problem units
    note: str = ""

    @property
    def usable(self) -> bool:
        return self.status in (CONVERGED, ITERATION_LIMIT, EXACT)


@dataclass
class BoundReport:
    n: int
    rho_raw: float
    rho_original: float
    penalty_m: float
    scale: float
    offset: float
    entries: dict = field(default_factory=dict)
    rounding: object = None

    def value(self, name: str) -> float:
        return self.entries[name].value


class _Inputs(NamedTuple):
    """Everything a selector runner may read."""

    q: SignProgram
    mc: MaxCutInstance
    cfg: SolverConfig
    dnn_cfg: SolverConfig
    include_brute_force: bool


class _Skipped(Exception):
    """The selector does not apply to this program; the message says why."""


def _run_lp_box(r: _Inputs) -> RelaxationResult:
    if np.count_nonzero(r.q.F):
        raise _Skipped("requires a linear objective (F = 0)")
    return lp_box(r.q, r.cfg)


def _run_brute_force(r: _Inputs) -> RelaxationResult:
    if not r.include_brute_force:
        raise _Skipped(f"enumeration suppressed (n={r.q.n})")
    res = brute_force(r.q)
    return RelaxationResult(value=res.value, status=EXACT,
                            note="no feasible point" if res.x is None else "")


# selector -> (runner, whether the result is in sign-form raw units), in report
# order.  Runners look every solver up by its module name when called, so a
# wrapper installed on this module's attribute sees each call.
_SELECTOR_TABLE = {
    "maxcut_shor_min": (lambda r: shor_maxcut(r.mc, Sense.MIN, r.cfg), True),
    "maxcut_shor_max": (lambda r: shor_maxcut(r.mc, Sense.MAX, r.cfg), True),
    "lasserre1": (lambda r: lasserre1(r.q, cfg=r.cfg), True),
    "lp_box": (_run_lp_box, True),
    "convex_quadratic": (lambda r: convex_quadratic_relaxation(r.q, r.cfg), True),
    "copositive_dnn": (lambda r: copositive_dnn(to_zero_one(r.q), r.dnn_cfg), False),
    "brute_force": (_run_brute_force, False),
}
SELECTORS = tuple(_SELECTOR_TABLE)


def compute_bounds(
    q: SignProgram,
    selectors=None,
    cfg: SolverConfig = SolverConfig(),
    pb: PenaltyBound | None = None,
    include_brute_force: bool | None = None,
    gw_trials: int = 0,
    gw_seed: int = 0,
    dnn_cfg: SolverConfig | None = None,
) -> BoundReport:
    """Run the selected bounds on one sign program and collect a report.

    All entry values are in original-problem units.  ``inflation`` per entry
    is the widening in those units that makes the value safe (the gap to the
    dual certificate for every SDP entry); subtract it from min-sense
    entries before treating them as valid lower bounds.  Selector names are
    validated before anything is solved.  ``include_brute_force`` defaults to
    n <= 18; gw_trials > 0 attaches a hyperplane-rounding result.
    ``dnn_cfg`` gives the doubly-nonnegative solve separate tolerances and
    iteration budget (default: same ``cfg``).
    """
    if selectors is None:
        selectors = list(SELECTORS)
    unknown = [s for s in selectors if s not in SELECTORS]
    if unknown:
        raise ValueError(f"unknown selectors: {unknown}")
    if include_brute_force is None:
        include_brute_force = q.n <= _BRUTE_FORCE_AUTO_N
    if pb is None:
        pb = penalty_rho(q.c, q.F, cfg)
    mc = homogenize(q, pb)
    report = BoundReport(
        n=q.n,
        rho_raw=pb.rho,
        rho_original=q.to_original(pb.rho),
        penalty_m=pb.penalty_m,
        scale=q.scale,
        offset=q.offset,
    )
    inputs = _Inputs(q, mc, cfg, cfg if dnn_cfg is None else dnn_cfg, include_brute_force)

    raw_results: dict[str, RelaxationResult] = {}
    for name, (run, raw_units) in _SELECTOR_TABLE.items():
        if name not in selectors:
            continue
        start = time.perf_counter()
        try:
            res = run(inputs)
        except _Skipped as exc:
            report.entries[name] = BoundEntry(
                value=np.nan, raw=None, status=SKIPPED, seconds=0.0, note=str(exc),
            )
            continue
        except LpInfeasible as exc:
            report.entries[name] = BoundEntry(
                value=np.inf, raw=np.inf, status=INFEASIBLE,
                seconds=time.perf_counter() - start, note=str(exc),
            )
            continue
        seconds = time.perf_counter() - start
        raw_results[name] = res
        if raw_units:
            report.entries[name] = BoundEntry(
                value=q.to_original(res.value),
                raw=res.value,
                status=res.status,
                seconds=seconds,
                inflation=q.scale * res.inflation,
                note=res.note,
            )
        else:
            report.entries[name] = BoundEntry(
                value=res.value, raw=None, status=res.status,
                seconds=seconds, inflation=res.inflation, note=res.note,
            )
    if gw_trials > 0:
        from .bounds import gw_round  # deferred: bounds imports this module

        res = raw_results.get("maxcut_shor_min")
        if res is None:
            res = shor_maxcut(mc, Sense.MIN, cfg)
        sol = res.solution
        if sol is not None and sol.status != SolveStatus.DIVERGED:
            report.rounding = gw_round(sol, mc, trials=gw_trials, seed=gw_seed,
                                       polish=True)
    return report
