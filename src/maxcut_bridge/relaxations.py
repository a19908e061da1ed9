"""The five comparison bounds for equality-constrained binary programs.

Every operation returns a BoundEntry whose ``value`` is in the units of its
input program (sign-form raw units for the sign-program relaxations, 0/1
units for the copositive one).  ``inflation`` is the one-sided widening that
makes an approximately solved bound safe, and ``BoundEntry.bound`` applies it
in the entry's ``sense``.  For the MAX-CUT SDP, ``lasserre1`` and
``copositive_dnn`` it is the gap from the value to the bound certified by the
solve's own dual multipliers (``_certified``), so ``bound`` is a true bound
at any iteration budget.  compute_bounds assembles the entries into a
BoundReport with all values mapped to original-problem units.
"""

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import bounds, sdp
from .instances import brute_force
from .model import SignProgram, ZeroOneProgram, to_zero_one
from .penalty import PenaltyBound, _moment_cost, rho as penalty_rho
from .reduction import MaxCutInstance, homogenize
from .sdp import (Cone, SdpProblem, SdpSolution, Sense, SolveStatus, SolverConfig,
                  certified_diag_bound, solve_sdp)

_LP_TOL = 1e-9

CONVERGED = SolveStatus.CONVERGED.value
ITERATION_LIMIT = SolveStatus.ITERATION_LIMIT.value
DIVERGED = SolveStatus.DIVERGED.value
INFEASIBLE = "Infeasible"
SKIPPED = "Skipped"
EXACT = "Exact"


@dataclass(frozen=True)
class BoundEntry:
    """One bound.  A relaxation returns it in the units of its input program;
    compute_bounds maps sign-form entries to original-problem units, keeps
    the sign-form value in ``raw`` and sets ``seconds``.  ``solution`` is the
    SdpSolution of an SDP-backed entry (Infeasible exactly when that solve
    Diverged), None for every other entry.  ``sense`` says which way
    ``inflation`` widens ``value``; ``bound`` is the result, the one place
    that direction is applied."""

    value: float
    status: str
    inflation: float = 0.0
    note: str = ""
    solution: SdpSolution | None = None
    raw: float | None = None
    seconds: float = 0.0
    sense: Sense = Sense.MIN

    @property
    def usable(self) -> bool:
        return self.status in (CONVERGED, ITERATION_LIMIT, EXACT)

    @property
    def bound(self) -> float:
        """The certified bound: value - inflation for Min, value + inflation for Max."""
        if self.sense == Sense.MIN:
            return self.value - self.inflation
        return self.value + self.inflation


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
    """Minimize cost over the tableau with Bland's anti-cycling rule: the first
    column of negative reduced cost enters, and of the rows whose ratio is
    within 1e-12 of the least, the one of smallest basic index leaves."""
    n = T.shape[1] - 1
    while True:
        entering = (cost - cost[basis] @ T[:, :n] < -_LP_TOL).nonzero()[0]
        if not entering.size:
            return "Optimal"
        enter = int(entering[0])
        col = T[:, enter]
        rows = (col > _LP_TOL).nonzero()[0]
        if not rows.size:
            return "Unbounded"
        ratios = T[rows, n] / col[rows]
        ties = rows[ratios <= ratios.min() + 1e-12]
        _pivot(T, basis, int(ties[basis[ties].argmin()]), enter)


class FeasibleTableau(NamedTuple):
    """A basic feasible solution of the box-and-rows set in standard form:
    the tableau T over [y, t] >= 0 (x = lower + y, t the upper slacks)
    with the right-hand side as its last column, the basic column of each
    row (an integer array), ``lower``, and ``rows``: the indices of the
    independent rows of A_eq that phase 1 kept, in order."""

    T: np.ndarray
    basis: np.ndarray
    lower: np.ndarray
    rows: np.ndarray


def simplex_phase1(A_eq, b_eq, lower, upper, n: int) -> FeasibleTableau | None:
    """A feasible tableau for A_eq x = b_eq, lower <= x <= upper, x in R^n,
    or None when that set is empty.

    The box is converted to standard form with one slack per variable, and
    artificial variables are minimized with Bland's rule (a positive optimum
    means infeasible).  Artificials left in the basis are pivoted out; one
    that stays basic on an all-zero row marks the row it stands for, a row
    of A_eq (each box row has its own slack), as redundant, and it is
    dropped.  The result depends on no cost, so one run serves any number
    of ``simplex_phase2`` calls.
    """
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValueError("box must be finite")
    if np.any(lower > upper):
        return None
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
    basis = np.arange(cols, cols + rows)
    cost1 = np.concatenate([np.zeros(cols), np.ones(rows)])
    if _bland_min(T, basis, cost1) != "Optimal" or cost1[basis] @ T[:, -1] > 1e-7:
        return None

    # drive remaining artificials out of the basis; drop redundant rows
    keep, redundant = [], []
    for i in range(rows):
        if basis[i] >= cols:
            enter = next((j for j in range(cols) if abs(T[i, j]) > _LP_TOL), None)
            if enter is None:
                redundant.append(basis[i] - cols)  # its artificial's row of A_eq
                continue
            _pivot(T, basis, i, enter)
        keep.append(i)
    T = np.ascontiguousarray(np.hstack([T[keep][:, :cols], T[keep][:, -1:]]))
    return FeasibleTableau(T, basis[keep], lower, np.delete(np.arange(m), redundant))


def simplex_phase2(tableau: FeasibleTableau, c) -> LpResult:
    """min c'x from the feasible tableau of ``simplex_phase1`` with Bland's
    rule.  It pivots a copy, so the tableau can serve another cost."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    T, basis = tableau.T.copy(), tableau.basis.copy()
    status = _bland_min(T, basis, np.concatenate([c, np.zeros(n)]))
    if status != "Optimal":
        return LpResult(-np.inf, None, status)
    y_full = np.zeros(2 * n)
    y_full[basis] = T[:, -1]
    x = tableau.lower + y_full[:n]
    return LpResult(float(c @ x), x, "Optimal")


def solve_lp(c, A_eq, b_eq, lower, upper) -> LpResult:
    """min c'x s.t. A_eq x = b_eq, lower <= x <= upper, by two-phase simplex:
    ``simplex_phase1`` (Infeasible when it finds the set empty), then
    ``simplex_phase2`` for c.  A caller with several costs over one set runs
    phase 1 once itself."""
    c = np.asarray(c, dtype=float).reshape(-1)
    tableau = simplex_phase1(A_eq, b_eq, lower, upper, c.size)
    if tableau is None:
        return LpResult(np.inf, None, "Infeasible")
    return simplex_phase2(tableau, c)


# --- the five bounds ----------------------------------------------------------


def _certified(p: SdpProblem, cfg: SolverConfig, constant: float = 0.0) -> BoundEntry:
    """Solve an SDP bound and widen it to the bound its own multipliers certify.

    The inflation is the gap from the solve's value to
    ``certified_diag_bound`` of its multipliers, so the entry's ``bound`` is
    exactly that certified bound: a rigorous outer bound even when the solve
    stops far from the SDP optimum.  ``constant`` is added to the value.  A
    Diverged solve proves the rows infeasible and is reported as Infeasible
    with value +inf for Min, -inf for Max.
    """
    sol = solve_sdp(p, cfg)
    if sol.status == SolveStatus.DIVERGED:  # its objective is +inf for Min, -inf for Max
        return BoundEntry(value=sol.objective, status=INFEASIBLE, note=sol.message,
                          solution=sol, sense=p.sense)
    gap = sol.objective - certified_diag_bound(p, sol.y, sol.W)
    return BoundEntry(
        value=sol.objective + constant,
        status=sol.status.value,
        inflation=gap if p.sense == Sense.MIN else -gap,
        note=sol.message,
        solution=sol,
        sense=p.sense,
    )


def shor_maxcut(mc: MaxCutInstance, sense: Sense = Sense.MIN,
                cfg: SolverConfig = SolverConfig()) -> BoundEntry:
    """Unit-diagonal SDP bound on the quadratic form Q (either sense),
    widened by ``_certified``."""
    return _certified(SdpProblem(C=mc.Q, sense=sense, diag=np.ones(mc.dim)), cfg)


def lasserre1(q: SignProgram, cfg: SolverConfig = SolverConfig()) -> BoundEntry:
    """First moment relaxation of the constrained program itself.

    The moment block Y = [[X, x], [x', 1]] has unit diagonal.  Each
    constraint row A_k x = b_k and its linearized products
    x_i (A_k x - b_k) = 0 say, on a PSD Y, exactly Y K' = 0 for the
    integer K = [A, -b], so the solve gets that face, decided exactly, in
    place of those rows (as ``copositive_dnn`` does).  ``_certified`` widens
    the value to the bound the solve's multipliers certify.  An infeasible
    moment system, which the solve proves from its dual or from conflicting
    diagonal rows on the face (as for an A x = b with no real solution, at
    any face width), is reported as Infeasible with value +inf.
    """
    p = SdpProblem(C=_moment_cost(q.c, q.F), diag=np.ones(q.n + 1),
                   face=np.hstack([q.A, -q.b[:, None]]))
    return _certified(p, cfg)


@dataclass
class _Box:
    """Ax = b over the box [-1, 1]^n: ``tableau`` is its ``simplex_phase1``
    (None when empty; the box QP reads its ``rows``) and ``lp`` its
    ``simplex_phase2`` for the objective's cost c.  Each is computed on
    first use, so one run of each serves ``lp_box`` and
    ``convex_quadratic_relaxation`` of a report."""

    q: SignProgram

    @cached_property
    def tableau(self) -> FeasibleTableau | None:
        return simplex_phase1(self.q.A, self.q.b, -1.0, 1.0, self.q.n)

    @cached_property
    def lp(self) -> LpResult:
        return simplex_phase2(self.tableau, self.q.c)


class _Skipped(ValueError):
    """The selector does not apply to this program; the message says why."""


def lp_box(q: SignProgram) -> BoundEntry:
    """Linear relaxation: the hypercube replaced by the box [-1, 1]^n, solved
    exactly by the simplex method.  A quadratic objective raises a ValueError
    (compute_bounds reports the entry Skipped)."""
    return _lp_box(_Box(q))


def _lp_box(box: _Box) -> BoundEntry:
    """``lp_box`` from the shared box LP (``_Box``)."""
    if np.count_nonzero(box.q.F):
        raise _Skipped("requires a linear objective (F = 0)")
    if box.tableau is None:
        return BoundEntry(value=np.inf, status=INFEASIBLE,
                          note="box LP infeasible: the program has no feasible point")
    res = box.lp
    if res.status != "Optimal":
        return BoundEntry(value=-np.inf, status=DIVERGED, note=res.status)
    return BoundEntry(value=res.value, status=CONVERGED)


def _box_qp(H: np.ndarray, c: np.ndarray, A: np.ndarray, b: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, str]:
    """min c'x + x'Hx s.t. Ax = b, -1 <= x <= 1 (H PSD), by Mehrotra's
    primal-dual interior-point method (SIAM J. Optim. 2, 1992).

    The rows must be independent and consistent, as ``simplex_phase1``
    keeps them, so with D, the sum of z/s over both bounds, positive the
    Newton matrix [[2H + D, A'], [A, 0]] is nonsingular.  It is inverted
    once per iteration, and the inverse serves the affine step, which sets
    the centering (mu_affine / mu)^3, and the corrector; least squares
    stands in only where the inversion fails.  The slacks s = (1 + x, 1 - x)
    and their multipliers z stay positive: each side moves 0.99 of the way
    to the boundary, at most a full step.  Converged needs the dual and
    primal residuals and the mean of s o z at most 1e-9 (1 + sum |c|).
    Where the rows pin variables to a bound there is no interior point and
    s tends to zero: the loop stops while 1 - x still has digits to step on.
    It runs under one ``sdp._raising`` errstate and inverts through the
    LAPACK seam (``sdp._inv``); an invalid value anywhere in a step ends the
    loop at its last iterate, as IterationLimit.
    """
    n, m = len(c), len(b)
    tol = 1e-9 * (1.0 + float(np.abs(c).sum()))
    sgn = np.array([[1.0], [-1.0]])  # s = 1 + sgn x, so ds = sgn dx
    x, y, z = np.zeros(n), np.zeros(m), np.ones((2, n))
    K = np.zeros((n + m, n + m))  # the Newton matrix; only its diagonal block changes
    K[:n, n:] = A.T
    K[n:, :n] = A
    H2 = 2.0 * H

    def step_to(v, dv):
        shrink = dv < 0.0
        return min(1.0, 0.99 * float((-v[shrink] / dv[shrink]).min(initial=np.inf)))

    with sdp._raising():  # one errstate for the whole loop
        for _ in range(max_iter):
            s = 1.0 + sgn * x
            r_d = c + 2.0 * (H @ x) - A.T @ y - (z[0] - z[1])
            r_p = b - A @ x
            mu = float(np.vdot(s, z)) / (2 * n)
            if max(np.abs(r_d).max(), np.abs(r_p).max(initial=0.0), mu) <= tol:
                return x, CONVERGED
            if s.min() <= 1e3 * np.finfo(float).eps:
                break
            try:
                K[:n, :n] = H2
                K[:n, :n].flat[:: n + 1] += (z / s).sum(0)  # 2H + Diag(D)
                try:
                    K_inv = sdp._inv(K)
                except np.linalg.LinAlgError:
                    K_inv = None

                def direction(t):
                    # Newton step that moves s o z to s o z + t
                    ts = t / s
                    rhs = np.concatenate([ts[0] - ts[1] - r_d, r_p])
                    step = (K_inv @ rhs if K_inv is not None
                            else np.linalg.lstsq(K, rhs, rcond=None)[0])
                    ds = sgn * step[:n]
                    return step[:n], -step[n:], ds, (t - z * ds) / s

                # the affine step (target 0) sets the centering; its second-order
                # term enters the corrector
                _, _, ds, dz = direction(-s * z)
                mu_aff = float(np.vdot(s + step_to(s, ds) * ds,
                                       z + step_to(z, dz) * dz)) / (2 * n)
                centering = min(1.0, mu_aff / mu) ** 3 * mu
                dx, dy, ds, dz = direction(centering - s * z - ds * dz)
                a_p, a_d = step_to(s, ds), step_to(z, dz)
                x = x + a_p * dx
                y = y + a_d * dy
                z = z + a_d * dz
            except np.linalg.LinAlgError:  # an invalid value, or least squares failed
                break
    return x, ITERATION_LIMIT


def convex_quadratic_relaxation(q: SignProgram,
                                cfg: SolverConfig = SolverConfig()) -> BoundEntry:
    """Eigen-shifted convex relaxation over the box intersected with Ax = b.

    The quadratic part is shifted PSD by theta = |lambda_min(F)| + 1 (zero when
    already PSD), and the convex program is solved by the interior-point
    method ``_box_qp`` in at most ``cfg.max_iter`` Newton steps.  A rigorous
    lower bound on its optimum is extracted from the final gradient by one
    linear minimization over the same feasible set, so the bound never rests
    on the loop's accuracy.  Since x_i^2 = 1 on the hypercube, value = (that
    bound) - n*theta is a valid lower bound on the original optimum.  One
    simplex phase 1 serves the feasibility test, that LP and the loop, which
    gets the rows it kept: an empty feasible set is reported as Infeasible
    with value +inf.  A linear objective (F = 0) needs no loop: the LP with
    cost c, which ``lp_box`` solves too, is the relaxation, x is its vertex,
    and the entry is Converged at any budget.
    """
    return _convex_quadratic(q, cfg, _Box(q))


def _convex_quadratic(q: SignProgram, cfg: SolverConfig, box: _Box) -> BoundEntry:
    """``convex_quadratic_relaxation`` from the shared box LP (``_Box``)."""
    if box.tableau is None:
        return BoundEntry(value=np.inf, status=INFEASIBLE, note="box/affine intersection empty")
    n = q.n
    if np.count_nonzero(q.F):
        lam_min = float(np.linalg.eigvalsh(q.F)[0])
        theta = abs(lam_min) + 1.0 if lam_min < 0 else 0.0
        F_s = q.F + theta * np.eye(n)
        x, status = _box_qp(F_s, q.c, q.A[box.tableau.rows].astype(float),
                            q.b[box.tableau.rows].astype(float), cfg.max_iter)
        # Rigorous lower bound on the convex optimum from convexity:
        # psi >= f(x) + min_{y in box ∩ affine} g'(y - x) for g the gradient
        # at x, and f(x) - g'x = -x'F_s x.
        g_x = q.c + 2.0 * (F_s @ x)
        lp = simplex_phase2(box.tableau, g_x)
        value = lp.value - float(x @ F_s @ x) - n * theta
    else:
        theta, status, g_x, lp = 0.0, CONVERGED, q.c, box.lp
        x, value = lp.x, lp.value
    return BoundEntry(
        value=value,
        status=status,
        note=f"theta={theta:.6g} fw_gap={float(g_x @ x) - lp.value:.3e}",
    )


def copositive_dnn(p: ZeroOneProgram, cfg: SolverConfig = SolverConfig()) -> BoundEntry:
    """Doubly-nonnegative relaxation of the slack-completed 0/1 program.

    Variables are lifted to (x, z) with x + z = e, giving the constraint
    system S = [[A, 0], [I, I]] with right-hand side (b, e).  The moment
    block X = [[Y, x], [x', 1]] of size 2n+1 is PSD and entrywise
    nonnegative, its diagonal is linked to the first-order variables
    (X_ii = x_i), and S enters both linearly and as lifted squares
    S_i Y S_i' = rhs_i^2.  On a PSD X the two kinds of row together say
    X K' = 0 for the integer K = [S, -rhs], and once X_nn = 1 that face
    implies both.  So the solve gets that face (facial reduction, Borwein &
    Wolkowicz 1981), decided exactly from K, with X_nn = 1 and the linking
    rows, which fix the trace at n + 1.  ``_certified`` widens the value to
    the bound the solve's multipliers certify.  Rows that the solve proves
    infeasible, from that certificate or because no X on the face has
    X_nn = 1, are reported as Infeasible with value +inf.
    """
    if not p.all_eq:
        raise ValueError("copositive relaxation needs all-EQ rows: run slack_expand first")
    n, nn, d = p.n, 2 * p.n, 2 * p.n + 1
    K = np.zeros((n + p.m, d), dtype=np.int64)  # [S, -rhs], the unit rows first
    K[:n, :n] = K[:n, n:nn] = np.eye(n, dtype=np.int64)
    K[:n, nn], K[n:, :n], K[n:, nn] = -1, p.A, -p.b

    # X_nn = 1, then X_ii - x_i = 0 (on the face z's links repeat x's)
    rows = np.zeros((n + 1, d, d))
    rows[0, nn, nn] = 1.0
    i = np.arange(n)
    rows[1 + i, i, i] = 1.0
    rows[1 + i, i, nn] = rows[1 + i, nn, i] = -0.5

    c = np.zeros(nn)
    c[:n] = p.c
    F = np.zeros((nn, nn))
    F[:n, :n] = p.F
    problem = SdpProblem(C=_moment_cost(c, F), A=rows, b=np.eye(1, n + 1)[0],
                         cone=Cone.PSD_NONNEG, face=K)
    return _certified(problem, cfg, p.constant)


# --- report assembly ----------------------------------------------------------

_BRUTE_FORCE_AUTO_N = 18


@dataclass
class BoundReport:
    """The entries of one program by selector name, in SELECTORS order and
    original-problem units, with the ``penalty`` its MAX-CUT form was built
    with (rho and M in sign-form raw units), rho in original units, the
    program's ``scale`` and ``offset`` (original = scale * raw + offset)
    and, when requested, a hyperplane rounding of the min-sense Shor
    solution."""

    n: int
    penalty: PenaltyBound
    rho_original: float
    scale: float
    offset: float
    entries: dict = field(default_factory=dict)
    rounding: object = None


class _Inputs(NamedTuple):
    """Everything a selector runner may read.  ``box`` is the box LP of q
    (``_Box``), shared by lp_box and convex_quadratic."""

    q: SignProgram
    mc: MaxCutInstance
    cfg: SolverConfig
    dnn_cfg: SolverConfig
    include_brute_force: bool
    box: _Box


def _run_brute_force(r: _Inputs) -> BoundEntry:
    if not r.include_brute_force:
        raise _Skipped(f"enumeration suppressed (n={r.q.n})")
    res = brute_force(r.q)
    return BoundEntry(value=res.value, status=EXACT,
                      note="no feasible point" if res.x is None else "")


# selector -> (runner, whether the result is in sign-form raw units), in report
# order.  Runners look every solver up by its module name when called, so a
# wrapper installed on this module's attribute sees each call; lp_box and
# convex_quadratic call their private forms, which take the shared box LP.
_SELECTOR_TABLE = {
    "maxcut_shor_min": (lambda r: shor_maxcut(r.mc, Sense.MIN, r.cfg), True),
    "maxcut_shor_max": (lambda r: shor_maxcut(r.mc, Sense.MAX, r.cfg), True),
    "lasserre1": (lambda r: lasserre1(r.q, cfg=r.cfg), True),
    "lp_box": (lambda r: _lp_box(r.box), True),
    "convex_quadratic": (lambda r: _convex_quadratic(r.q, r.cfg, r.box), True),
    "copositive_dnn": (lambda r: copositive_dnn(to_zero_one(r.q), r.dnn_cfg), False),
    "brute_force": (_run_brute_force, False),
}
SELECTORS = tuple(_SELECTOR_TABLE)


def compute_bounds(
    q: SignProgram,
    selectors=None,
    cfg: SolverConfig = SolverConfig(),
    pb: PenaltyBound | None = None,
    include_brute_force: bool = True,
    gw_trials: int = 0,
    gw_seed: int = 0,
    dnn_cfg: SolverConfig | None = None,
) -> BoundReport:
    """Run the selected bounds on one sign program and collect a report.

    All entry values are in original-problem units.  ``inflation`` per entry
    is the widening in those units that makes the value safe (the gap to the
    dual certificate for every SDP entry), and each entry's ``bound`` is the
    value so widened: read that, not ``value``, as the certified bound.
    Selector names are validated before anything is solved.
    ``brute_force`` enumerates only when n <= 18, and
    ``include_brute_force=False`` suppresses it at any n (the entry is then
    Skipped); gw_trials > 0 attaches a hyperplane-rounding result.
    ``dnn_cfg`` gives the doubly-nonnegative solve separate tolerances and
    iteration budget (default: same ``cfg``).
    """
    if selectors is None:
        selectors = list(SELECTORS)
    unknown = [s for s in selectors if s not in SELECTORS]
    if unknown:
        raise ValueError(f"unknown selectors: {unknown}")
    if pb is None:
        pb = penalty_rho(q.c, q.F)
    mc = homogenize(q, pb)
    report = BoundReport(
        n=q.n,
        penalty=pb,
        rho_original=q.to_original(pb.rho),
        scale=q.scale,
        offset=q.offset,
    )
    inputs = _Inputs(q, mc, cfg, cfg if dnn_cfg is None else dnn_cfg,
                     include_brute_force and q.n <= _BRUTE_FORCE_AUTO_N, _Box(q))

    for name, (run, raw_units) in _SELECTOR_TABLE.items():
        if name not in selectors:
            continue
        start = time.perf_counter()
        try:
            res = run(inputs)
        except _Skipped as exc:
            report.entries[name] = BoundEntry(value=np.nan, status=SKIPPED, note=str(exc))
            continue
        seconds = time.perf_counter() - start
        units = (dict(value=q.to_original(res.value), raw=res.value,
                      inflation=q.scale * res.inflation) if raw_units else {})
        report.entries[name] = replace(res, seconds=seconds, **units)
    if gw_trials > 0:
        shor = report.entries.get("maxcut_shor_min") or shor_maxcut(mc, Sense.MIN, cfg)
        if shor.usable:
            report.rounding = bounds.gw_round(shor.solution.X, mc, trials=gw_trials,
                                              seed=gw_seed, polish=True)
    return report
