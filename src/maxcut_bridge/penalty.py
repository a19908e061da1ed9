"""Penalty constant sizing for folding equality constraints into the objective.

The constant must dominate the absolute value of the objective over the whole
sign hypercube.  For a linear objective that extremum is the closed form
sum(|c_i|); with a quadratic term the two extrema are bounded from outside by
a pair of semidefinite relaxations over the moment block [[X, x], [x', 1]]
with unit diagonal (min side and max side).
"""

from dataclasses import dataclass

import numpy as np

from .sdp import SdpProblem, Sense, SolverConfig, certified_diag_bound, solve_sdp

CLOSED_FORM = "ClosedForm"
SDP = "Sdp"
OVERRIDE = "Override"


@dataclass(frozen=True)
class PenaltyBound:
    """Outer estimates (r1, r2) of the hypercube extrema and rho = max(|r1|, |r2|).

    On the SDP path, r1 and r2 are bounds certified by the solves' dual
    multipliers, so rho keeps its domination property under approximate
    solves.  The side of smaller magnitude is only solved until its bound
    is inside [-rho, rho] (``shor_box_extrema``): it is certified but may be
    looser than its relaxation's optimum, and rho is the same as with both
    sides solved to tolerance.
    """

    r1: float
    r2: float
    rho: float
    method: str

    def __post_init__(self):
        if self.r1 > self.r2:
            raise ValueError("r1 must not exceed r2")
        if self.rho != max(abs(self.r1), abs(self.r2)):
            raise ValueError("rho must equal max(|r1|, |r2|)")

    @property
    def penalty_m(self) -> float:
        return 2.0 * self.rho + 1.0


def _moment_cost(c: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Cost matrix C with <C, Y> = c'x + <F, X> on Y = [[X, x], [x', 1]]."""
    n = c.shape[0]
    C = np.zeros((n + 1, n + 1))
    C[:n, :n] = F
    C[:n, n] = c / 2.0
    C[n, :n] = c / 2.0
    return C


def shor_box_extrema(c, F, cfg: SolverConfig = SolverConfig()) -> tuple[float, float]:
    """Outer extrema of c'x + x'Fx over the unit-diagonal moment relaxation.

    Returns (r1, r2) with r1 <= min over the hypercube <= max <= r2, each
    the bound certified by its solve's dual multipliers
    (``certified_diag_bound``), so the containment holds regardless of
    solve accuracy.  Only the larger of |r1| and |r2| becomes rho, so the
    side likely to set it, Max where |lambda_max(C)| >= |lambda_min(C)| of
    the moment cost C and Min otherwise, is solved first (``solve_sdp``),
    giving R.  The other side stops as soon as its certified bound lies in
    [-R, R] (``stop_at``), which is looser than its optimum but leaves
    max(|r1|, |r2|) = R, and its bound is the certificate that stopped it
    (``SdpSolution.bound``); where the pick was wrong, it runs to
    convergence.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    F = np.zeros((c.size, c.size)) if F is None else np.asarray(F, dtype=float)
    C = _moment_cost(c, F)
    unit = np.ones(C.shape[0])

    def side(sense, stop_at=None):
        p = SdpProblem(C=C, sense=sense, diag=unit)
        sol = solve_sdp(p, cfg, stop_at=stop_at)
        return certified_diag_bound(p, sol.y) if sol.bound is None else sol.bound

    low, high = np.linalg.eigvalsh(C)[[0, -1]]
    if abs(high) >= abs(low):
        r2 = side(Sense.MAX)
        return side(Sense.MIN, stop_at=-abs(r2)), r2
    r1 = side(Sense.MIN)
    return r1, side(Sense.MAX, stop_at=abs(r1))


def rho(c, F, cfg: SolverConfig = SolverConfig()) -> PenaltyBound:
    """Penalty constant dominating |c'x + x'Fx| over the sign hypercube.

    A zero quadratic part short-circuits to the exact closed form
    r2 = -r1 = sum(|c_i|); otherwise (r1, r2) are ``shor_box_extrema``.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if F is None or np.count_nonzero(F) == 0:
        s = float(np.abs(c).sum())
        return PenaltyBound(r1=-s, r2=s, rho=s, method=CLOSED_FORM)
    r1, r2 = shor_box_extrema(c, F, cfg)
    return PenaltyBound(r1=r1, r2=r2, rho=max(abs(r1), abs(r2)), method=SDP)


def rho_override(value: float) -> PenaltyBound:
    """A user-supplied penalty constant (the equivalence guarantee is then theirs)."""
    v = float(value)
    if not (v >= 0.0 and np.isfinite(v)):
        raise ValueError("penalty override must be a finite nonnegative number")
    return PenaltyBound(r1=-v, r2=v, rho=v, method=OVERRIDE)
