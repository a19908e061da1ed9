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

    On the SDP path, r1 and r2 are dual-certified bounds recovered from the
    approximate primal solutions, so rho keeps its domination property under
    approximate solves.
    """

    r1: float
    r2: float
    rho: float
    method: str
    statuses: tuple = ()

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


def _moment_extrema(c, F, cfg: SolverConfig):
    """Dual-certified (r1, r2) and the two solve statuses of the moment relaxation."""
    C = _moment_cost(c, F)
    unit = np.ones(C.shape[0])
    lo = solve_sdp(SdpProblem(C=C, sense=Sense.MIN, diag=unit), cfg)
    hi = solve_sdp(SdpProblem(C=C, sense=Sense.MAX, diag=unit), cfg)
    r1 = certified_diag_bound(C, lo.X, Sense.MIN)
    r2 = certified_diag_bound(C, hi.X, Sense.MAX)
    return r1, r2, (lo.status, hi.status)


def shor_box_extrema(c, F, cfg: SolverConfig = SolverConfig()) -> tuple[float, float]:
    """Outer extrema of c'x + x'Fx over the unit-diagonal moment relaxation.

    Returns (r1, r2) with r1 <= min over the hypercube <= max <= r2.  Each
    side is a dual-certified bound recovered from the approximate primal
    solution, so the containment holds regardless of solve accuracy.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    F = np.zeros((c.size, c.size)) if F is None else np.asarray(F, dtype=float)
    r1, r2, _ = _moment_extrema(c, F, cfg)
    return r1, r2


def rho(c, F, cfg: SolverConfig = SolverConfig()) -> PenaltyBound:
    """Penalty constant dominating |c'x + x'Fx| over the sign hypercube.

    A zero quadratic part short-circuits to the exact closed form
    r2 = -r1 = sum(|c_i|); otherwise both moment SDP extrema are solved.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    F = np.zeros((n, n)) if F is None else np.asarray(F, dtype=float)
    if np.count_nonzero(F) == 0:
        s = float(np.abs(c).sum())
        return PenaltyBound(r1=-s, r2=s, rho=s, method=CLOSED_FORM)
    r1, r2, statuses = _moment_extrema(c, F, cfg)
    return PenaltyBound(
        r1=r1,
        r2=r2,
        rho=max(abs(r1), abs(r2)),
        method=SDP,
        statuses=statuses,
    )


def rho_override(value: float) -> PenaltyBound:
    """A user-supplied penalty constant (the equivalence guarantee is then theirs)."""
    v = float(value)
    if not (v >= 0.0 and np.isfinite(v)):
        raise ValueError("penalty override must be a finite nonnegative number")
    return PenaltyBound(r1=-v, r2=v, rho=v, method=OVERRIDE)
