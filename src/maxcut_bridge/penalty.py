"""Penalty constant sizing for folding equality constraints into the objective.

The constant rho must dominate |c's + s'Fs| over the whole sign hypercube.
Any such rho is sound: the reduction needs only that every infeasible point
pays more than the objective can vary, and a larger rho only raises the
weight M = 2 rho + 1 of a term that is nonnegative on the PSD cone, so the
Shor bound can only rise with it.  Two bounds hold at every sign point s:

    |s'Fs| <= sum_ij |F_ij|                        (as |s_i s_j| = 1)
    |s'Fs| <= ||s||^2 max|lambda(F)| = n max(|lambda_min(F)|, |lambda_max(F)|)

and |c's| <= sum_i |c_i|, so rho is sum |c_i| plus the smaller of the two:
one ``eigvalsh`` and no solve.  With F = 0 it is the exact extremum
sum |c_i|.  ``shor_box_extrema`` keeps the unit-diagonal moment relaxation
of both extrema, which is never looser than rho and is solved on request.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sdp import SdpProblem, Sense, SolverConfig, _asymmetric, certified_diag_bound, solve_sdp


@dataclass(frozen=True)
class PenaltyBound:
    """A penalty constant rho >= |c's + s'Fs| on the hypercube: the closed
    form of ``rho``, or a value the caller supplies, whose equivalence
    guarantee is then theirs.  A negative, infinite or NaN rho is refused."""

    rho: float

    def __post_init__(self):
        if not (self.rho >= 0.0 and math.isfinite(self.rho)):
            raise ValueError("rho must be a finite nonnegative number")

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
    solve accuracy.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    F = np.zeros((c.size, c.size)) if F is None else np.asarray(F, dtype=float)
    C = _moment_cost(c, F)
    unit = np.ones(C.shape[0])

    def side(sense):
        p = SdpProblem(C=C, sense=sense, diag=unit)
        return certified_diag_bound(p, solve_sdp(p, cfg).y)

    return side(Sense.MIN), side(Sense.MAX)


def _sum_up(terms: list) -> float:
    """The least float at or above the exact sum of the floats ``terms``."""
    total = math.fsum(terms)
    return math.nextafter(total, math.inf) if math.fsum([*terms, -total]) > 0.0 else total


def rho(c, F, cfg: SolverConfig = SolverConfig()) -> PenaltyBound:
    """Penalty constant dominating |c'x + x'Fx| over the sign hypercube.

    rho = sum |c_i| + min(sum_ij |F_ij|, n max(|lambda_min(F)|, |lambda_max(F)|)),
    with F = None read as zero.  It is exact for a linear objective.  It is
    rounded up so that round-off cannot leave it below the exact maximum:
    both sums are taken exactly and then rounded up (``_sum_up``), and the
    eigenvalue term is widened by the factor 1 + 4 n eps, above the error of
    computed eigenvalues, which LAPACK bounds by a slowly growing multiple
    of eps max|lambda(F)| (at most 8 eps, relative, on n <= 40 sign
    patterns where the bound is tight).  ``c`` must be a finite vector and
    ``F`` None or a finite symmetric n x n matrix (ValueError naming the
    argument otherwise).  ``cfg`` is accepted for callers that pass a
    solver configuration; no solve is made, so it has no effect.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"c must be a vector, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("c must be finite")
    n = c.size
    F = np.zeros((n, n)) if F is None else np.asarray(F, dtype=float)
    if F.shape != (n, n):
        raise ValueError(f"F must be {n}x{n}, got shape {F.shape}")
    if not np.isfinite(F).all():
        raise ValueError("F must be finite")
    if _asymmetric(F):
        raise ValueError("F must be symmetric")
    F = (F + F.T) / 2.0
    extreme = float(np.abs(np.linalg.eigvalsh(F)).max(initial=0.0))
    spectral = n * extreme * (1.0 + 4 * n * np.finfo(float).eps)
    quadratic = min(_sum_up(np.abs(F).ravel().tolist()), spectral)
    return PenaltyBound(rho=_sum_up([*np.abs(c).tolist(), quadratic]))
