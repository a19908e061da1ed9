"""Sandwich upper bound, hyperplane rounding, and infeasibility certification.

The three pieces sit on top of the unit-diagonal SDP: the sandwich combines
its min and max values into an upper bound on the constrained optimum, the
rounding turns its matrix into candidate sign vectors, and the certificate
compares the dual-certified lower bound against the penalty constant to
detect programs with no feasible point.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .instances import STREAM_GW, _stream
from .penalty import PenaltyBound
from .reduction import MaxCutInstance, RecoveredSolution, recover_solution

FEASIBLE = "Feasible"
INFEASIBLE_BY_GAP = "InfeasibleByGap"
UNKNOWN = "Unknown"


def nesterov_sandwich(min_q: float, max_q: float) -> float:
    """Upper bound (2/pi)*min_q + (1 - 2/pi)*max_q on the hypercube minimum.

    Together with min_q itself this sandwiches the optimum of the quadratic
    form; the combination is affine with weights summing to one, so it can be
    applied in raw or original units interchangeably.
    """
    if min_q > max_q:
        raise ValueError("min_q must not exceed max_q")
    w = 2.0 / math.pi
    return w * min_q + (1.0 - w) * max_q


class RoundingResult(NamedTuple):
    spin: np.ndarray
    value: float               # raw quadratic-form value s'Qs
    feasible: bool
    recovered: RecoveredSolution


def _one_opt_polish(Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Greedy best-improvement single-spin flips on each row of S until locally optimal.

    All rows descend together, and each round takes every unfinished row's
    gradient g = Q s afresh.  numpy's matmul runs the matrix-vector kernel
    once per stacked (d, 1) operand, the same call ``Q @ s`` makes, so every
    row takes exactly the flips that polishing it alone would, near-ties
    included; ``S @ Q``, a matrix-matrix product, rounds differently.
    """
    S = np.array(S, dtype=float)
    diag = 4.0 * np.diag(Q)
    rows = np.arange(S.shape[0])
    while rows.size:
        D = -4.0 * S[rows] * (Q @ S[rows][:, :, None])[:, :, 0] + diag
        i = np.argmin(D, axis=1)
        move = D[np.arange(rows.size), i] < -1e-12
        rows, i = rows[move], i[move]
        S[rows, i] = -S[rows, i]
    return S


def gw_round(X: np.ndarray, mc: MaxCutInstance, trials: int = 200, seed: int = 0,
             polish: bool = False) -> RoundingResult:
    """Best-of-`trials` random-hyperplane rounding of a unit-diagonal SDP matrix.

    The matrix is factored as V'V by eigendecomposition (tiny negative
    eigenvalues clipped).  Trial k of T takes the signs of
    sqrt(1 - k/T) V'r + sqrt(k/T) r2 for standard normal r and r2: trial 0 is
    plain Goemans-Williamson rounding, and later trials apply ever larger
    outward rotations (Zwick, STOC 1999), which blend in independent signs.
    A low-rank optimum on its own yields few distinct cuts; the rotations
    spread the trials over more of them.  The spin vector with the lowest
    quadratic-form value wins (ties keep the earliest trial), and
    ``recover_solution`` fixes its homogenization spin at +1 by a global
    flip: the returned spin is that x_sign followed by +1.  The values
    come from one BLAS product of the trials with Q, whose sums round in
    their own order, so of trials whose values tie within round-off it may
    pick another than a trial-by-trial s'Qs would.  With
    ``polish`` every sample first descends by greedy single-spin flips; on
    penalized instances this drives samples toward the feasible corners,
    which dominate once the penalty is active.  Fully deterministic given
    (seed, trials, polish).
    """
    X = np.asarray(X, dtype=float)
    d = mc.dim
    if X.shape != (d, d):
        raise ValueError(f"X must be {d}x{d}")
    if np.max(np.abs(np.diag(X) - 1.0)) > 1e-3:
        raise ValueError("X is too far from unit diagonal to round")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    w, P = np.linalg.eigh((X + X.T) / 2.0)
    V = (P * np.sqrt(np.maximum(w, 0.0))).T  # columns are the unit-ish vectors

    rng = _stream(seed, STREAM_GW)
    R = rng.normal(size=(trials, d))
    R2 = rng.normal(size=(trials, d))
    t = (np.arange(trials) / trials)[:, None]
    signs = np.where(np.sqrt(1.0 - t) * (R @ V) + np.sqrt(t) * R2 >= 0.0,
                     1, -1).astype(np.int64)
    if polish:
        signs = _one_opt_polish(mc.Q, signs).astype(np.int64)
    vals = np.einsum("ti,ti->t", signs @ mc.Q, signs)
    rec = recover_solution(mc, signs[int(np.argmin(vals))])
    s = np.append(rec.x_sign, 1)
    return RoundingResult(spin=s, value=mc.value(s), feasible=rec.feasible, recovered=rec)


@dataclass(frozen=True)
class Certificate:
    kind: str
    explanation: str
    value: float | None = None      # objective of the feasible point (original units)
    point: np.ndarray | None = None  # sign-domain feasible point
    bound: float | None = None      # dual-certified lower bound used in the gap test
    rho: float | None = None        # penalty threshold in the same units as bound


def certify(report, pb: PenaltyBound) -> Certificate:
    """Decide Feasible / InfeasibleByGap / Unknown from a BoundReport.

    The gap test is sound by construction: it reads the min-sense SDP
    entry's ``bound``, its value lowered by its inflation to the bound its
    dual multipliers certify, so clearing rho genuinely implies that every
    sign point pays the penalty, i.e. no feasible point exists.
    The feasible verdict only ever comes from an explicitly checked point
    (hyperplane rounding); bounds alone never prove feasibility.
    """
    entry = report.entries.get("maxcut_shor_min")
    if entry is not None and entry.usable:
        safe_lb = entry.bound
        if safe_lb > report.rho_original:
            return Certificate(
                kind=INFEASIBLE_BY_GAP,
                explanation=(
                    f"lower bound {safe_lb:.6g} on the penalized form exceeds the "
                    f"penalty threshold {report.rho_original:.6g}; no sign point "
                    "can satisfy the constraints"
                ),
                bound=safe_lb,
                rho=report.rho_original,
            )
    rounding = report.rounding
    if rounding is not None and rounding.feasible:
        rec = rounding.recovered
        return Certificate(
            kind=FEASIBLE,
            explanation=(
                f"rounding produced a feasible point with objective {rec.objective:.6g}"
            ),
            value=rec.objective,
            point=rec.x_sign,
        )
    return Certificate(
        kind=UNKNOWN,
        explanation="gap test inconclusive and no feasible point was found",
    )
