"""Independent correctness oracle for the benchmark.

Reference optima come from this module's own enumeration of the sign
hypercube, never from ``maxcut_bridge.instances.brute_force``, and every
rounded point is re-evaluated against a penalized form built here from the
raw program data.  ``check`` turns one instance's report into a count of
attempted operations (one per bound entry, rounding and verdict) and a list
of failures.
"""

from dataclasses import dataclass

import numpy as np

ENUM_MAX_N = 20          # reference optimum by enumeration up to this size
BOUND_RTOL = 1e-4        # acceptance criterion C02's tolerance on lower bounds
VALUE_RTOL = 1e-9        # re-evaluation of a rounded point
OPTIMAL_RTOL = 1e-6      # rounding counts as optimal within this of f*

# Status and verdict strings of maxcut_bridge.relaxations and .bounds.
CONVERGED, ITERATION_LIMIT, EXACT = "Converged", "IterationLimit", "Exact"
DIVERGED, INFEASIBLE, SKIPPED = "Diverged", "Infeasible", "Skipped"
USABLE = (CONVERGED, ITERATION_LIMIT, EXACT)
FEASIBLE, INFEASIBLE_BY_GAP = "Feasible", "InfeasibleByGap"
MAX_SENSE = ("maxcut_shor_max",)

# ROADMAP "Recent": these two selectors inflate by primal_residual * ||C||,
# which is not a certificate, so an unconverged entry can sit above f*.
# Such failures are counted but do not make the run incorrect.
KNOWN_UNSOUND = ("lasserre1", "copositive_dnn")


@dataclass(frozen=True)
class Failure:
    label: str
    op: str        # bound selector name, "rounding", "verdict" or "report"
    kind: str
    detail: str = ""

    @property
    def known(self) -> bool:
        """The documented heuristic-inflation defect (see KNOWN_UNSOUND)."""
        return self.kind == "unsound_unconverged" and self.op in KNOWN_UNSOUND


def _grid(n: int, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi, dtype=np.int64)[:, None]
    return ((idx >> np.arange(n)) & 1) * 2.0 - 1.0


def enumerate_optimum(q) -> float:
    """Constrained minimum of a sign program in original units (inf if infeasible)."""
    n = q.n
    c, F = np.asarray(q.c, float), np.asarray(q.F, float)
    A, b = np.asarray(q.A, float), np.asarray(q.b, float)
    best = np.inf
    step = 1 << min(n, 14)
    for lo in range(0, 1 << n, step):
        X = _grid(n, lo, min(lo + step, 1 << n))
        X = X[np.all(X @ A.T == b, axis=1)]  # integer data: exact in float64
        if len(X):
            best = min(best, float((X @ c + ((X @ F) * X).sum(1)).min()))
    return best if np.isinf(best) else q.scale * best + q.offset


def penalized_form(q, rho: float) -> np.ndarray:
    """Q with (x, 1)'Q(x, 1) = c'x + x'Fx + (2 rho + 1)||Ax - b||^2."""
    n = q.n
    M = 2.0 * rho + 1.0
    A, b = np.asarray(q.A, float), np.asarray(q.b, float)
    Q = np.zeros((n + 1, n + 1))
    Q[:n, :n] = q.F + M * (A.T @ A)
    Q[:n, n] = Q[n, :n] = (q.c - 2.0 * M * (A.T @ b)) / 2.0
    Q[n, n] = M * float(b @ b)
    return Q


def objective(q, x) -> float:
    x = np.asarray(x, float)
    return q.scale * float(q.c @ x + x @ q.F @ x) + q.offset


def is_feasible(q, x) -> bool:
    return bool(np.array_equal(np.asarray(q.A, np.int64) @ np.asarray(x, np.int64), q.b))


def _close(a: float, b: float, rtol: float) -> bool:
    if not (np.isfinite(a) and np.isfinite(b)):
        return a == b
    return abs(a - b) <= rtol * (1.0 + abs(b))


@dataclass
class Outcome:
    """What the checker learned from one instance's report."""

    attempted: int
    failures: list
    feasible: bool = True
    rounded: float | None = None     # objective of a verified feasible rounding
    optimal: bool | None = None      # rounding reaches f* (None: f* unknown)
    certified: bool = False          # verdict InfeasibleByGap
    bracket: float | None = None     # shor_bracket_rel contribution
    converged: int = 0               # solver entries reporting Converged
    solver_entries: int = 0


def check(label, q, feasible, f_star, witness, report, rho, cert) -> Outcome:
    """Check one report and its verdict against the reference data.

    ``f_star`` is the enumerated optimum (None when not enumerated) and
    ``witness`` a known feasible sign point or None; ``rho`` is the penalty
    constant the report was built with.
    """
    fails = []
    out = Outcome(attempted=0, failures=fails, feasible=feasible)

    # Rounding: value must be s'Qs and the feasible flag must be right.
    r = report.rounding
    if r is not None:
        out.attempted += 1
        s = np.asarray(r.spin, np.int64)
        direct = float(s @ penalized_form(q, rho) @ s)
        x = s[:-1] * s[-1]
        ok_feasible = is_feasible(q, x)
        if not _close(r.value, direct, VALUE_RTOL):
            fails.append(Failure(label, "rounding", "value_mismatch", f"{r.value!r} != {direct!r}"))
        elif bool(r.feasible) != ok_feasible:
            fails.append(Failure(label, "rounding", "feasible_flag", f"flag {r.feasible}"))
        elif ok_feasible:
            out.rounded = objective(q, x)
            if not _close(r.recovered.objective, out.rounded, VALUE_RTOL):
                fails.append(Failure(label, "rounding", "objective_mismatch",
                                     f"{r.recovered.objective!r} != {out.rounded!r}"))

    # Best upper reference on the optimum: f* when enumerated, else any
    # verified feasible point.
    upper = f_star
    if upper is None:
        known = [v for v in (out.rounded, None if witness is None else objective(q, witness))
                 if v is not None]
        upper = min(known) if known else None

    for name, e in report.entries.items():
        if e.status == SKIPPED:
            continue
        out.attempted += 1
        if name != "brute_force":
            out.solver_entries += 1
            out.converged += e.status == CONVERGED
        if feasible and e.status in (DIVERGED, INFEASIBLE):
            fails.append(Failure(label, name, "infeasible_on_feasible", e.note[:80]))
        elif e.status not in USABLE and e.status not in (DIVERGED, INFEASIBLE):
            fails.append(Failure(label, name, "unknown_status", e.status))
        elif e.status == EXACT:
            if f_star is not None and not _close(e.value, f_star, VALUE_RTOL):
                fails.append(Failure(label, name, "wrong_optimum", f"{e.value!r} != {f_star!r}"))
        elif e.status in USABLE and name not in MAX_SENSE:
            safe = e.value - e.inflation
            if np.isnan(safe):
                fails.append(Failure(label, name, "nan_bound"))
            elif upper is not None and np.isfinite(upper) \
                    and safe > upper + BOUND_RTOL * (1.0 + abs(upper)):
                kind = "unsound" if e.status == CONVERGED else "unsound_unconverged"
                fails.append(Failure(label, name, kind, f"{safe!r} > {upper!r}"))

    # Verdict: must not contradict the truth; Unknown is never wrong.
    out.attempted += 1
    out.certified = cert.kind == INFEASIBLE_BY_GAP
    if cert.kind == INFEASIBLE_BY_GAP and feasible:
        fails.append(Failure(label, "verdict", "false_infeasible", cert.explanation[:80]))
    elif cert.kind == FEASIBLE:
        x = np.asarray(cert.point, np.int64)
        if not feasible or not is_feasible(q, x):
            fails.append(Failure(label, "verdict", "false_feasible"))
        elif not _close(cert.value, objective(q, x), VALUE_RTOL):
            fails.append(Failure(label, "verdict", "value_mismatch"))

    shor = report.entries.get("maxcut_shor_min")
    if out.rounded is not None and shor is not None and shor.status in USABLE:
        out.bracket = (out.rounded - (shor.value - shor.inflation)) / (1.0 + abs(out.rounded))
    if f_star is not None and np.isfinite(f_star):
        out.optimal = out.rounded is not None and _close(out.rounded, f_star, OPTIMAL_RTOL)
    return out
