"""Drive the semidefinite solvers directly.

An SDP here fixes a positive diagonal or states rows, and each shape has
its own primal-dual interior-point method.  A fixed diagonal on the PSD
cone (the first three problems and the random form below) goes to the
one built on that diagonal, on the whole cone or on the face X K' = 0 of an
integer matrix K (``SdpProblem(face=K)``, as ``lasserre1`` does with
K = [A, -b]): on the whole cone its iterates stay primal feasible, so the
primal residual reads zero.  Rows of
``A``, on the PSD cone or on the doubly-nonnegative cone, go to the
second, which also keeps the entries of X nonnegative and takes a face too
(as ``copositive_dnn`` does); the doubly-nonnegative problem below states
its unit diagonal as the rows X_ii = 1.  Both keep their multipliers
(``sol.y``, one per diagonal entry or row, and ``sol.W`` for the orthant)
dual feasible, and certified_diag_bound turns a problem and those
multipliers into a dual-certified bound at any iteration, which is what
every SDP-backed bound reports.
"""

import numpy as np

from maxcut_bridge import (
    Cone,
    SdpProblem,
    Sense,
    SolverConfig,
    certified_diag_bound,
    solve_sdp,
)

C = np.array([[0.0, 1.0], [1.0, 0.0]])
cfg = SolverConfig(eps_abs=1e-9, eps_rel=1e-9, max_iter=200000)

print("minimize  <C, X>  over unit-diagonal X (exact value -2):")
sol = solve_sdp(SdpProblem(C=C, diag=np.ones(2), sense=Sense.MIN), cfg)
print(f"  objective {sol.objective:+.9f}   status {sol.status.name}"
      f"   primal residual {sol.primal_residual:.2e}")

print("maximize  <C, X>  (exact value +2):")
sol = solve_sdp(SdpProblem(C=C, diag=np.ones(2), sense=Sense.MAX), cfg)
print(f"  objective {sol.objective:+.9f}   status {sol.status.name}")

print("minimize on the face X (1, -1)' = 0, where X = [[1, 1], [1, 1]] (exact value +2):")
sol = solve_sdp(SdpProblem(C=C, diag=np.ones(2), sense=Sense.MIN, face=np.array([[1, -1]])), cfg)
print(f"  objective {sol.objective:+.9f}   status {sol.status.name}")

print("minimize over PSD and entrywise-nonnegative X (exact value 0):")
unit_rows = [np.diag(e) for e in np.eye(2)]  # <E_ii, X> = X_ii
p = SdpProblem(C=C, A=unit_rows, b=np.ones(2), sense=Sense.MIN, cone=Cone.PSD_NONNEG)
sol = solve_sdp(p, cfg)
print(f"  objective {sol.objective:+.9f}   status {sol.status.name}"
      f"   certified floor {certified_diag_bound(p, sol.y, sol.W):+.9f}")

# a larger random MAX-CUT-style form: the SDP value floors the hypercube min
rng = np.random.default_rng(7)
d = 12
G = rng.normal(size=(d, d))
Q = (G + G.T) / 2
p = SdpProblem(C=Q, diag=np.ones(d), sense=Sense.MIN)
sol = solve_sdp(p, SolverConfig(eps_abs=1e-7, eps_rel=1e-6, max_iter=100000))

X = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0
exact = (X @ Q * X).sum(1).min()
floor = certified_diag_bound(p, sol.y)
print(f"\nrandom d={d} quadratic form: enumerated minimum {exact:.6f}, "
      f"certified SDP floor {floor:.6f}")
