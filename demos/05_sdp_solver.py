"""Drive the semidefinite solvers directly.

Every problem goes to a primal-dual interior-point method.  A fixed
positive diagonal on the PSD cone, with or without trace rows (the first two
problems and the random form below), goes to the one built on that
diagonal: without rows its iterates stay primal feasible, so the primal
residual reads zero.  The doubly-nonnegative problem goes to the second,
which also keeps the entries of X nonnegative and can restrict X to a face
V R V' (``SdpProblem(face=V)``, as ``copositive_dnn`` does).  Both keep
their multipliers (``sol.y``, one per row, and ``sol.W`` for the orthant)
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

print("minimize over PSD and entrywise-nonnegative X (exact value 0):")
p = SdpProblem(C=C, diag=np.ones(2), sense=Sense.MIN, cone=Cone.PSD_NONNEG)
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
