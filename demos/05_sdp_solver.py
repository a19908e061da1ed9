"""Drive the ADMM semidefinite solver directly.

The solver alternates an affine projection (least-change update satisfying
the fixed diagonal and the trace constraints), a cone projection (PSD, or
PSD intersected with the nonnegative orthant), and a scaled dual update.  It
reports primal and dual residuals.  Widening the objective by
primal_residual * ||C||_F does not make it a bound; for the unit-diagonal
family, certified_diag_bound turns any returned X into a dual-certified
bound, which is what shor_maxcut and rho report.
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
sol = solve_sdp(SdpProblem(C=C, diag=np.ones(2), sense=Sense.MIN,
                           cone=Cone.PSD_NONNEG), cfg)
print(f"  objective {sol.objective:+.9f}   status {sol.status.name}")

# a larger random MAX-CUT-style form: the SDP value floors the hypercube min
rng = np.random.default_rng(7)
d = 12
G = rng.normal(size=(d, d))
Q = (G + G.T) / 2
sol = solve_sdp(SdpProblem(C=Q, diag=np.ones(d), sense=Sense.MIN),
                SolverConfig(eps_abs=1e-7, eps_rel=1e-6, max_iter=100000))

X = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0
exact = (X @ Q * X).sum(1).min()
floor = certified_diag_bound(Q, sol.X, Sense.MIN)
print(f"\nrandom d={d} quadratic form: enumerated minimum {exact:.6f}, "
      f"certified SDP floor {floor:.6f}")
