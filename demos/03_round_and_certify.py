"""Hyperplane rounding on a feasible instance; a gap certificate on an
infeasible one.

Rounding draws random hyperplanes through the Gram factor of the SDP
solution, keeps the best sign vector, and maps it back to 0/1 variables.
Certification compares the deflated SDP lower bound against the penalty
threshold rho: any value strictly above rho proves that no feasible point
exists, because every feasible point would cost at most rho.
"""

from maxcut_bridge import (
    Sense,
    SolverConfig,
    certify,
    compute_bounds,
    gw_round,
    homogenize,
    kcluster,
    knapsack_fixed,
    rho,
    shor_maxcut,
)

cfg = SolverConfig(eps_abs=1e-7, eps_rel=1e-6, max_iter=100000)

# --- feasible: the four-variable knapsack with its largest right-hand side
feasible = knapsack_fixed(4, 34)
pb = rho(feasible.c, feasible.F, cfg)
mc = homogenize(feasible, pb)
sdp = shor_maxcut(mc, Sense.MIN, cfg)
rounded = gw_round(sdp.solution.X, mc, trials=200, seed=0)
rec = rounded.recovered
print("feasible knapsack:")
print("  SDP lower bound ", f"{sdp.value:.6f}")
print("  rounded point   ", rec.x_zero_one.astype(int),
      f"objective {rec.objective:.6f}",
      "feasible" if rec.feasible else "infeasible")

report = compute_bounds(feasible, selectors=["maxcut_shor_min"], cfg=cfg,
                        pb=pb, gw_trials=200)
print("  certificate     ", certify(report, pb).kind)

# --- infeasible: ask a 6-vertex graph for a 7-vertex cluster
impossible = kcluster(6, 7, zero_prob=0.5, seed=6)[1]
pb2 = rho(impossible.c, impossible.F, cfg)
report2 = compute_bounds(impossible, selectors=["maxcut_shor_min"], cfg=cfg,
                         pb=pb2, gw_trials=200)
cert = certify(report2, pb2)
print("\nimpossible cluster (k = n + 1):")
print("  verdict         ", cert.kind)
print("  explanation     ", cert.explanation)
