"""Run every lower bound on one instance and read the report.

The report gathers, for a single sign-domain program: the homogenized SDP
bound in both senses, the level-1 moment relaxation, the LP box relaxation
(linear objectives only), the convex eigenvalue-shift relaxation, the
doubly-nonnegative bound on the lifted 0/1 form, and exact enumeration for
reference.  Every entry shows original-problem units plus the raw sign-form
value, a status, the inflation that keeps approximate bounds honest (the
gap to a dual certificate for every SDP entry), and the certified bound,
the value widened by that inflation in the entry's sense.
"""

from maxcut_bridge import SolverConfig, compute_bounds, knapsack_random

# a random equality knapsack: costs close to the weights, right-hand side 14
instance = knapsack_random(n=6, s=3.0, seed=5, b=14)
print("instance: n =", instance.n, " constraint row:", instance.A[0],
      "= ", instance.b[0])

cfg = SolverConfig(eps_abs=1e-7, eps_rel=1e-6, max_iter=100000)
dnn_budget = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=100)
report = compute_bounds(instance, cfg=cfg, gw_trials=200, dnn_cfg=dnn_budget)

print(f"\npenalty rho = {report.rho_original:.6g}, "
      f"M = {report.penalty.penalty_m:.6g}\n")
print(f"{'entry':<18} {'status':<15} {'value':>15} {'inflation':>11} {'bound':>15}")
for name, entry in report.entries.items():
    print(f"{name:<18} {entry.status:<15} {entry.value:>15.6f} "
          f"{entry.inflation:>11.2e} {entry.bound:>15.6f}")

exact = report.entries["brute_force"].value
print(f"\nexact optimum {exact:.6f}; every usable min-sense bound above is a "
      "valid floor (maxcut_shor_max bounds the penalized form from above).")

rounding = report.rounding
print("best rounded point:", rounding.recovered.x_zero_one.astype(int),
      f"objective {rounding.recovered.objective:.6f}",
      "(feasible)" if rounding.recovered.feasible else "(infeasible)")
