"""From a constrained 0/1 program to an unconstrained MAX-CUT instance.

Builds a tiny knapsack-style program with one inequality, expands the
inequality into equality form with binary slack bits, converts to the sign
domain, sizes the penalty constant, and homogenizes into a single symmetric
matrix Q whose hypercube minimum solves the original problem.  Finally the
instance is exported in rudy edge-list form and as a JSON matrix, into a
fresh temporary directory that is removed when the script ends; the rudy
file is printed.
"""

import os
import tempfile

import numpy as np

from maxcut_bridge import (
    LE,
    ZeroOneProgram,
    export_q_json,
    export_rudy,
    homogenize,
    rho,
    slack_expand,
    sparsity_graph,
    to_sign_form,
)

# minimize 3*x1 + 2*x2 - 4*x3  subject to  x1 + x2 + 2*x3 <= 2,  x in {0,1}^3
program = ZeroOneProgram(
    n=3,
    c=np.array([3.0, 2.0, -4.0]),
    F=None,
    A=np.array([[1.0, 1.0, 2.0]]),
    b=np.array([2.0]),
    row_sense=[LE],
)
print("original 0/1 program:   n =", program.n, " rows =", program.m)

expanded = slack_expand(program)
print("after slack expansion:  n =", expanded.n,
      f"({expanded.n - program.n} slack bits), all rows are equalities")

sign = to_sign_form(expanded)
print("sign-domain program:    original = "
      f"{sign.scale:g} * raw + {sign.offset:g}")

pb = rho(sign.c, sign.F)
print(f"penalty bound:          rho = {pb.rho:.6g}, "
      f"M = 2*rho + 1 = {pb.penalty_m:.6g}")

mc = homogenize(sign, pb)
print("homogenized form Q:     dimension", mc.dim,
      "(one auxiliary coordinate, placed last)")
print(np.array_str(mc.Q, precision=3, suppress_small=True))

graph = sparsity_graph(mc)
print(f"as a graph:             {graph.n_nodes} nodes, {graph.n_edges} edges")

with tempfile.TemporaryDirectory(prefix="demo_reduction_") as out_dir:
    rudy = os.path.join(out_dir, "demo_reduction.rudy")
    export_rudy(mc, rudy)
    export_q_json(mc, os.path.join(out_dir, "demo_reduction.json"))
    print(f"wrote demo_reduction.rudy and demo_reduction.json to {out_dir}:")
    print(open(rudy).read(), end="")

# enumerate the sign hypercube to confirm the reduction is exact
d = mc.dim
X = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1) * 2.0 - 1.0
theta = (X @ mc.Q * X).sum(1).min()
print(f"hypercube minimum of Q: {sign.to_original(theta):.6g} "
      "(equals the constrained optimum of the 0/1 program)")
