"""Reformulate linear/quadratic 0/1 programs as MAX-CUT and bound them.

The pipeline: move the program onto the {-1,1} hypercube, fold the integer
equality constraints into the objective with a computed penalty constant,
homogenize to a quadratic form in n+1 variables, then bound the optimum with
built-in interior-point semidefinite solvers (one for the fixed-diagonal
Shor/MAX-CUT, penalty-constant and Lasserre level-1 SDPs, one restricted to
the face facial reduction finds for the doubly-nonnegative bound), an LP box
relaxation, a convex-quadratic eigenvalue-shift relaxation,
Goemans-Williamson rounding with outward rotations and an infeasibility
certificate.
"""

from .model import (
    EQ,
    LE,
    InfeasibleRowError,
    InstanceFormatError,
    SignProgram,
    ZeroOneProgram,
    load_instance,
    program_from_dict,
    program_to_dict,
    save_instance,
    slack_expand,
    to_sign_form,
    to_zero_one,
)
from .sdp import (Cone, Sense, SdpProblem, SdpSolution, SolveStatus,
                  SolverConfig, certified_diag_bound, project_psd, solve_sdp)
from .penalty import PenaltyBound, rho, rho_override, shor_box_extrema
from .reduction import (
    MaxCutInstance,
    SparsityGraph,
    export_q_json,
    export_rudy,
    homogenize,
    penalized_objective,
    penalty_ratio,
    recover_solution,
    sparsity_graph,
)
from .instances import GeneratorSpec, brute_force, kcluster, knapsack_fixed, knapsack_random, quadratic_knapsack_random
from .relaxations import (
    BoundReport,
    compute_bounds,
    convex_quadratic_relaxation,
    copositive_dnn,
    lasserre1,
    lp_box,
    shor_maxcut,
    solve_lp,
)
from .bounds import Certificate, certify, gw_round, nesterov_sandwich

__version__ = "0.1.0"

__all__ = [
    "EQ",
    "LE",
    "BoundReport",
    "Certificate",
    "Cone",
    "GeneratorSpec",
    "InfeasibleRowError",
    "InstanceFormatError",
    "MaxCutInstance",
    "PenaltyBound",
    "SdpProblem",
    "SdpSolution",
    "Sense",
    "SignProgram",
    "SolveStatus",
    "SolverConfig",
    "SparsityGraph",
    "ZeroOneProgram",
    "brute_force",
    "certified_diag_bound",
    "certify",
    "compute_bounds",
    "convex_quadratic_relaxation",
    "copositive_dnn",
    "export_q_json",
    "export_rudy",
    "gw_round",
    "homogenize",
    "kcluster",
    "knapsack_fixed",
    "knapsack_random",
    "lasserre1",
    "load_instance",
    "lp_box",
    "nesterov_sandwich",
    "penalized_objective",
    "penalty_ratio",
    "program_from_dict",
    "program_to_dict",
    "project_psd",
    "quadratic_knapsack_random",
    "recover_solution",
    "rho",
    "rho_override",
    "save_instance",
    "shor_box_extrema",
    "shor_maxcut",
    "slack_expand",
    "solve_lp",
    "solve_sdp",
    "sparsity_graph",
    "to_sign_form",
    "to_zero_one",
]
