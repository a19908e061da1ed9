"""Reduction of an equality-constrained sign program to an unconstrained
MAX-CUT quadratic form.

The constraint system is folded into the objective with weight M = 2*rho + 1:
f(x) = c'x + x'Fx + M*||Ax - b||^2.  Because A and b are integer, every
infeasible sign point pays at least M, which pushes its value strictly above
rho while feasible points keep their original objective.  Homogenizing the
linear part with one extra variable x0 (the LAST index) turns f into a pure
quadratic form Q, i.e. a MAX-CUT-type instance on n+1 nodes, whose hypercube
minimum equals the constrained optimum whenever the program is feasible and
exceeds rho when it is not.
"""

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import SignProgram
from .penalty import PenaltyBound, _moment_cost


def penalized_objective(q: SignProgram, pb: PenaltyBound):
    """Quadratic data (c', F', const) of the penalized objective f.

    F' = F + M*A'A, c' = c - 2M*A'b, const = M*b'b with M = 2*rho + 1.
    """
    M = pb.penalty_m
    A = q.A.astype(float)
    b = q.b.astype(float)
    F_p = q.F + M * (A.T @ A)
    c_p = q.c - 2.0 * M * (A.T @ b)
    const = M * float(b @ b)
    return c_p, F_p, const


@dataclass(frozen=True)
class MaxCutInstance:
    """Symmetric (n+1)x(n+1) form Q with the homogenization variable last.

    `penalty` is the PenaltyBound that Q was built with: it holds rho and
    the weight M = 2 rho + 1 of the constraint term.  `source` keeps the
    originating sign program so recovered solutions can be mapped back
    (feasibility against A, b; objective in original units via the
    program's scale and offset).
    """

    Q: np.ndarray
    penalty: PenaltyBound
    source: SignProgram

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        d = self.source.n + 1
        if Q.shape != (d, d):
            raise ValueError(f"Q must be {d}x{d} for an n={self.source.n} source")
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be exactly symmetric")
        Q = Q.copy()
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def value(self, spin) -> float:
        """Raw quadratic form value s'Qs of a full (n+1)-spin vector."""
        s = np.asarray(spin, dtype=float)
        return float(s @ self.Q @ s)


def homogenize(q: SignProgram, pb: PenaltyBound) -> MaxCutInstance:
    """Build Q = [[F + M*A'A, (c - 2M*A'b)/2], [(c - 2M*A'b)'/2, M*b'b]].

    The identity (x, 1)' Q (x, 1) = f(x) holds for every x, and the even
    symmetry Q(-s) = Q(s) makes the +/- labelling of the x0 node arbitrary.
    """
    c_p, F_p, const = penalized_objective(q, pb)
    Q = _moment_cost(c_p, F_p)
    Q[q.n, q.n] = const
    return MaxCutInstance(Q=Q, penalty=pb, source=q)


class RecoveredSolution(NamedTuple):
    x_sign: np.ndarray
    x_zero_one: np.ndarray
    objective: float
    feasible: bool


def recover_solution(mc: MaxCutInstance, spin) -> RecoveredSolution:
    """Map a full spin vector back to original variables.

    The quadratic form is even, so spins with x0 = -1 are globally flipped to
    fix x0 = +1; the objective is the source program's (unpenalized) value in
    original units and feasibility is checked exactly on integer A x - b.
    """
    s = np.asarray(np.round(spin), dtype=np.int64)
    if s.shape != (mc.dim,):
        raise ValueError(f"spin vector must have length {mc.dim}")
    if not np.all(np.abs(s) == 1):
        raise ValueError("spin entries must be +1 or -1")
    if s[-1] == -1:
        s = -s
    x = s[:-1]
    return RecoveredSolution(
        x_sign=x,
        x_zero_one=(x + 1) // 2,
        objective=mc.source.objective(x),
        feasible=mc.source.is_feasible(x),
    )


@dataclass(frozen=True)
class SparsityGraph:
    """Nonzero coupling pattern of Q: nodes 0..n, edges (i, j, Q_ij) with i < j."""

    n_nodes: int
    edges: tuple

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def sparsity_graph(mc: MaxCutInstance) -> SparsityGraph:
    """Edges are the nonzero off-diagonal couplings of Q.

    Variable pairs with F_ij = 0 whose constraint columns are orthogonal
    (sum_k A_ki A_kj = 0) never produce an edge: the penalty contributes
    M*(A'A)_ij there, which is zero structurally or by cancellation.
    """
    i, j = np.nonzero(np.triu(mc.Q, k=1))  # row-major: (i, j) in lexicographic order
    return SparsityGraph(n_nodes=mc.dim,
                         edges=tuple(zip(i.tolist(), j.tolist(), mc.Q[i, j].tolist())))


def penalty_ratio(mc: MaxCutInstance) -> float:
    """Conditioning diagnostic ||M*A'A||_F / ||F||_F (inf when F = 0 but A isn't)."""
    A = mc.source.A.astype(float)
    num = mc.penalty.penalty_m * np.linalg.norm(A.T @ A)
    den = np.linalg.norm(mc.source.F)
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def export_rudy(mc: MaxCutInstance, path) -> None:
    """Write the coupling graph as `n_nodes n_edges` then `i j w` lines.

    Node indices are 1-based with i < j; weights carry 17 significant digits
    so the quadratic form is reproducible bit-for-bit from the file.
    """
    g = sparsity_graph(mc)
    lines = [f"{g.n_nodes} {g.n_edges}"]
    for i, j, w in g.edges:
        lines.append(f"{i + 1} {j + 1} {w:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_q_json(mc: MaxCutInstance, path) -> None:
    """JSON dump of Q plus the bookkeeping needed to interpret cut values."""
    doc = {
        "n_nodes": mc.dim,
        "Q": mc.Q.tolist(),
        "rho": mc.penalty.rho,
        "penalty_m": mc.penalty.penalty_m,
        "offset": mc.source.offset,
        "scale": mc.source.scale,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
