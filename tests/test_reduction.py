import numpy as np
import pytest

from maxcut_bridge.model import SignProgram
from maxcut_bridge.penalty import PenaltyBound, rho
from maxcut_bridge.reduction import (
    MaxCutInstance,
    export_q_json,
    export_rudy,
    homogenize,
    penalized_objective,
    penalty_ratio,
    recover_solution,
    sparsity_graph,
)
from strategies import extrema, hypercube

# Example-1 knapsack (n=4): min c'x s.t. a'x = b over {-1,1}^4, rho = sum|c| = 34.
C4 = (13.0, 11.0, 7.0, 3.0)
A4 = (3, 7, 11, 13)


def eval_penalized(q, pb, x):
    r = q.A @ x - q.b
    return q.raw_objective(x) + pb.penalty_m * float(r @ r)


class TestPenalizedObjective:
    def test_single_variable_hand_values(self):
        # f(x) = x + 3(x-1)^2 with rho = 1: f(1) = 1, f(-1) = 11.
        q = SignProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1])
        pb = PenaltyBound(1.0)
        c_p, F_p, const = penalized_objective(q, pb)
        f = lambda x: c_p @ x + x @ F_p @ x + const
        assert f(np.array([1.0])) == pytest.approx(1.0)
        assert f(np.array([-1.0])) == pytest.approx(11.0)

    def test_zero_data(self):
        q = SignProgram(n=2, c=[0.0, 0.0], F=None, A=np.zeros((0, 2)), b=[])
        c_p, F_p, const = penalized_objective(q, PenaltyBound(0.0))
        assert not c_p.any() and not F_p.any() and const == 0.0

    def test_example1_feasible_point_keeps_value(self):
        q = SignProgram(n=4, c=C4, F=None, A=[A4], b=[34])
        pb = rho(q.c, None)
        assert pb.rho == 34.0
        c_p, F_p, const = penalized_objective(q, pb)
        for x in hypercube(4):
            val = c_p @ x + x @ F_p @ x + const
            if q.is_feasible(x):
                assert val == pytest.approx(q.raw_objective(x))
            else:
                assert val > pb.rho

    @pytest.mark.parametrize("seed", range(6))
    def test_gap_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        q = SignProgram(
            n=n, c=rng.normal(size=n), F=None,
            A=rng.integers(-2, 3, size=(2, n)), b=rng.integers(-2, 3, size=2),
        )
        pb = rho(q.c, None)
        for x in hypercube(n):
            if not q.is_feasible(x):
                assert eval_penalized(q, pb, x) > pb.rho


class TestHomogenize:
    def test_single_variable_q_matrix(self):
        q = SignProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1])
        mc = homogenize(q, PenaltyBound(1.0))
        np.testing.assert_allclose(mc.Q, [[3.0, -2.5], [-2.5, 3.0]])
        assert mc.value([1, 1]) == pytest.approx(1.0)
        assert mc.value([-1, 1]) == pytest.approx(11.0)

    def test_unconstrained_block_structure(self):
        F = np.array([[0.0, 2.0], [2.0, 0.0]])
        q = SignProgram(n=2, c=[0.0, 0.0], F=F, A=np.zeros((0, 2)), b=[])
        mc = homogenize(q, PenaltyBound(4.0))
        np.testing.assert_allclose(mc.Q[:2, :2], F)
        assert not mc.Q[2].any() and not mc.Q[:, 2].any()

    def test_identity_with_penalized_objective(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(1, 6))
            B = rng.normal(size=(n, n))
            q = SignProgram(
                n=n, c=rng.normal(size=n), F=B + B.T,
                A=rng.integers(-2, 3, size=(2, n)), b=rng.integers(-2, 3, size=2),
            )
            pb = PenaltyBound(float(rng.uniform(1, 5)))
            mc = homogenize(q, pb)
            for _ in range(20):
                x = rng.normal(size=n)  # identity holds for all real x
                s = np.concatenate([x, [1.0]])
                assert mc.value(s) == pytest.approx(eval_penalized(q, pb, x), rel=1e-12, abs=1e-9)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(11)
        q = SignProgram(n=3, c=rng.normal(size=3), F=None,
                        A=rng.integers(-2, 3, size=(1, 3)), b=[1])
        mc = homogenize(q, rho(q.c, None))
        for _ in range(100):
            s = rng.normal(size=4)
            assert mc.value(-s) == mc.value(s)

    def test_equivalence_with_constrained_optimum(self):
        # Hypercube minimum of Q equals the constrained optimum when feasible.
        q = SignProgram(n=4, c=C4, F=None, A=[A4], b=[8])
        brute_f = extrema(q.c, q.F, q.A, q.b).min
        assert np.isfinite(brute_f)
        mc = homogenize(q, rho(q.c, None))
        assert extrema(F=mc.Q).min == pytest.approx(brute_f)

    def test_infeasible_instance_exceeds_rho(self):
        # Odd right-hand side with coefficients summing even: no feasible sign point.
        q = SignProgram(n=4, c=C4, F=None, A=[A4], b=[1])
        assert extrema(q.c, q.F, q.A, q.b).min == np.inf
        mc = homogenize(q, rho(q.c, None))
        assert extrema(F=mc.Q).min > mc.penalty.rho


class TestRecoverSolution:
    def make(self):
        q = SignProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1])
        return homogenize(q, PenaltyBound(1.0))

    def test_direct(self):
        sol = recover_solution(self.make(), [1, 1])
        assert sol.x_sign.tolist() == [1]
        assert sol.x_zero_one.tolist() == [1]
        assert sol.feasible and sol.objective == pytest.approx(1.0)

    def test_global_flip_equivalence(self):
        mc = self.make()
        a = recover_solution(mc, [-1, -1])
        b = recover_solution(mc, [1, 1])
        assert a == b

    def test_infeasible_point_still_reports_objective(self):
        sol = recover_solution(self.make(), [-1, 1])
        assert not sol.feasible
        assert sol.objective == pytest.approx(-1.0)

    def test_offset_and_scale_applied(self):
        q = SignProgram(n=2, c=[1.0, 0.0], F=None, A=[[1, 1]], b=[0],
                        offset=5.0, scale=0.5)
        mc = homogenize(q, rho(q.c, None))
        sol = recover_solution(mc, [1, -1, 1])
        assert sol.objective == pytest.approx(0.5 * 1.0 + 5.0)

    def test_bad_spin_rejected(self):
        with pytest.raises(ValueError):
            recover_solution(self.make(), [1, 0])
        with pytest.raises(ValueError):
            recover_solution(self.make(), [1, 1, 1])


class TestSparsityGraph:
    def test_disjoint_row_supports_star_into_x0(self):
        # Two constraints touching disjoint variables: no i-j coupling among
        # original variables, only couplings into the homogenization node.
        q = SignProgram(n=4, c=[1.0, 1.0, 1.0, 1.0], F=None,
                        A=[[1, 1, 0, 0], [0, 0, 1, 1]], b=[0, 2])
        mc = homogenize(q, rho(q.c, None))
        g = sparsity_graph(mc)
        cross = [(i, j) for i, j, _ in g.edges if j < 4 and not (i, j) in ((0, 1), (2, 3))]
        assert cross == []

    def test_cancellation_removes_edge(self):
        # (A'A)_12 = 1*1 + 1*(-1) = 0: the coupling cancels although both
        # rows touch both variables.
        q = SignProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1], [1, -1]], b=[0, 0])
        mc = homogenize(q, rho(q.c, None))
        assert all((i, j) != (0, 1) for i, j, _ in sparsity_graph(mc).edges)

    def test_dense_coupling_complete_graph(self):
        q = SignProgram(n=3, c=[0.0, 0.0, 0.0], F=None, A=[[1, 1, 1]], b=[1])
        mc = homogenize(q, PenaltyBound(1.0))
        pairs = {(i, j) for i, j, _ in sparsity_graph(mc).edges}
        assert {(0, 1), (0, 2), (1, 2)} <= pairs

    def test_structural_zero_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 4
            A = rng.integers(-1, 2, size=(2, n))
            q = SignProgram(n=n, c=rng.normal(size=n), F=None, A=A, b=rng.integers(-1, 2, size=2))
            mc = homogenize(q, rho(q.c, None))
            AtA = A.T @ A
            for i in range(n):
                for j in range(i + 1, n):
                    if AtA[i, j] == 0 and q.F[i, j] == 0:
                        assert mc.Q[i, j] == 0.0


class TestExports:
    def test_rudy_format(self, tmp_path):
        q = SignProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1])
        mc = homogenize(q, PenaltyBound(1.0))
        path = tmp_path / "g.rudy"
        export_rudy(mc, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 1"
        i, j, w = lines[1].split()
        assert (i, j) == ("1", "2")
        assert float(w) == -2.5

    def test_rudy_weight_precision(self, tmp_path):
        q = SignProgram(n=2, c=[1 / 3, 0.0], F=None, A=[[1, 1]], b=[0])
        mc = homogenize(q, rho(q.c, None))
        path = tmp_path / "g.rudy"
        export_rudy(mc, path)
        weights = {(int(a), int(b)): float(w)
                   for a, b, w in (ln.split() for ln in path.read_text().splitlines()[1:])}
        for (i, j), w in weights.items():
            assert w == mc.Q[i - 1, j - 1]  # 17 significant digits round-trip floats

    def test_q_json(self, tmp_path):
        import json

        q = SignProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1], offset=2.0)
        mc = homogenize(q, PenaltyBound(1.0))
        path = tmp_path / "q.json"
        export_q_json(mc, path)
        doc = json.loads(path.read_text())
        assert doc["n_nodes"] == 2
        assert doc["offset"] == 2.0
        np.testing.assert_allclose(doc["Q"], mc.Q)


class TestDiagnostics:
    def test_penalty_ratio(self):
        q = SignProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[0])
        mc = homogenize(q, rho(q.c, None))
        assert penalty_ratio(mc) == np.inf
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        q2 = SignProgram(n=2, c=[0.0, 0.0], F=F, A=np.zeros((0, 2)), b=[])
        mc2 = homogenize(q2, PenaltyBound(2.0))
        assert penalty_ratio(mc2) == 0.0

    def test_instance_validation(self):
        q = SignProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1])
        with pytest.raises(ValueError, match="symmetric"):
            MaxCutInstance(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), penalty=PenaltyBound(1.0), source=q)
        with pytest.raises(ValueError, match="2x2"):
            MaxCutInstance(Q=np.zeros((3, 3)), penalty=PenaltyBound(1.0), source=q)
