"""Bound computations: simplex core, the five relaxations, report assembly.

The LP oracle enumerates candidate vertices directly (every optimum of a
box-bounded LP sits at a point with at least n - rank(A) variables on their
bounds), so the simplex implementation is checked against exhaustive search
rather than against itself.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcut_bridge.instances import (
    brute_force,
    kcluster,
    knapsack_fixed,
    knapsack_random,
    quadratic_knapsack_random,
)
from maxcut_bridge.model import EQ, LE, SignProgram, ZeroOneProgram, to_zero_one
from maxcut_bridge.penalty import rho_override
from maxcut_bridge.reduction import homogenize
from maxcut_bridge.relaxations import (
    CONVERGED,
    EXACT,
    INFEASIBLE,
    ITERATION_LIMIT,
    SKIPPED,
    BoundReport,
    compute_bounds,
    convex_quadratic_relaxation,
    copositive_dnn,
    lasserre1,
    lp_box,
    shor_maxcut,
    solve_lp,
)
from maxcut_bridge.sdp import SdpProblem, Sense, SolverConfig, certified_diag_bound

CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
DNN_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000, admm_rho=0.1)


def lp_oracle(c, A, b, lower, upper):
    """Exact box-LP minimum by enumerating all candidate vertices.

    Returns (value, x) or (inf, None) when the polytope is empty.  Correct
    because a nonempty intersection of a box with an affine space is a
    bounded polytope, hence has a vertex, and every vertex has at least
    n - rank(A) coordinates at their bounds.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, c.size)
    b = np.asarray(b, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), c.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), c.shape)
    n = c.size
    r = int(np.linalg.matrix_rank(A)) if A.size else 0
    best_val, best_x = np.inf, None
    for free in itertools.combinations(range(n), r):
        fixed = [j for j in range(n) if j not in free]
        for bits in itertools.product((0, 1), repeat=len(fixed)):
            x = np.empty(n)
            for j, bit in zip(fixed, bits):
                x[j] = upper[j] if bit else lower[j]
            if r:
                sub = A[:, list(free)]
                rhs = b - A[:, fixed] @ x[fixed] if fixed else b.copy()
                y, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
                x[list(free)] = y
            if A.size and np.linalg.norm(A @ x - b) > 1e-8 * (1 + np.linalg.norm(b)):
                continue
            if np.any(x < lower - 1e-9) or np.any(x > upper + 1e-9):
                continue
            val = float(c @ x)
            if val < best_val:
                best_val, best_x = val, x.copy()
    return best_val, best_x


class TestSimplex:
    def test_pure_box_minimum(self):
        res = solve_lp([-1.0], np.zeros((0, 1)), [], [0.0], [1.0])
        assert res.status == "Optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_equality(self):
        # x2 = -x1, minimize x1 + 2 x2 = -x1 over [-1, 1]^2
        res = solve_lp([1.0, 2.0], [[1.0, 1.0]], [0.0], -1.0, 1.0)
        assert res.status == "Optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [1.0, -1.0], atol=1e-9)

    def test_pinned_variable_box(self):
        res = solve_lp([2.0], np.zeros((0, 1)), [], [0.3], [0.3])
        assert res.status == "Optimal"
        assert res.value == pytest.approx(0.6, abs=1e-12)

    def test_empty_box_is_infeasible(self):
        res = solve_lp([1.0], np.zeros((0, 1)), [], [1.0], [0.0])
        assert res.status == "Infeasible"

    def test_unreachable_rhs_is_infeasible(self):
        # max of x1 + x2 over the box is 2 < 5
        res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [5.0], -1.0, 1.0)
        assert res.status == "Infeasible"

    def test_duplicated_rows_are_harmless(self):
        res = solve_lp([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], -1.0, 1.0)
        assert res.status == "Optimal"
        assert res.value == pytest.approx(-1.0, abs=1e-9)

    def test_dependent_rows_are_harmless(self):
        A = [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 0.0]]  # row3 = row1 + row2
        b = [0.5, 0.25, 0.75]
        res = solve_lp([3.0, -1.0, 2.0], A, b, -1.0, 1.0)
        oracle_val, _ = lp_oracle([3.0, -1.0, 2.0], A, b, -1.0, 1.0)
        assert res.status == "Optimal"
        assert res.value == pytest.approx(oracle_val, abs=1e-8)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_match_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 3))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        lower = np.where(rng.random(n) < 0.5, -1.0, 0.0)
        upper = lower + rng.integers(1, 3, size=n)
        x0 = lower + rng.random(n) * (upper - lower)
        b = A @ x0  # consistent by construction
        c = rng.normal(size=n)
        res = solve_lp(c, A, b, lower, upper)
        oracle_val, _ = lp_oracle(c, A, b, lower, upper)
        assert res.status == "Optimal"
        assert np.isfinite(oracle_val)
        assert res.value == pytest.approx(oracle_val, abs=1e-7 * (1 + abs(oracle_val)))
        assert np.linalg.norm(A @ res.x - b) <= 1e-7 * (1 + np.linalg.norm(b))
        assert np.all(res.x >= lower - 1e-9) and np.all(res.x <= upper + 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_infeasible_detected(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 6))
        A = rng.integers(-3, 4, size=(1, n)).astype(float)
        b = np.array([np.abs(A).sum() + 1.0])  # beyond the box maximum of the row
        res = solve_lp(rng.normal(size=n), A, b, -1.0, 1.0)
        oracle_val, _ = lp_oracle(np.zeros(n), A, b, -1.0, 1.0)
        assert res.status == "Infeasible"
        assert oracle_val == np.inf


def two_by_two_instance():
    # f(x) = 3 x^2 - 5 x on one sign variable: f(1) = -2, f(-1) = 8
    q = SignProgram(n=1, c=[-5.0], F=[[3.0]], A=np.zeros((0, 1)), b=[])
    return q, homogenize(q, rho_override(8.0))


def brute_form_extrema(Q):
    d = Q.shape[0]
    vals = []
    for bits in itertools.product((-1.0, 1.0), repeat=d):
        s = np.array(bits)
        vals.append(float(s @ Q @ s))
    return min(vals), max(vals)


class TestShorMaxcut:
    def test_two_by_two_exact_both_senses(self):
        _, mc = two_by_two_instance()
        rmin = shor_maxcut(mc, Sense.MIN, CFG)
        rmax = shor_maxcut(mc, Sense.MAX, CFG)
        assert rmin.status == CONVERGED and rmax.status == CONVERGED
        assert rmin.value == pytest.approx(-2.0, abs=1e-4)
        assert rmax.value == pytest.approx(8.0, abs=1e-4)

    def test_zero_matrix(self):
        q0 = SignProgram(n=1, c=[0.0], F=None, A=np.zeros((0, 1)), b=[])
        mc0 = homogenize(q0, rho_override(0.0))
        assert abs(shor_maxcut(mc0, Sense.MIN, CFG).value) <= 1e-6
        assert abs(shor_maxcut(mc0, Sense.MAX, CFG).value) <= 1e-6

    @pytest.mark.parametrize("b", [34, 8, -8])
    def test_sandwich_contains_hypercube_extrema(self, b):
        from maxcut_bridge.penalty import rho as penalty_rho

        q = knapsack_fixed(4, b)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        lo, hi = brute_form_extrema(mc.Q)
        rmin = shor_maxcut(mc, Sense.MIN, CFG)
        rmax = shor_maxcut(mc, Sense.MAX, CFG)
        assert rmin.value - rmin.inflation <= lo + 1e-5 * (1 + abs(lo))
        assert rmax.value + rmax.inflation >= hi - 1e-5 * (1 + abs(hi))

    @pytest.mark.parametrize("max_iter", [3, 30000])
    @pytest.mark.parametrize("sense", list(Sense), ids=lambda s: s.value)
    def test_inflated_value_is_the_dual_certificate(self, sense, max_iter):
        # value -/+ inflation is the bound certified by the solve's own
        # multipliers, converged or not
        from maxcut_bridge.penalty import rho as penalty_rho

        q = quadratic_knapsack_random(5, s=3.0, seed=3, f_density=0.5, b=9)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        r = shor_maxcut(mc, sense, SolverConfig(eps_abs=1e-6, eps_rel=1e-5,
                                                max_iter=max_iter))
        certified = certified_diag_bound(
            SdpProblem(C=mc.Q, sense=sense, diag=np.ones(mc.dim)), r.solution.y)
        side = -1.0 if sense == Sense.MIN else 1.0
        assert r.value + side * r.inflation == pytest.approx(
            certified, rel=1e-12, abs=1e-12)

    def test_large_cluster_solves_in_few_iterations(self, monkeypatch):
        # n = 160: both moment SDPs of rho and the penalized Shor min, whose
        # cost matrix is ill-conditioned by the penalty, converge quickly and
        # with a tight certificate
        from maxcut_bridge import penalty, relaxations, sdp

        solved = []

        def recording(p, cfg):
            sol = sdp.solve_sdp(p, cfg)
            certified = sdp.certified_diag_bound(p, sol.y)
            solved.append((sol, abs(sol.objective - certified) / abs(sol.objective)))
            return sol

        monkeypatch.setattr(penalty, "solve_sdp", recording)
        monkeypatch.setattr(relaxations, "solve_sdp", recording)
        _, q = kcluster(160, 80, 0.5, 1)
        mc = homogenize(q, penalty.rho(q.c, q.F, CFG))
        r = shor_maxcut(mc, Sense.MIN, CFG)
        assert len(solved) == 3
        for sol, inflation in solved:
            assert sol.status.value == CONVERGED
            assert sol.iterations <= 150
            assert inflation < 1e-3
        assert r.inflation < 1e-3 * abs(r.value)


class TestLasserre1:
    def test_unconstrained_equals_homogenized_shor(self):
        q, mc = two_by_two_instance()
        r1 = lasserre1(q, cfg=CFG)
        r2 = shor_maxcut(mc, Sense.MIN, CFG)
        assert r1.value == pytest.approx(r2.value, abs=1e-4 + r1.inflation + r2.inflation)

    def test_balanced_pair_is_pinned_to_zero(self):
        # x1 + x2 = 0 forces X12 = -1 through the redundant rows, and the
        # objective x1 + x2 vanishes identically on the constraint set.
        q = SignProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[0])
        r = lasserre1(q, cfg=CFG)
        assert r.status == CONVERGED
        assert abs(r.value) <= 1e-4 + r.inflation

    def test_lower_bounds_constrained_optimum(self):
        q = knapsack_random(6, s=3.0, seed=5, b=14)
        f_star = brute_force(q).value
        assert np.isfinite(f_star)
        r = lasserre1(q, cfg=CFG)
        assert r.usable if hasattr(r, "usable") else r.status in (CONVERGED, ITERATION_LIMIT)
        assert r.value - r.inflation <= f_star + 1e-4 * (1 + abs(f_star))

    def test_unsatisfiable_cluster_size_reported_infeasible(self):
        _, s = kcluster(8, 9, zero_prob=0.5, seed=3)
        # x_1 = -1 and x_1 = 1: A x = b has no real solution, so the face is empty
        empty = SignProgram(n=1, c=[1.0], F=None, A=[[1], [1]], b=[-1, 1])
        for q in (s, empty):
            r = lasserre1(q, cfg=CFG)
            assert r.status == INFEASIBLE
            assert r.value == np.inf

    @pytest.mark.parametrize("max_iter,certified", [
        (1, -19.320266161455756), (3, -12.975176782527251),
        (10, -12.814894101478213), (30, -12.814894101478213)])
    def test_early_stop_certificate_below_optimum(self, max_iter, certified):
        # the residual-based inflation of an unconverged solve used to leave
        # value - inflation above f* = -12.8149 here at every one of these budgets
        q = knapsack_random(4, s=3.0, seed=11, b=-8)
        f_star = brute_force(q).value
        r = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
        assert r.status in (CONVERGED, ITERATION_LIMIT)
        assert r.value - r.inflation == pytest.approx(certified, rel=1e-6)
        assert r.value - r.inflation <= f_star

    def test_cluster_certificate_below_optimum(self):
        _, q = kcluster(7, 5, 0.8, 44)
        f_star = brute_force(q).value
        for max_iter in (1, 3, 10, 30, 30000):
            r = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
            assert r.status in (CONVERGED, ITERATION_LIMIT)
            assert q.to_original(r.value - r.inflation) <= f_star, max_iter

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), max_iter=st.integers(1, 100))
    def test_certified_at_any_budget(self, data, n, max_iter):
        # value - inflation is the dual certificate of the solve, so it
        # bounds the enumerated optimum whatever the budget, and a program
        # with a feasible point is never reported Infeasible; up to n + 1
        # rows reach faces of every size, the empty one included
        ints = lambda lo, hi, k: np.array(data.draw(st.lists(
            st.integers(lo, hi), min_size=k, max_size=k)), dtype=float)
        m = data.draw(st.integers(0, n + 1))
        A = ints(-3, 3, m * n).reshape(m, n)
        if data.draw(st.booleans()):
            b = A @ np.where(ints(0, 1, n) > 0, 1.0, -1.0)  # attained by a sign point
        else:
            b = ints(-6, 6, m)
        F = ints(-4, 4, n * n).reshape(n, n)
        q = SignProgram(n=n, c=ints(-5, 5, n), F=(F + F.T) / 2.0, A=A, b=b)
        f_star = brute_force(q).value
        r = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
        if np.isfinite(f_star):
            assert r.status in (CONVERGED, ITERATION_LIMIT)
            rounding = 1e-9 * (1.0 + np.abs(q.c).sum() + np.abs(q.F).sum())
            assert r.value - r.inflation <= f_star + rounding


class TestLpBox:
    def test_forced_vertex(self):
        # a'x = 34 = a'e admits only x = e inside the box
        q = knapsack_fixed(4, 34)
        r = lp_box(q, CFG)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(float(np.sum(q.c)), abs=1e-8)

    def test_relaxation_below_integer_optimum(self):
        q = knapsack_random(6, s=3.0, seed=5, b=14)
        f_star = brute_force(q).value
        r = lp_box(q, CFG)
        assert r.value <= f_star + 1e-8 * (1 + abs(f_star))

    def test_infeasible_box_reported_infeasible(self):
        q = SignProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[5])
        r = lp_box(q, CFG)
        assert r.status == INFEASIBLE
        assert r.value == np.inf
        assert r.note == "box LP infeasible: the program has no feasible point"

    def test_quadratic_objective_rejected(self):
        q = SignProgram(n=2, c=[1.0, 0.0], F=[[0.0, 1.0], [1.0, 0.0]], A=[[1, 1]], b=[0])
        with pytest.raises(ValueError, match="linear objective"):
            lp_box(q, CFG)


class TestConvexQuadratic:
    def test_hand_case_indefinite_pair(self):
        # F eigenvalues are +-1 so theta = 2; the shifted minimum over the
        # balanced slice is 0, giving value 0 - n*theta = -4; the true
        # constrained optimum is -2.
        q = SignProgram(n=2, c=[2.0, 2.0], F=[[0.0, 1.0], [1.0, 0.0]], A=[[1, 1]], b=[0])
        r = convex_quadratic_relaxation(q, CFG)
        assert "theta=2" in r.note
        assert r.value == pytest.approx(-4.0, abs=1e-4)

    def test_psd_objective_needs_no_shift(self):
        # separable convex t + t^2 has box minimum -1/4 per coordinate
        q = SignProgram(n=2, c=[1.0, 1.0], F=[[1.0, 0.0], [0.0, 1.0]],
                        A=np.zeros((0, 2)), b=[])
        r = convex_quadratic_relaxation(q, CFG)
        assert "theta=0" in r.note
        assert r.value == pytest.approx(-0.5, abs=1e-5)

    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_diagonal_shift_moves_value_by_n_alpha(self, alpha):
        F0 = np.array([[0.0, 4.0], [4.0, 0.0]])  # lambda_min = -4, stays < 0 shifted
        base = SignProgram(n=2, c=[1.0, -2.0], F=F0, A=[[1, 1]], b=[0])
        shifted = SignProgram(n=2, c=[1.0, -2.0], F=F0 + alpha * np.eye(2),
                              A=[[1, 1]], b=[0])
        r0 = convex_quadratic_relaxation(base, CFG)
        r1 = convex_quadratic_relaxation(shifted, CFG)
        assert r1.value == pytest.approx(r0.value + 2 * alpha, abs=2e-5)

    def test_empty_intersection_reported_infeasible(self):
        q = SignProgram(n=2, c=[1.0, 1.0], F=[[0.0, 1.0], [1.0, 0.0]], A=[[1, 1]], b=[5])
        r = convex_quadratic_relaxation(q, CFG)
        assert r.status == INFEASIBLE
        assert r.value == np.inf

    def test_lower_bounds_cluster_instance(self):
        _, s = kcluster(8, 3, zero_prob=0.5, seed=11)
        f_star = brute_force(s).value
        r = convex_quadratic_relaxation(s, CFG)
        assert s.to_original(r.value) <= f_star + 1e-4 * (1 + abs(f_star))

    def test_converged_point_is_feasible(self):
        # the relaxation is exact here (f* = 127.0110517); a point left off
        # box ∩ {Ax = b} shows as a negative gap in the closing LP, and a
        # value below f* (126.848 with fw_gap = -1.905 for one such point)
        q = quadratic_knapsack_random(8, 5, 4028, 0.7, 98)
        r = convex_quadratic_relaxation(q, CFG)
        gap = float(r.note.split("fw_gap=")[1])
        assert r.status == CONVERGED
        assert abs(gap) <= 1e-7 * (1 + abs(r.value))
        assert r.value == pytest.approx(127.0110517, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), max_iter=st.integers(1, 60))
    def test_certified_at_any_budget(self, data, n, max_iter):
        # the closing LP makes the value a lower bound whatever the budget;
        # up to n + 1 rows reach dependent rows, empty intersections and
        # intersections with no interior point, none of which may raise or
        # warn, and a program with a feasible point is never Infeasible
        ints = lambda lo, hi, k: np.array(data.draw(st.lists(
            st.integers(lo, hi), min_size=k, max_size=k)), dtype=float)
        m = data.draw(st.integers(0, n + 1))
        A = ints(-3, 3, m * n).reshape(m, n)
        if data.draw(st.booleans()):
            b = A @ np.where(ints(0, 1, n) > 0, 1.0, -1.0)  # attained by a sign point
        else:
            b = ints(-6, 6, m)
        F = ints(-4, 4, n * n).reshape(n, n)
        c = ints(-5, 5, n) * data.draw(st.sampled_from([1.0, 1.0, 1e3]))
        q = SignProgram(n=n, c=c, F=(F + F.T) / 2.0, A=A, b=b)
        f_star = brute_force(q).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = convex_quadratic_relaxation(q, SolverConfig(max_iter=max_iter))
        if np.isfinite(f_star):
            assert r.status in (CONVERGED, ITERATION_LIMIT)
            assert r.value <= f_star + 1e-9 * (1.0 + np.abs(q.c).sum() + np.abs(q.F).sum())


@st.composite
def eq_zero_one_programs(draw):
    """All-EQ 0/1 programs with n <= 6 and one or two integer rows.

    Half of them get a row that pins one variable, such as 3 x_1 = 0, and
    most right-hand sides are met by a drawn 0/1 point.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 2))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)))

    A = ints(-3, 3, m * n).reshape(m, n)
    if draw(st.booleans()):
        A[0] = 0
        A[0, draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
    b = A @ ints(0, 1, n) + ints(-1, 1, m) * draw(st.sampled_from([0, 0, 1]))
    G = ints(-3, 3, n * n).reshape(n, n) * draw(st.sampled_from([0, 1]))
    return ZeroOneProgram(n=n, c=ints(-10, 10, n), F=G + G.T, A=A, b=b, row_sense=[EQ] * m)


def enumerate_zero_one(p: ZeroOneProgram) -> float:
    """Exact optimum of an all-EQ 0/1 program (inf when infeasible)."""
    X = ((np.arange(1 << p.n)[:, None] >> np.arange(p.n)) & 1).astype(float)
    ok = np.all(X @ p.A.T == p.b, axis=1)
    values = X @ p.c + np.einsum("ti,ij,tj->t", X, p.F, X) + p.constant
    return float(values[ok].min()) if ok.any() else np.inf


def _infeasible_programs():
    """Cardinality k > n and knapsacks with b beyond sum(a), as in the benchmark."""
    out = [pytest.param(kcluster(n, n + 1, 0.5, g)[1], id=f"kcluster(n={n},k={n + 1},seed={g})")
           for n, g in [(4, 104), (6, 106), (8, 108), (10, 110)]]
    for n, s, g in [(5, 3, 112), (8, 3, 115)]:
        b = int(knapsack_random(n, s, g, 0).A.sum()) + 2
        out.append(pytest.param(knapsack_random(n, s, g, b),
                                id=f"knapsack_random(n={n},s={s},seed={g},b={b})"))
    return out


class TestCopositiveDnn:
    def test_inequality_rows_rejected(self):
        p = ZeroOneProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[1],
                           row_sense=[LE])
        with pytest.raises(ValueError, match="slack_expand"):
            copositive_dnn(p, DNN_CFG)

    def test_single_pinned_variable(self):
        p = ZeroOneProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1], row_sense=[EQ])
        r = copositive_dnn(p, DNN_CFG)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(1.0, abs=1e-3 + r.inflation)

    def test_constant_term_is_added(self):
        p = ZeroOneProgram(n=1, c=[1.0], F=None, A=[[1]], b=[1], row_sense=[EQ],
                           constant=2.5)
        r = copositive_dnn(p, DNN_CFG)
        assert r.value == pytest.approx(3.5, abs=1e-3 + r.inflation)

    def test_simplex_row_constant_objective(self):
        # every feasible point of x1 + x2 = 1 has objective exactly 1
        p = ZeroOneProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[1], row_sense=[EQ])
        r = copositive_dnn(p, DNN_CFG)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(1.0, abs=1e-3 + r.inflation)

    def test_lower_bounds_cluster_optimum(self):
        q01, s = kcluster(8, 3, zero_prob=0.5, seed=11)
        f_star = brute_force(s).value  # original units = 0/1 units here
        r = copositive_dnn(q01, DNN_CFG)
        assert r.status in (CONVERGED, ITERATION_LIMIT)
        assert r.value - r.inflation <= f_star + 1e-4 * (1 + abs(f_star))

    @pytest.mark.parametrize("prog, expected", [
        (kcluster(8, 3, zero_prob=0.5, seed=11)[0], 2.143058633329152e-05),
        (to_zero_one(knapsack_fixed(4, 28)), 7.999694873856001),
    ], ids=["kcluster(8,3,0.5,11)", "knapsack_fixed(4,28)"])
    def test_converged_value_regression(self, prog, expected):
        # Converged values of the earlier Dykstra-projection solver
        r = copositive_dnn(prog, DNN_CFG)
        assert r.status == CONVERGED
        assert abs(r.value - expected) <= 1e-4 * (1 + abs(expected))

    @settings(max_examples=200, deadline=None)
    @given(prog=eq_zero_one_programs(), max_iter=st.integers(1, 60))
    def test_certified_at_any_budget(self, prog, max_iter):
        # the solve's multipliers certify value - inflation however early it
        # stops, and Infeasible is read from that certificate alone
        r = copositive_dnn(prog, SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
        f_star = enumerate_zero_one(prog)
        if np.isfinite(f_star):
            assert r.status != INFEASIBLE, r.note
        if r.status in (CONVERGED, ITERATION_LIMIT):
            rounding = 1e-9 * (1.0 + np.abs(prog.c).sum() + np.abs(prog.F).sum())
            assert r.value - r.inflation <= f_star + rounding

    def test_corpus_converges_within_100_iterations(self, suite50):
        iterations = []
        for inst in suite50:
            r = copositive_dnn(to_zero_one(inst.sign), DNN_CFG)
            if r.status == CONVERGED:
                iterations.append(r.solution.iterations)
        assert len(iterations) >= 49
        assert max(iterations) <= 100

    @pytest.mark.parametrize("b, f_star", [(20, 12.0), (-14, 14.0)])
    def test_fixed_knapsack_reaches_optimum(self, b, f_star):
        r = copositive_dnn(to_zero_one(knapsack_fixed(4, b)), DNN_CFG)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(f_star, rel=1e-4)

    @pytest.mark.parametrize("sign", _infeasible_programs())
    def test_infeasible_within_30_iterations(self, sign):
        budget = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30)
        r = copositive_dnn(to_zero_one(sign), budget)
        assert r.status == INFEASIBLE
        assert r.value == np.inf


class TestComputeBounds:
    def test_unknown_selector_rejected_before_solving(self):
        q = knapsack_fixed(4, 34)
        with pytest.raises(ValueError, match="unknown selectors"):
            compute_bounds(q, selectors=["maxcut_shor_min", "bogus"], cfg=CFG)

    def test_forced_knapsack_report(self):
        q = knapsack_fixed(4, 34)
        report = compute_bounds(q, cfg=CFG, gw_trials=20,
                                dnn_cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5,
                                                     max_iter=5000, admm_rho=0.1))
        assert isinstance(report, BoundReport)
        assert set(report.entries) == {
            "maxcut_shor_min", "maxcut_shor_max", "lasserre1", "lp_box",
            "convex_quadratic", "copositive_dnn", "brute_force",
        }
        f_star = report.entries["brute_force"].value
        assert report.entries["brute_force"].status == EXACT
        assert f_star == pytest.approx(34.0, abs=1e-9)
        assert report.entries["lp_box"].value == pytest.approx(34.0, abs=1e-7)
        # every usable minimizing bound sits below the optimum after deflation
        for name in ("maxcut_shor_min", "lasserre1", "lp_box",
                     "convex_quadratic", "copositive_dnn"):
            e = report.entries[name]
            if e.usable:
                assert e.value - e.inflation <= f_star + 1e-4 * (1 + abs(f_star)), name
        # raw values and original units are tied by the affine map
        for name, e in report.entries.items():
            if e.raw is not None and np.isfinite(e.raw):
                assert e.value == pytest.approx(
                    report.scale * e.raw + report.offset, rel=1e-12), name
        assert report.rounding is not None
        assert report.rounding.recovered.feasible
        assert report.rounding.recovered.objective == pytest.approx(34.0, abs=1e-9)

    def test_lp_box_skipped_for_quadratic_objective(self):
        q = quadratic_knapsack_random(5, s=3.0, seed=3, f_density=0.5, b=9)
        report = compute_bounds(q, selectors=["lp_box"], cfg=CFG)
        e = report.entries["lp_box"]
        assert e.status == SKIPPED
        assert "linear objective" in e.note

    def test_brute_force_suppressed_on_request(self):
        q = knapsack_fixed(4, 34)
        report = compute_bounds(q, selectors=["brute_force"], cfg=CFG,
                                include_brute_force=False)
        assert report.entries["brute_force"].status == SKIPPED

    def test_dnn_budget_override(self):
        # the interior-point solve converges in about ten iterations, so only
        # the DNN budget of 3, not cfg's 30000, can stop it
        q = knapsack_fixed(4, 8)
        report = compute_bounds(q, selectors=["copositive_dnn"], cfg=CFG,
                                dnn_cfg=SolverConfig(eps_abs=1e-9, eps_rel=1e-9,
                                                     max_iter=3))
        assert report.entries["copositive_dnn"].status == ITERATION_LIMIT

    def test_cluster_units_are_original(self):
        q01, s = kcluster(8, 3, zero_prob=0.5, seed=11)
        report = compute_bounds(
            s, selectors=["maxcut_shor_min", "copositive_dnn", "brute_force"],
            cfg=CFG, dnn_cfg=DNN_CFG)
        f_star = report.entries["brute_force"].value
        assert f_star == pytest.approx(brute_force(s).value, abs=1e-12)
        e = report.entries["maxcut_shor_min"]
        assert e.value == pytest.approx(0.25 * e.raw + report.offset, rel=1e-12)
        dnn = report.entries["copositive_dnn"]
        assert dnn.raw is None  # computed directly in 0/1 units
        assert dnn.value - dnn.inflation <= f_star + 1e-4 * (1 + abs(f_star))
