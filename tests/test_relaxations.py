"""Bound computations: simplex core, the five relaxations, report assembly.

The LP oracle enumerates candidate vertices directly (every optimum of a
box-bounded LP sits at a point with at least n - rank(A) variables on their
bounds), so the simplex implementation is checked against exhaustive search
rather than against itself.
"""

import itertools
import sys
import warnings
from dataclasses import FrozenInstanceError
from unittest import mock

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
from maxcut_bridge.model import EQ, LE, SignProgram, ZeroOneProgram, to_sign_form, to_zero_one
from maxcut_bridge.penalty import PenaltyBound, rho as penalty_rho
from maxcut_bridge.reduction import homogenize
from maxcut_bridge import relaxations, sdp
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
    simplex_phase1,
    simplex_phase2,
    solve_lp,
)
from maxcut_bridge.sdp import (SdpProblem, SdpSolution, Sense, SolveStatus, SolverConfig,
                               certified_diag_bound)
from strategies import extrema, int_arrays, optimum, sign_programs, zero_one_programs

CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
DNN_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
# the diagonal rows' exact decision on a face, and the face method's pass over its rows
ROW_PASSES = ["_kept_diagonal", "_independent_rows"]


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

    def test_no_variables(self):
        res = solve_lp([], np.zeros((0, 0)), [], [], [])
        assert (res.status, res.value, res.x.size) == ("Optimal", 0.0, 0)

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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_one_phase1_serves_every_cost(self, data, n):
        # phase 1 once, then phase 2 for several costs, each as a fresh
        # solve_lp would give; up to n + 1 rows, an optional duplicated row
        # and unmatched right-hand sides reach dependent rows and empty sets
        m = data.draw(st.integers(0, n + 1))
        A = data.draw(int_arrays(-3, 3, (m, n)))
        lower = data.draw(int_arrays(-1, 0, n))
        upper = lower + data.draw(int_arrays(0, 2, n))
        if data.draw(st.booleans()):  # met inside the box
            b = A @ (lower + data.draw(int_arrays(0, 4, n)) / 4.0 * (upper - lower))
        else:
            b = data.draw(int_arrays(-6, 6, m))
        if m and data.draw(st.booleans()):
            A, b = np.vstack([A, A[:1]]), np.append(b, b[0])
        tableau = simplex_phase1(A, b, lower, upper, n)
        for _ in range(3):
            c = data.draw(int_arrays(-5, 5, n))
            fresh = solve_lp(c, A, b, lower, upper)
            if tableau is None:
                assert fresh.status == "Infeasible"
                continue
            res = simplex_phase2(tableau, c)
            assert res.status == fresh.status == "Optimal"
            assert abs(res.value - fresh.value) <= 1e-9 * (1.0 + abs(fresh.value))
            assert np.all(res.x >= lower - 1e-9) and np.all(res.x <= upper + 1e-9)
            assert np.abs(A @ res.x - b).max(initial=0.0) <= 1e-9


def bland_min_reference(T, basis, cost):
    """Bland's rule one column and one row at a time, as ``_bland_min`` ran
    before it worked on arrays: the reference its pivots must match."""
    m, width = T.shape
    n = width - 1
    while True:
        red = cost - cost[basis] @ T[:, :n]
        enter = next((j for j in range(n) if red[j] < -relaxations._LP_TOL), -1)
        if enter < 0:
            return "Optimal"
        col = T[:, enter]
        ratios = [(T[i, n] / col[i], i) for i in range(m) if col[i] > relaxations._LP_TOL]
        if not ratios:
            return "Unbounded"
        rmin = min(r for r, _ in ratios)
        leave = min((i for r, i in ratios if r <= rmin + 1e-12), key=lambda i: basis[i])
        relaxations._pivot(T, basis, leave, enter)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 5), n=st.integers(0, 6))
def test_bland_rule_pivots_as_the_loop_reference(data, m, n):
    # small integer tableaux [I, N, rhs] tie often in the ratio test and
    # reach both ends, Optimal and Unbounded; every pivot must be the same,
    # so the tableaux agree to the bit
    T = np.hstack([np.eye(m), data.draw(int_arrays(-3, 3, (m, n))),
                   data.draw(int_arrays(0, 4, (m, 1)))])
    cost = data.draw(int_arrays(-3, 3, m + n))
    T_ref, basis_ref = T.copy(), list(range(m))
    basis = np.arange(m)
    assert relaxations._bland_min(T, basis, cost) == bland_min_reference(T_ref, basis_ref, cost)
    assert basis.tolist() == basis_ref
    np.testing.assert_array_equal(T, T_ref)


def two_by_two_instance():
    # f(x) = 3 x^2 - 5 x on one sign variable: f(1) = -2, f(-1) = 8
    q = SignProgram(n=1, c=[-5.0], F=[[3.0]], A=np.zeros((0, 1)), b=[])
    return q, homogenize(q, PenaltyBound(8.0))


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
        mc0 = homogenize(q0, PenaltyBound(0.0))
        assert abs(shor_maxcut(mc0, Sense.MIN, CFG).value) <= 1e-6
        assert abs(shor_maxcut(mc0, Sense.MAX, CFG).value) <= 1e-6

    @pytest.mark.parametrize("b", [34, 8, -8])
    def test_sandwich_contains_hypercube_extrema(self, b):
        q = knapsack_fixed(4, b)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        lo, hi, _ = extrema(F=mc.Q)
        rmin = shor_maxcut(mc, Sense.MIN, CFG)
        rmax = shor_maxcut(mc, Sense.MAX, CFG)
        assert rmin.value - rmin.inflation <= lo + 1e-5 * (1 + abs(lo))
        assert rmax.value + rmax.inflation >= hi - 1e-5 * (1 + abs(hi))

    @pytest.mark.parametrize("max_iter", [3, 30000])
    @pytest.mark.parametrize("sense", list(Sense), ids=lambda s: s.value)
    def test_inflated_value_is_the_dual_certificate(self, sense, max_iter):
        # value -/+ inflation is the bound certified by the solve's own
        # multipliers, converged or not
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
        # n = 160: rho is a closed form and makes no solve; the penalized
        # Shor min, whose cost matrix is ill-conditioned by the penalty,
        # converges quickly and with a tight certificate
        from maxcut_bridge import penalty, relaxations, sdp

        solved = []

        def recording(p, cfg):
            sol = sdp.solve_sdp(p, cfg)
            solved.append((sol, sdp.certified_diag_bound(p, sol.y)))
            return sol

        monkeypatch.setattr(penalty, "solve_sdp", recording)
        monkeypatch.setattr(relaxations, "solve_sdp", recording)
        _, q = kcluster(160, 80, 0.5, 1)
        pb = penalty.rho(q.c, q.F, CFG)
        assert solved == []
        r = shor_maxcut(homogenize(q, pb), Sense.MIN, CFG)
        [(sol, certified)] = solved
        assert sol.status.value == CONVERGED
        assert sol.iterations <= 150
        assert abs(sol.objective - certified) / abs(sol.objective) < 1e-3
        assert r.inflation < 1e-3 * abs(r.value)

    def test_penalized_min_sides_take_few_iterations(self, monkeypatch):
        # the min side of the penalized Shor bound, where ||Q|| dwarfs the
        # optimum, took 31 iterations at a fixed centering of 0.1; rho makes
        # no solve, so it is the only solve
        from maxcut_bridge import penalty, relaxations, sdp

        solved = []

        def recording(p, cfg):
            sol = sdp.solve_sdp(p, cfg)
            solved.append((p, sol))
            return sol

        monkeypatch.setattr(penalty, "solve_sdp", recording)
        monkeypatch.setattr(relaxations, "solve_sdp", recording)
        _, q = kcluster(40, 20, 0.5, 1)
        pb = penalty.rho(q.c, q.F, CFG)
        assert solved == []
        r = shor_maxcut(homogenize(q, pb), Sense.MIN, CFG)
        [(p, shor_min)] = solved
        assert p.sense == Sense.MIN
        assert shor_min.status == SolveStatus.CONVERGED
        assert shor_min.iterations <= 15
        assert r.inflation < 1e-3 * abs(r.value)


def near_singular_pair(t: int) -> SignProgram:
    """n = 3, A = [[t, t + 1, 0], [t + 1, t + 2, 0]], b = A (1, 1, -1),
    c = (1, 2, 3) and F_23 = F_32 = 2: x_1 = x_2 = 1 is forced, f* = -4."""
    A = np.array([[t, t + 1, 0], [t + 1, t + 2, 0]])
    F = np.zeros((3, 3))
    F[1, 2] = F[2, 1] = 2.0
    return SignProgram(n=3, c=[1.0, 2.0, 3.0], F=F, A=A, b=A @ [1, 1, -1])


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

    def test_one_reduction_per_face_solve(self, count_calls):
        # the diagonal rows on the face are decided once, from K's echelon
        # form, and one Householder QR gives the face's basis
        qr, passes = count_calls(np.linalg, ["qr"]), count_calls(sdp, ROW_PASSES)
        r = lasserre1(knapsack_random(6, s=3.0, seed=5, b=14), cfg=CFG)
        assert r.status == CONVERGED and r.solution.iterations > 0
        assert (qr, passes) == ({"qr": 1}, {"_kept_diagonal": 1, "_independent_rows": 0})

    def test_diagonal_face_builds_no_svec_rows(self, monkeypatch):
        # the diagonal method reads its face through K's echelon form alone:
        # with the svec rows and the pass over them refused, x_1 + x_2 = 0
        # still drops the diagonal row of x_2, which coincides with that of
        # x_1 on the face, and its multiplier is exactly 0 under a bound
        # below the optimum
        def refuse(*args, **kwargs):
            raise AssertionError("svec rows or their pass on the diagonal path")

        monkeypatch.setattr(sdp, "_face_rows", refuse)
        monkeypatch.setattr(sdp, "_independent_rows", refuse)
        q = SignProgram(n=3, c=[1.0, -2.0, 0.5], F=[[0, 1, 0], [1, 0, -2], [0, -2, 0]],
                        A=[[1, 1, 0]], b=[0])
        r = lasserre1(q, cfg=CFG)
        assert r.status == CONVERGED and r.solution.iterations > 0
        assert r.solution.y[1] == 0.0 and (r.solution.y[[0, 2, 3]] != 0.0).all()
        assert r.bound <= brute_force(q).value

    def test_real_cholesky_failure_keeps_a_sound_bound(self):
        # nothing faked: on this 4-row multi-knapsack the diagonal IPM's
        # Cholesky factorization of [R, Z] fails before the iteration limit,
        # and the bound of the last iterate stays below the exact optimum.
        # Where it fails depends on the BLAS kernel: at iteration 51 on
        # OpenBLAS's SkylakeX one, at 31 on Haswell, and on Sandybridge the
        # solve runs out its 60 iterations instead; the bound holds on each
        rng = np.random.default_rng(304)
        A = rng.integers(1, 20, (4, 16))
        x_hat = rng.integers(0, 2, 16)
        c = rng.uniform(-10, 10, 16)
        q = to_sign_form(ZeroOneProgram(n=16, c=c, F=None, A=A, b=A @ x_hat, row_sense=[EQ] * 4))
        report = compute_bounds(q, selectors=["lasserre1", "brute_force"],
                                cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=60))
        entry, exact = report.entries["lasserre1"], report.entries["brute_force"]
        assert entry.status == ITERATION_LIMIT
        if "step failed" in entry.solution.message:
            assert entry.solution.message.endswith("Matrix is not positive definite")
        assert exact.bound == pytest.approx(5.679508144518082, rel=1e-12)
        assert entry.bound <= exact.bound

    def test_unsatisfiable_cluster_size_reported_infeasible(self):
        _, s = kcluster(8, 9, zero_prob=0.5, seed=3)
        r = lasserre1(s, cfg=CFG)
        assert r.status == INFEASIBLE
        assert r.value == np.inf
        # A x = b with no real solution reads Infeasible by one route, the
        # row pass's conflict, whatever the face's width: x_1 = -1 and x_1 = 1
        # leave it empty, 0 x = 2 leaves it two columns
        empty = SignProgram(n=1, c=[1.0], F=None, A=[[1], [1]], b=[-1, 1])
        wide = SignProgram(n=2, c=[1.0, -1.0], F=None, A=[[0, 0]], b=[2])
        for q in (empty, wide):
            entries = (lasserre1(q, cfg=CFG), copositive_dnn(to_zero_one(q), DNN_CFG))
            for r in entries:
                assert r.status == INFEASIBLE
                assert r.value == np.inf
            assert entries[0].note == entries[1].note

    @pytest.mark.parametrize("max_iter,certified", [
        (1, -21.716002072341777), (3, -12.900734733054664),
        (10, -12.81488207338538), (30, -12.81488207338538)])
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

    @pytest.mark.parametrize("seed", [199, 227, 298])
    def test_face_without_interior_point_converges(self, seed):
        # scaled random programs whose face leaves the unit diagonal no
        # interior point; a fixed centering of 0.1 stopped on a singular
        # Schur matrix after 179, 635 and 673 iterations
        rng = np.random.default_rng(seed)
        n = 8
        A = rng.integers(-3, 4, (3, n))
        s = rng.choice([-1, 1], n)
        c = 1e3 * rng.normal(size=n)
        F = rng.normal(size=(n, n))
        F = 1e3 * (F + F.T) / 2.0
        np.fill_diagonal(F, 0.0)
        q = SignProgram(n=n, c=c, F=F, A=A, b=A @ s)
        r = lasserre1(q, cfg=CFG)
        assert r.status == CONVERGED
        assert r.value - r.inflation <= brute_force(q).value

    @settings(max_examples=150, deadline=None)
    @given(q=sign_programs(), max_iter=st.integers(1, 100))
    def test_certified_at_any_budget(self, q, max_iter):
        # value - inflation is the dual certificate of the solve, so it
        # bounds the enumerated optimum whatever the budget, and a program
        # with a feasible point is never reported Infeasible; up to n + 1
        # rows reach faces of every size, the empty one included
        f_star = brute_force(q).value
        r = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
        if np.isfinite(f_star):
            assert r.status in (CONVERGED, ITERATION_LIMIT)
            rounding = 1e-9 * (1.0 + np.abs(q.c).sum() + np.abs(q.F).sum())
            assert r.value - r.inflation <= f_star + rounding

    @settings(max_examples=100, deadline=None)
    @given(q=sign_programs(n=(1, 7), rows=(0, 2), near_singular=True),
           max_iter=st.integers(1, 100))
    def test_near_singular_rows_never_conflict(self, q, max_iter):
        # rows r and r + e with r up to 1e9, whose [A, -b] a float rank
        # misreads, and b met by a sign point: the face and its diagonal
        # rows are decided exactly, so the rows never read as conflicting.
        # The dual can still run to 1e10 on a feasible set that is thin in
        # floats, where the certificate's round-off (ROADMAP item 16) can
        # read Infeasible or a bound above f*
        r = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
        assert not r.note.startswith("infeasible constraint system"), r.note

    @pytest.mark.parametrize("t", [10**k for k in range(3, 10)])
    def test_near_singular_pair_converges(self, t):
        # A = [[t, t + 1, 0], [t + 1, t + 2, 0]] has determinant -1, so
        # x_1 = x_2 = 1 is forced and f* = -4, but a float SVD of [A, -b]
        # misread its rank: a feasible program read Infeasible at t = 1e4 to
        # 1e7, and a face one column too wide at 1e8 and 1e9
        q = near_singular_pair(t)
        assert optimum(q)[0] == -4.0
        for r in (lasserre1(q, cfg=CFG), copositive_dnn(to_zero_one(q), DNN_CFG)):
            assert r.status == CONVERGED, r.note
            assert r.bound <= -4.0

    def test_nearly_singular_kept_rows_keep_a_sound_bound(self):
        # 10^8 x_3 = 10^8 x_1 + x_2 - 1: exactly, every diagonal row on the
        # face is independent, but the rows of x_1 and x_3 differ by 1e-8
        # there, so their Gram block is singular in floats; the solve runs
        # on them without raising, and its bound holds
        q = SignProgram(n=3, c=[1.0, -2.0, 0.5], F=[[0, 1, 0], [1, 0, -2], [0, -2, 0]],
                        A=[[-10**8, -1, 10**8]], b=[-1])
        f_star, _ = optimum(q)
        for max_iter in (1, 5, 30000):
            r = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
            assert r.status in (CONVERGED, ITERATION_LIMIT), r.note
            assert r.bound <= f_star

    def test_coinciding_diagonal_rows_at_any_budget(self, monkeypatch):
        # x_1 + x_2 = 0 makes rows 1 and 2 of every face point opposite, so
        # their diagonal rows coincide on the face and the second is dropped
        # by the solve's one exact decision; at every budget each dropped
        # row's multiplier is exactly 0 and the certified bound stays below
        # the enumerated optimum
        kept = []
        kept_diagonal = sdp._kept_diagonal
        monkeypatch.setattr(sdp, "_kept_diagonal",
                            lambda *args: kept.append(kept_diagonal(*args)) or kept[-1])
        rng = np.random.default_rng(29)
        dropped_solves = 0
        for k in range(60):
            n = int(rng.integers(3, 8))
            A = np.zeros((2, n), dtype=int)
            A[0, :2] = 1
            A[1] = rng.integers(-3, 4, n)
            s = rng.choice([-1, 1], n)
            s[1] = -s[0]
            b = A @ s if k % 3 else np.array([0, rng.integers(-6, 7)])
            F = rng.integers(-4, 5, (n, n)) * (k % 2)
            q = SignProgram(n=n, c=rng.integers(-5, 6, n), F=(F + F.T) / 2.0, A=A, b=b)
            f_star = brute_force(q).value
            for max_iter in (1, 2, 5, 30, 30000):
                kept.clear()
                e = lasserre1(q, cfg=SolverConfig(eps_abs=1e-6, eps_rel=1e-5,
                                                  max_iter=max_iter))
                assert e.bound <= f_star + 1e-9 * (1.0 + abs(f_star)), (k, max_iter)
                if e.solution is None or e.solution.y is None:
                    continue  # no solve, or rows that conflict on the face
                (keep, _), = kept  # one reduction per solve
                dropped = np.setdiff1d(np.arange(n + 1), keep)
                assert 1 in dropped, k
                assert (e.solution.y[dropped] == 0.0).all(), (k, max_iter)
                dropped_solves += 1
        assert dropped_solves >= 200


class TestLpBox:
    def test_forced_vertex(self):
        # a'x = 34 = a'e admits only x = e inside the box
        q = knapsack_fixed(4, 34)
        r = lp_box(q)
        assert r.status == CONVERGED
        assert r.value == pytest.approx(float(np.sum(q.c)), abs=1e-8)

    def test_relaxation_below_integer_optimum(self):
        q = knapsack_random(6, s=3.0, seed=5, b=14)
        f_star = brute_force(q).value
        r = lp_box(q)
        assert r.value <= f_star + 1e-8 * (1 + abs(f_star))

    def test_infeasible_box_reported_infeasible(self):
        q = SignProgram(n=2, c=[1.0, 1.0], F=None, A=[[1, 1]], b=[5])
        r = lp_box(q)
        assert r.status == INFEASIBLE
        assert r.value == np.inf
        assert r.note == "box LP infeasible: the program has no feasible point"

    def test_quadratic_objective_rejected(self):
        q = SignProgram(n=2, c=[1.0, 0.0], F=[[0.0, 1.0], [1.0, 0.0]], A=[[1, 1]], b=[0])
        with pytest.raises(ValueError, match="linear objective"):
            lp_box(q)


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

    def test_one_phase1_per_program(self, monkeypatch):
        # the feasibility test is the closing LP's phase 1: a feasible
        # program runs Bland's rule twice, an empty intersection once
        calls = []
        bland = relaxations._bland_min
        monkeypatch.setattr(relaxations, "_bland_min",
                            lambda *args: calls.append(None) or bland(*args))
        F = [[0.0, 1.0], [1.0, 0.0]]
        for F, b, runs in ((F, [0], 2), (None, [0], 2), (F, [5], 1)):
            calls.clear()
            q = SignProgram(n=2, c=[2.0, 2.0], F=F, A=[[1, 1]], b=b)
            convex_quadratic_relaxation(q, CFG)
            assert len(calls) == runs

    def test_linear_objective_needs_no_loop(self, monkeypatch):
        def loop(*args):
            raise AssertionError("_box_qp entered with F = 0")

        monkeypatch.setattr(relaxations, "_box_qp", loop)
        q = knapsack_random(6, s=3.0, seed=5, b=14)
        r = convex_quadratic_relaxation(q, SolverConfig(max_iter=1))
        assert r.status == CONVERGED
        assert r.value == lp_box(q).value
        assert r.note == "theta=0 fw_gap=0.000e+00"

    @pytest.mark.parametrize("rows", [[[1, 1, 0]], [[1, 1, 0], [1, 1, 0], [0, 1, -1]]])
    def test_box_qp_one_factorization_per_iteration(self, rows, count_calls):
        # the loop gets the rows that simplex phase 1 keeps, so the Newton
        # matrix is nonsingular: one inversion per iteration, through the
        # LAPACK seam, serves the predictor and the corrector, and least
        # squares never runs
        H = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        A = np.array(rows, dtype=float)
        b = A @ np.array([0.5, -0.5, -0.5])
        kept = simplex_phase1(A, b, -1.0, 1.0, 3).rows
        A, b = A[kept], b[kept]
        seam = count_calls(sdp, ["_inv"])
        calls = count_calls(np.linalg, ["inv", "lstsq"])
        for max_iter in (1, 2, 5):
            seam.update(_inv=0)
            calls.update(inv=0, lstsq=0)
            _, status = relaxations._box_qp(H, np.array([1.0, -3.0, 2.0]), A, b, max_iter)
            assert status == ITERATION_LIMIT
            assert seam == {"_inv": max_iter}
            assert calls == {"inv": 0, "lstsq": 0}

    @settings(max_examples=100, deadline=None)
    @given(q=sign_programs(n=(2, 8), rows=(0, 5), dependent=True, free_rhs=False),
           pair=st.sampled_from([-3.0, -1.0, 1.0, 2.0]), max_iter=st.integers(1, 3))
    def test_dependent_rows_reach_the_loop_reduced(self, q, pair, max_iter):
        # integer rows that repeat, negate or sum earlier rows, or are zero,
        # met by a sign point: phase 1 keeps rank(A) independent rows, the
        # loop reads those and reduces nothing (one inversion per step and
        # no least squares), and the value is the reduced program's, a
        # lower bound on f*.  F = G + G' loses its diagonal and gets an
        # indefinite pair
        n, A, b = q.n, q.A, q.b
        F = 2.0 * q.F
        np.fill_diagonal(F, 0.0)
        F[0, 1] = F[1, 0] = pair
        q = SignProgram(n=n, c=q.c, F=F, A=A, b=b)

        kept = simplex_phase1(A, b, -1.0, 1.0, n).rows
        rank = int(np.linalg.matrix_rank(A)) if len(A) else 0
        assert len(kept) == rank
        assert (int(np.linalg.matrix_rank(A[kept])) if rank else 0) == rank

        with (mock.patch.object(sdp, "_kept_diagonal", wraps=sdp._kept_diagonal) as diagonal,
              mock.patch.object(sdp, "_independent_rows",
                                wraps=sdp._independent_rows) as independent_rows,
              mock.patch.object(sdp, "_inv", wraps=sdp._inv) as inv,
              mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq):
            r = convex_quadratic_relaxation(q, SolverConfig(max_iter=max_iter))
        assert diagonal.call_count == independent_rows.call_count == lstsq.call_count == 0
        if r.status == ITERATION_LIMIT:
            assert inv.call_count == max_iter
        else:
            assert r.status == CONVERGED and 0 < inv.call_count <= max_iter

        for cfg in (SolverConfig(max_iter=max_iter), CFG):
            v = convex_quadratic_relaxation(q, cfg).value
            reduced = SignProgram(n=n, c=q.c, F=F, A=A[kept], b=b[kept])
            assert abs(v - convex_quadratic_relaxation(reduced, cfg).value) <= 1e-9 * (1 + abs(v))
            assert v <= brute_force(q).value + 1e-9 * (1.0 + np.abs(q.c).sum() + np.abs(F).sum())

    def test_singular_newton_matrix_falls_back_to_least_squares(self, monkeypatch):
        # where _box_qp cannot invert its Newton matrix, each step solves it
        # by least squares: the same steps to the same optimum
        q = quadratic_knapsack_random(6, 3.0, seed=4, f_density=0.5, b=2)
        inv = sdp._inv
        calls = {True: 0, False: 0}  # _box_qp's inversions, by whether they fail

        def run(fail):
            def patched(*args):
                if sys._getframe(1).f_code is relaxations._box_qp.__code__:
                    calls[fail] += 1
                    if fail:
                        raise np.linalg.LinAlgError("Singular matrix")
                return inv(*args)

            monkeypatch.setattr(sdp, "_inv", patched)
            return convex_quadratic_relaxation(q, CFG)

        reference, r = run(False), run(True)
        assert calls[True] == calls[False] > 0
        assert r.status == reference.status == CONVERGED
        assert r.note.startswith("theta=")
        assert r.value == pytest.approx(reference.value, abs=1e-6)
        assert r.value <= brute_force(q).value

    def test_pinned_row_stops_at_the_slack_floor(self, monkeypatch):
        # x2 = 1 pins x2 to its upper bound, so there is no interior point:
        # 1 - x2 runs down to the floor and the loop stops after a few steps,
        # far inside its budget, with the closing LP's value still below f*
        calls = []
        inv = sdp._inv
        monkeypatch.setattr(sdp, "_inv", lambda *args: calls.append(None) or inv(*args))
        q = SignProgram(n=2, c=[-2.7, -1.9], F=[[1.1, 0.25], [0.25, 2.2]], A=[[0, 1]], b=[1])
        r = convex_quadratic_relaxation(q, CFG)
        assert r.status == ITERATION_LIMIT
        assert 0 < len(calls) < 100
        f_star = brute_force(q).value
        assert f_star == pytest.approx(-0.8)
        assert r.value <= f_star

    @settings(max_examples=100, deadline=None)
    @given(q=sign_programs(quadratic=(0,)))
    def test_linear_objective_is_the_box_lp(self, q):
        # with F = 0 the closing LP is the relaxation: the lp_box value to
        # the last bit, Converged after a single allowed step
        r = convex_quadratic_relaxation(q, SolverConfig(max_iter=1))
        lp = lp_box(q)
        assert r.value == lp.value
        assert r.status == (INFEASIBLE if lp.status == INFEASIBLE else CONVERGED)

    @settings(max_examples=200, deadline=None)
    @given(q=sign_programs(cost_scales=(1.0, 1.0, 1e3)), max_iter=st.integers(1, 60))
    def test_certified_at_any_budget(self, q, max_iter):
        # the closing LP makes the value a lower bound whatever the budget;
        # up to n + 1 rows reach dependent rows, empty intersections and
        # intersections with no interior point, none of which may raise or
        # warn, and a program with a feasible point is never Infeasible
        f_star = brute_force(q).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = convex_quadratic_relaxation(q, SolverConfig(max_iter=max_iter))
        if np.isfinite(f_star):
            assert r.status in (CONVERGED, ITERATION_LIMIT)
            assert r.value <= f_star + 1e-9 * (1.0 + np.abs(q.c).sum() + np.abs(q.F).sum())


def _infeasible_programs():
    """Cardinality k > n and knapsacks with b beyond sum(a), as in the benchmark."""
    out = [pytest.param(kcluster(n, n + 1, 0.5, g)[1], id=f"kcluster(n={n},k={n + 1},seed={g})")
           for n, g in [(4, 104), (6, 106), (8, 108), (10, 110)]]
    for n, s, g in [(5, 3, 112), (8, 3, 115)]:
        b = int(knapsack_random(n, s, g, 0).A.sum()) + 2
        out.append(pytest.param(knapsack_random(n, s, g, b),
                                id=f"knapsack_random(n={n},s={s},seed={g},b={b})"))
    return out


class TestShorInRho:
    @settings(max_examples=60, deadline=None)
    @given(p=zero_one_programs(max_rows=3))
    def test_nondecreasing_in_rho_up_to_lasserre1(self, p):
        # the penalty term M <K'K, X> is >= 0 on the PSD cone, so the Shor
        # optimum can only rise with rho, and never past lasserre1, whose
        # points pay no penalty: with rho scaled by 1, 2 and 8, each
        # certified bound is at least the one before and at most
        # lasserre1's value.  A converged certified bound lies at most the
        # solve's gap tolerance, d eps_abs + eps_rel (1 + |v|), below its
        # optimum, so that is the slack
        q = to_sign_form(p)
        base = penalty_rho(q.c, q.F, CFG).rho
        upper = lasserre1(q, cfg=CFG)
        slack = lambda v: (q.n + 1) * CFG.eps_abs + CFG.eps_rel * (1.0 + abs(v))
        before = -np.inf
        for factor in (1, 2, 8):
            r = shor_maxcut(homogenize(q, PenaltyBound(factor * base)), Sense.MIN, CFG)
            assert r.status == CONVERGED
            bound = r.value - r.inflation
            assert bound >= before - slack(bound)
            if upper.status == CONVERGED:
                assert bound <= upper.value + slack(upper.value)
            before = bound


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

    def test_one_reduction_per_solve(self, count_calls):
        # one pass over the rows serves the independence check, and its
        # factor the rows' projection of the orthant entries and the final
        # move onto the rows; one Householder QR gives the face's basis
        qr, passes = count_calls(np.linalg, ["qr"]), count_calls(sdp, ROW_PASSES)
        r = copositive_dnn(to_zero_one(knapsack_fixed(4, 28)), DNN_CFG)
        assert r.status == CONVERGED and r.solution.iterations > 0
        assert (qr, passes) == ({"qr": 1}, {"_kept_diagonal": 0, "_independent_rows": 1})

    def test_certificate_reuses_the_solves_rows(self, monkeypatch):
        # the face rows, the kept ones and the trace they fix are one record
        # per problem, built by the solve, and its certificate reads it back
        calls = []
        face_rows = sdp._face_rows
        monkeypatch.setattr(sdp, "_face_rows", lambda p: calls.append(p) or face_rows(p))
        r = copositive_dnn(to_zero_one(knapsack_fixed(4, 28)), DNN_CFG)
        assert r.status == CONVERGED and r.inflation >= 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_failed_step_keeps_a_sound_bound(self, k, monkeypatch):
        # a face-IPM step whose factorization fails ends the solve with the
        # multipliers of its last strictly feasible iterate, the start's
        # included
        calls = []
        cholesky = sdp._cholesky

        def failing(*args):
            calls.append(None)
            if len(calls) == k:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(*args)

        monkeypatch.setattr(sdp, "_cholesky", failing)
        sign = knapsack_random(5, 3, 12, 7)
        r = copositive_dnn(to_zero_one(sign), DNN_CFG)
        assert r.status == ITERATION_LIMIT
        assert r.solution.iterations == k - 1
        assert r.solution.message == (f"interior-point step failed after {k - 1} iterations: "
                                      "Matrix is not positive definite")
        assert r.bound <= brute_force(sign).value

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_z_not_positive_definite_ends_the_solve(self, k, monkeypatch):
        # a scaled dual matrix L'ZL without a positive spectrum stops the
        # face IPM at its k-th step, with a sound bound from the last iterate
        calls = []
        eigh = sdp._eigh

        def failing(*args):
            lam, U = eigh(*args)
            if sys._getframe(1).f_code is sdp._solve_face_ipm.__code__:
                calls.append(None)
                if len(calls) == k:
                    lam = np.concatenate([[0.0], lam[1:]])
            return lam, U

        monkeypatch.setattr(sdp, "_eigh", failing)
        sign = knapsack_random(5, 3, 12, 7)
        r = copositive_dnn(to_zero_one(sign), DNN_CFG)
        assert r.status == ITERATION_LIMIT
        assert r.solution.iterations == k - 1
        assert r.solution.message == (f"interior-point step failed after {k - 1} iterations: "
                                      "Z is not positive definite")
        assert r.bound <= brute_force(sign).value

    @pytest.mark.parametrize("k", [1, 3])
    def test_invalid_value_ends_the_solve(self, k, monkeypatch):
        # an eigenvalue of L'ZL below zero past the smallest, which the
        # positivity test reads, makes its square root invalid at the k-th
        # step: the solve ends there, with a sound bound from the last iterate
        calls = []
        eigh = sdp._eigh

        def unsorted(*args):
            lam, U = eigh(*args)
            calls.append(None)
            if len(calls) == k:
                lam = np.concatenate([lam[:-1], -lam[-1:]])
            return lam, U

        monkeypatch.setattr(sdp, "_eigh", unsorted)
        sign = knapsack_random(5, 3, 12, 7)
        r = copositive_dnn(to_zero_one(sign), DNN_CFG)
        assert r.status == ITERATION_LIMIT
        assert r.solution.iterations == k - 1
        assert r.solution.message == (f"interior-point step failed after {k - 1} iterations: "
                                      "invalid floating-point result")
        assert r.bound <= brute_force(sign).value

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
    @given(prog=zero_one_programs(), max_iter=st.integers(1, 60))
    def test_certified_at_any_budget(self, prog, max_iter):
        # the solve's multipliers certify value - inflation however early it
        # stops, and Infeasible is read from that certificate alone
        r = copositive_dnn(prog, SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter))
        f_star, _ = optimum(prog)
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
                                                     max_iter=5000))
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

    @settings(max_examples=60, deadline=None)
    @given(q=sign_programs(n=(1, 7), rows=(1, 3), quadratic=(0, 1)))
    def test_paper_comparison_order(self, q):
        # the paper's comparison holds by theorem: a lasserre1 point pays no
        # penalty in Q and its x lies in box ∩ {Ax = b} (so Shor, lp_box
        # and convex_quadratic are at most lasserre1), and a DNN point maps
        # to a lasserre1 point.  Each weaker certified bound is at most the
        # stronger converged value plus its solve tolerance
        report = compute_bounds(q, selectors=["maxcut_shor_min", "lasserre1", "lp_box",
                                              "convex_quadratic", "copositive_dnn"],
                                cfg=CFG, dnn_cfg=CFG)
        e = report.entries
        for weaker, stronger in (("maxcut_shor_min", "lasserre1"), ("lp_box", "lasserre1"),
                                 ("convex_quadratic", "lasserre1"),
                                 ("lasserre1", "copositive_dnn")):
            low, high = e[weaker], e[stronger]
            if not (low.usable and high.usable and high.status == CONVERGED
                    and np.isfinite(low.bound) and np.isfinite(high.value)):
                continue
            assert low.bound <= high.value + 1e-6 * (1.0 + abs(high.value)), (weaker, stronger)

    def test_lp_box_skipped_for_quadratic_objective(self):
        q = quadratic_knapsack_random(5, s=3.0, seed=3, f_density=0.5, b=9)
        report = compute_bounds(q, selectors=["lp_box"], cfg=CFG)
        e = report.entries["lp_box"]
        assert e.status == SKIPPED
        assert "linear objective" in e.note

    def test_one_box_phase1_per_report(self, monkeypatch):
        # lp_box and convex_quadratic share one phase 1 of the box LP, run
        # only when one of them needs it
        calls = []
        phase1 = relaxations.simplex_phase1
        monkeypatch.setattr(relaxations, "simplex_phase1",
                            lambda *args: calls.append(None) or phase1(*args))
        linear = knapsack_fixed(4, 34)
        quadratic = quadratic_knapsack_random(5, s=3.0, seed=3, f_density=0.5, b=9)
        for q, selectors, runs in ((linear, ["lp_box", "convex_quadratic"], 1),
                                   (linear, ["maxcut_shor_min"], 0),
                                   (quadratic, ["lp_box"], 0)):
            calls.clear()
            compute_bounds(q, selectors=selectors, cfg=CFG)
            assert len(calls) == runs
        # the shared tableau gives what each relaxation gives on its own
        report = compute_bounds(linear, selectors=["lp_box", "convex_quadratic"], cfg=CFG)
        assert report.entries["lp_box"].raw == lp_box(linear).value
        assert (report.entries["convex_quadratic"].raw
                == convex_quadratic_relaxation(linear, CFG).value)

    def test_one_box_lp_per_linear_report(self, monkeypatch):
        # on a linear objective convex_quadratic is the LP of lp_box: one
        # phase 1 and one phase 2 of Bland's rule serve both entries
        calls = []
        bland = relaxations._bland_min
        monkeypatch.setattr(relaxations, "_bland_min",
                            lambda *args: calls.append(None) or bland(*args))
        report = compute_bounds(knapsack_fixed(4, 34), selectors=["lp_box", "convex_quadratic"],
                                cfg=CFG)
        assert len(calls) == 2
        lp, convex = report.entries["lp_box"], report.entries["convex_quadratic"]
        assert lp.status == convex.status == CONVERGED
        assert lp.value == convex.value

    def test_brute_force_suppressed_on_request(self):
        q = knapsack_fixed(4, 34)
        report = compute_bounds(q, selectors=["brute_force"], cfg=CFG,
                                include_brute_force=False)
        assert report.entries["brute_force"].status == SKIPPED
        assert report.entries["brute_force"].note == "enumeration suppressed (n=4)"

    @pytest.mark.parametrize("n, status, value, note", [
        (18, EXACT, -18.0, ""),
        (19, SKIPPED, None, "enumeration suppressed (n=19)"),
    ])
    def test_brute_force_enumerates_up_to_n_18(self, n, status, value, note):
        q = SignProgram(n=n, c=np.ones(n), F=None, A=np.zeros((0, n)), b=[])
        entry = compute_bounds(q, selectors=["brute_force"], cfg=CFG).entries["brute_force"]
        assert (entry.status, entry.note) == (status, note)
        assert value is None or entry.value == value

    def test_dnn_budget_override(self):
        # the interior-point solve converges in about ten iterations, so only
        # the DNN budget of 3, not cfg's 30000, can stop it
        q = knapsack_fixed(4, 8)
        report = compute_bounds(q, selectors=["copositive_dnn"], cfg=CFG,
                                dnn_cfg=SolverConfig(eps_abs=1e-9, eps_rel=1e-9,
                                                     max_iter=3))
        assert report.entries["copositive_dnn"].status == ITERATION_LIMIT

    def test_sdp_entries_keep_their_solution(self):
        sdp_selectors = ["maxcut_shor_min", "maxcut_shor_max", "lasserre1", "copositive_dnn"]
        budget = SolverConfig(eps_abs=1e-9, eps_rel=1e-9, max_iter=3)
        seen = set()
        for q, cfg in ((knapsack_fixed(4, 34), CFG), (knapsack_fixed(4, 34), budget),
                       (kcluster(6, 7, zero_prob=0.5, seed=6)[1], CFG)):
            report = compute_bounds(q, selectors=sdp_selectors, cfg=cfg)
            for name in sdp_selectors:
                e = report.entries[name]
                assert isinstance(e.solution, SdpSolution), name
                if e.status == INFEASIBLE:
                    assert e.solution.status == SolveStatus.DIVERGED, name
                else:
                    assert e.status == e.solution.status.value, name
                seen.add(e.status)
        assert seen == {CONVERGED, ITERATION_LIMIT, INFEASIBLE}

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

    @settings(max_examples=100, deadline=None)
    @given(q=sign_programs(rows=(1, 3), quadratic=(0, 1, 1), scaled=True),
           max_iter=st.integers(1, 40))
    def test_report_bounds_certified_at_any_budget(self, q, max_iter):
        # every usable entry's bound holds in original units whatever the
        # budget: min-sense ones lie below f*, and the max-sense Shor bound
        # above the largest s'Qs of the MAX-CUT form; a power-of-two scale
        # and an offset make the units mapping count, and a third of the
        # objectives are linear, so lp_box runs
        cfg = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter)
        pb = penalty_rho(q.c, q.F)
        report = compute_bounds(q, cfg=cfg, pb=pb)
        Q = homogenize(q, pb).Q
        tol = 1e-10 * (1.0 + abs(q.offset) + q.scale * (
            np.abs(Q).sum() + np.abs(q.c).sum() + np.abs(q.F).sum()))
        f_star = report.entries["brute_force"].value
        assert f_star == brute_force(q).value
        for name, e in report.entries.items():
            with pytest.raises(FrozenInstanceError):
                e.value = 0.0
            if not e.usable:
                continue
            if name == "maxcut_shor_max":
                assert e.sense == Sense.MAX
                assert e.bound == e.value + e.inflation
                assert e.bound >= q.to_original(extrema(F=Q).max) - tol
            else:
                assert e.sense == Sense.MIN, name
                assert e.bound == e.value - e.inflation
                assert e.bound <= f_star + tol, name
