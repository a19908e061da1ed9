import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxcut_bridge.sdp import (
    Cone,
    SdpProblem,
    SdpSolution,
    Sense,
    SolveStatus,
    SolverConfig,
    certified_diag_bound,
    export_sdpa,
    project_psd,
    project_psd_nonneg,
    solve_sdp,
)

CFG = SolverConfig()
FAST = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
E12 = np.array([[0.0, 0.5], [0.5, 0.0]])  # <E12, X> = X_12 for symmetric X


def diag_constraints(d, value=1.0):
    out = []
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        out.append((E, value))
    return out


def brute_min_quadratic_form(Q):
    d = Q.shape[0]
    return min(x @ Q @ x for x in (np.array(s) for s in itertools.product((-1, 1), repeat=d)))


@st.composite
def symmetric_matrices(draw, max_dim=8):
    d = draw(st.integers(1, max_dim))
    B = draw(hnp.arrays(np.float64, (d, d), elements=st.floats(
        -1e3, 1e3, allow_nan=False, allow_subnormal=False)))
    return B + B.T


class TestProjectPsd:
    def test_eigenvalue_clip(self):
        S = np.diag([1.0, -1.0])
        np.testing.assert_allclose(project_psd(S), np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(1)
        B = rng.normal(size=(5, 5))
        S = B @ B.T
        np.testing.assert_allclose(project_psd(S), S, atol=1e-12)

    def test_rank_one_half(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(project_psd(S), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            S = rng.normal(size=(6, 6))
            S = S + S.T
            P1 = project_psd(S)
            P2 = project_psd(P1)
            assert np.linalg.norm(P2 - P1) <= 1e-12

    def test_nearest_in_frobenius(self):
        rng = np.random.default_rng(3)
        S = rng.normal(size=(4, 4))
        S = S + S.T
        P = project_psd(S)
        best = np.linalg.norm(P - S)
        for _ in range(200):
            B = rng.normal(size=(4, 4)) * 0.5
            cand = project_psd(P + (B + B.T) * 0.1)
            assert np.linalg.norm(cand - S) >= best - 1e-10


class TestProjectPsdNonneg:
    def test_negative_offdiag_removed(self):
        S = np.array([[1.0, -1.0], [-1.0, 1.0]])
        P = project_psd_nonneg(S)
        np.testing.assert_allclose(P, np.eye(2), atol=1e-8)

    def test_member_fixed_point(self):
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(project_psd_nonneg(S), S, atol=1e-8)

    def test_result_in_intersection(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            S = rng.normal(size=(5, 5))
            S = S + S.T
            P = project_psd_nonneg(S)
            assert P.min() >= -1e-12
            # the inner iteration cap bounds how exactly the PSD side is met
            assert np.linalg.eigvalsh(P)[0] >= -1e-3


class TestSolveSdp:
    def test_trace_with_unit_diagonal(self):
        p = SdpProblem(C=np.eye(2), diag=np.ones(2))
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.objective == pytest.approx(2.0, abs=1e-5)

    def test_offdiagonal_min_is_minus_two(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = solve_sdp(SdpProblem(C=C, diag=np.ones(2)), CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.objective == pytest.approx(-2.0, abs=1e-5)
        np.testing.assert_allclose(sol.X, [[1, -1], [-1, 1]], atol=1e-4)

    def test_offdiagonal_min_nonneg_cone_is_zero(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = SdpProblem(C=C, diag=np.ones(2), cone=Cone.PSD_NONNEG)
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.objective == pytest.approx(0.0, abs=1e-5)

    def test_max_sense(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = SdpProblem(C=C, diag=np.ones(2), sense=Sense.MAX)
        sol = solve_sdp(p, CFG)
        assert sol.objective == pytest.approx(2.0, abs=1e-5)

    def test_converged_iterates_feasible(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(6, 6))
        p = SdpProblem(C=B + B.T, diag=np.ones(6))
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert np.linalg.eigvalsh(sol.X)[0] >= -1e-5
        np.testing.assert_allclose(np.diag(sol.X), 1.0, atol=2e-5)

    def test_diag_matches_dense_rows(self):
        # the interior-point solve of a fixed diagonal and the face method on
        # the same diagonal stated as rows E_ii reach the same optimum
        rng = np.random.default_rng(7)
        B = rng.normal(size=(6, 6))
        C = B + B.T
        ipm = solve_sdp(SdpProblem(C=C, diag=np.ones(6)), CFG)
        general = solve_sdp(SdpProblem(C=C, constraints=diag_constraints(6)), CFG)
        assert ipm.status == general.status == SolveStatus.CONVERGED
        assert ipm.objective == pytest.approx(general.objective, rel=1e-5, abs=1e-5)
        np.testing.assert_allclose(ipm.X, general.X, atol=1e-3)

    def test_diag_with_rows_goes_to_interior_point(self):
        # a fixed diagonal plus trace rows: the interior-point path returns one
        # multiplier per row, the diagonal first; the dependent repeat of the
        # X_12 row is dropped and gets 0
        C = np.array([[2.0, -1.0, 0.5], [-1.0, 0.5, 0.0], [0.5, 0.0, 1.0]])
        E = np.zeros((3, 3))
        E[0, 1] = E[1, 0] = 0.5
        p = SdpProblem(C=C, diag=np.ones(3), constraints=[(E, 0.3), (2.0 * E, 0.6)])
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.y is not None and sol.y.shape == (3 + 2,)
        assert sol.y[-1] == 0.0
        # the returned X meets every row to round-off, and is within
        # primal_residual of the PSD cone
        assert sol.X[0, 1] == pytest.approx(0.3, abs=1e-12)
        assert np.diag(sol.X) == pytest.approx(np.ones(3), abs=1e-12)
        assert 0.0 <= sol.primal_residual <= 1e-5
        certified = certified_diag_bound(p, sol.y)
        assert certified <= sol.objective
        assert sol.objective - certified <= 1e-5

    def test_infeasible_rows_diverge_from_the_dual(self):
        # X_12 = 2 with a unit diagonal breaks |X_12| <= 1: the dual objective
        # passes the bound every feasible X obeys
        E = np.zeros((2, 2))
        E[0, 1] = E[1, 0] = 0.5
        p = SdpProblem(C=E, diag=np.ones(2), constraints=[(E, 2.0)])
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "infeasible" in sol.message
        assert certified_diag_bound(p, sol.y) > np.abs(E).sum()

    def test_general_constraint_path_pins_all_entries(self):
        # X_11 = 1, X_22 = 1, X_12 = 0.3 fixes X entirely; objective is <C, X>.
        C = np.array([[2.0, -1.0], [-1.0, 0.5]])
        cons = diag_constraints(2) + [(E12, 0.3)]
        sol = solve_sdp(SdpProblem(C=C, constraints=cons), CFG)
        assert sol.status == SolveStatus.CONVERGED
        expected = 2.0 + 0.5 + 2 * 0.3 * (-1.0)
        assert sol.objective == pytest.approx(expected, abs=1e-5)

    def test_redundant_rows_tolerated(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        cons = diag_constraints(2) + diag_constraints(2)
        sol = solve_sdp(SdpProblem(C=C, constraints=cons), CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.objective == pytest.approx(-2.0, abs=1e-5)

    def test_inconsistent_rows_diverge(self):
        E = np.zeros((2, 2))
        E[0, 0] = 1.0
        cons = [(E, 1.0), (E, 2.0)]
        sol = solve_sdp(SdpProblem(C=np.eye(2), constraints=cons), CFG)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "infeasible" in sol.message

    def test_inconsistent_rows_beside_diag_diverge(self):
        # the interior-point path drops dependent rows with the same routine
        E = np.zeros((2, 2))
        E[0, 1] = E[1, 0] = 0.5
        cons = [(E, 0.5), (2.0 * E, 2.0)]
        sol = solve_sdp(SdpProblem(C=np.eye(2), constraints=cons, diag=np.ones(2)), CFG)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "infeasible constraint system" in sol.message

    def test_affine_cone_disjoint_diverges(self):
        # X_11 = -1 cannot hold for any PSD matrix.
        sol = solve_sdp(SdpProblem(C=np.eye(2), diag=[-1.0, 1.0]), FAST)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "negative" in sol.message

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        B = rng.normal(size=(5, 5))
        p = SdpProblem(C=B + B.T, diag=np.ones(5))
        s1 = solve_sdp(p, CFG)
        s2 = solve_sdp(p, CFG)
        assert np.array_equal(s1.X, s2.X)
        assert s1.objective == s2.objective
        assert s1.iterations == s2.iterations

    @pytest.mark.parametrize("seed,d", [(0, 3), (1, 5), (2, 8), (3, 10), (4, 12)])
    def test_lower_bound_vs_hypercube(self, seed, d):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(d, d))
        Q = B + B.T
        p = SdpProblem(C=Q, diag=np.ones(d))
        sol = solve_sdp(p, FAST)
        assert sol.status == SolveStatus.CONVERGED
        certified = certified_diag_bound(p, sol.y)
        assert certified <= brute_min_quadratic_form(Q)
        # the stopping rule bounds the duality gap, so the certificate is tight
        assert sol.objective - certified <= d * FAST.eps_abs + FAST.eps_rel * (
            1.0 + abs(sol.objective))

    @settings(max_examples=150, deadline=None)
    @given(Q=symmetric_matrices(), max_iter=st.integers(1, 60))
    def test_certified_bound_at_any_budget(self, Q, max_iter):
        # the multipliers of every interior-point iterate are dual feasible,
        # so the bound holds however early the solve stops
        d = Q.shape[0]
        cfg = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        values = np.einsum("ti,ij,tj->t", signs, Q, signs)
        rounding = 1e-9 * (1.0 + np.abs(Q).sum())  # eigvalsh round-off only
        for sense, side in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            p = SdpProblem(C=Q, sense=sense, diag=np.ones(d))
            sol = solve_sdp(p, cfg)
            assert sol.y is not None and sol.iterations <= max_iter
            bound = certified_diag_bound(p, sol.y)
            extreme = values.min() if sense == Sense.MIN else values.max()
            assert side * (bound - extreme) <= rounding

    @settings(max_examples=100, deadline=None)
    @given(Q=symmetric_matrices(max_dim=6), max_iter=st.integers(1, 60),
           cone=st.sampled_from(list(Cone)))
    def test_face_path_certified_at_any_budget(self, Q, max_iter, cone):
        # the unit diagonal stated as rows takes the face method; its
        # multipliers bound every feasible X, among them xx' for sign
        # vectors x (only x = e on the doubly-nonnegative cone)
        d = Q.shape[0]
        cfg = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        if cone == Cone.PSD_NONNEG:
            signs = np.ones((1, d))
        values = np.einsum("ti,ij,tj->t", signs, Q, signs)
        rounding = 1e-9 * (1.0 + np.abs(Q).sum())
        for sense, side in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            p = SdpProblem(C=Q, sense=sense, constraints=diag_constraints(d), cone=cone)
            sol = solve_sdp(p, cfg)
            assert sol.status != SolveStatus.DIVERGED and sol.iterations <= max_iter
            bound = certified_diag_bound(p, sol.y, sol.W)
            extreme = values.min() if sense == Sense.MIN else values.max()
            assert side * (bound - extreme) <= rounding

    @settings(max_examples=100, deadline=None)
    @given(Q=symmetric_matrices(max_dim=6), data=st.data())
    def test_certificate_holds_for_any_multipliers(self, Q, data):
        # the bounded-trace bound needs no dual feasibility: arbitrary
        # multipliers for the diagonal and a row X_12 = b still bound every
        # feasible X, among them xx' for sign vectors with x_1 x_2 = b
        d = Q.shape[0]
        if d < 2:
            return
        b = data.draw(st.sampled_from([-1.0, 1.0]))
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d + 1,
                                        max_size=d + 1)))
        E = np.zeros((d, d))
        E[0, 1] = E[1, 0] = 0.5
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        signs = signs[signs[:, 0] * signs[:, 1] == b]
        values = np.einsum("ti,ij,tj->t", signs, Q, signs)
        rounding = 1e-9 * (1.0 + np.abs(Q).sum() + np.abs(y).sum())
        for sense, side in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            p = SdpProblem(C=Q, sense=sense, diag=np.ones(d), constraints=[(E, b)])
            extreme = values.min() if sense == Sense.MIN else values.max()
            assert side * (certified_diag_bound(p, y) - extreme) <= rounding

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            SdpProblem(C=np.array([[0.0, 1.0], [0.0, 0.0]]), constraints=())
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(eps_abs=-1.0)
        for bad in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="diag"):
                SdpProblem(C=np.eye(2), diag=bad)


class TestSdpaExport:
    def test_round_trip_entries(self, tmp_path):
        C = np.array([[1.0, 0.25], [0.25, -2.0]])
        # a fixed diagonal is written as the first constraint matrices E_ii,
        # ahead of the ordinary rows: mDIM = d + m
        cases = [
            (dict(constraints=diag_constraints(2)), [1.0, 1.0],
             [{(1, 1): 1.0}, {(2, 2): 1.0}]),
            (dict(constraints=[(E12, 0.3)], diag=[1.0, 2.0]), [1.0, 2.0, 0.3],
             [{(1, 1): 1.0}, {(2, 2): 1.0}, {(1, 2): 0.5}]),
        ]
        for kwargs, rhs, mats in cases:
            path = tmp_path / "prob.dat-s"
            export_sdpa(SdpProblem(C=C, **kwargs), path)
            text = path.read_text().splitlines()
            assert text[0] == f"{len(rhs)} = mDIM"
            assert text[1] == "1 = nBLOCK"
            assert text[2] == "2 = bLOCKsTRUCT"
            assert [float(v) for v in text[3].split()] == rhs
            entries = [{} for _ in range(len(rhs) + 1)]
            for line in text[4:]:
                mat, blk, i, j, val = line.split()
                entries[int(mat)][(int(i), int(j))] = float(val)
            # objective block: F0 = -C for a Min problem
            assert entries[0] == {(1, 1): -1.0, (1, 2): -0.25, (2, 2): 2.0}
            assert entries[1:] == mats

    def test_nonneg_cone_notes_relaxation(self, tmp_path):
        p = SdpProblem(C=np.eye(2), constraints=diag_constraints(2), cone=Cone.PSD_NONNEG)
        path = tmp_path / "prob.dat-s"
        export_sdpa(p, path)
        assert "nonnegativity" in path.read_text().splitlines()[0]
