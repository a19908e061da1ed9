import copy
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxcut_bridge.instances import kcluster, knapsack_fixed
from maxcut_bridge.model import to_zero_one
from maxcut_bridge.penalty import _moment_cost, rho as penalty_rho
from maxcut_bridge.reduction import homogenize
from maxcut_bridge.relaxations import shor_maxcut
from maxcut_bridge import relaxations, sdp
from maxcut_bridge.relaxations import copositive_dnn
from maxcut_bridge.sdp import (
    _TRI_BLOCK,
    Cone,
    SdpProblem,
    SdpSolution,
    Sense,
    SolveStatus,
    SolverConfig,
    _svec_index,
    _tri_inv,
    certified_diag_bound,
    project_psd,
    project_psd_nonneg,
    solve_sdp,
)
from strategies import extrema, rref, zero_one_programs

CFG = SolverConfig()
FAST = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
E12 = np.array([[0.0, 0.5], [0.5, 0.0]])  # <E12, X> = X_12 for symmetric X
SEAM = ["_cholesky", "_inv", "_solve", "_eigvalsh", "_eigh"]  # sdp's LAPACK calls


def diag_rows(d):
    """The rows E_ii, <E_ii, X> = X_ii, as one d x d x d stack."""
    return np.array([np.diag(e) for e in np.eye(d)])


@st.composite
def symmetric_matrices(draw, max_dim=8):
    d = draw(st.integers(1, max_dim))
    B = draw(hnp.arrays(np.float64, (d, d), elements=st.floats(
        -1e3, 1e3, allow_nan=False, allow_subnormal=False)))
    return B + B.T


@st.composite
def lower_factors(draw):
    """Cholesky factors, single (d, d) or stacked (2, d, d), d from 1 to 100,
    of matrices with a spread spectrum and a spread diagonal scaling, so that
    cond(L) reaches 1e12."""
    d = draw(st.integers(1, 100))
    shape = draw(st.sampled_from([(d, d), (2, d, d)]))
    spread = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.normal(size=shape))[0]
    lam = 10.0 ** -rng.uniform(0.0, spread, size=shape[:-1])
    D = 10.0 ** rng.uniform(-spread / 2.0, spread / 2.0, size=shape[:-1])
    S = (Q * lam[..., None, :]) @ np.swapaxes(Q, -1, -2) * D[..., :, None] * D[..., None, :]
    try:
        L = np.linalg.cholesky((S + np.swapaxes(S, -1, -2)) / 2.0)
    except np.linalg.LinAlgError:
        assume(False)
    assume(np.all(np.linalg.cond(L) <= 1e12))
    return L


def tri_leaves(d):
    """The diagonal blocks (start, stop) that _tri_inv hands to np.linalg.inv."""
    if d <= _TRI_BLOCK:
        return [(0, d)]
    h = d // 2
    return tri_leaves(h) + [(h + a, h + b) for a, b in tri_leaves(d - h)]


class TestTriInv:
    @settings(max_examples=60, deadline=None)
    @given(L=lower_factors())
    def test_matches_inv_and_its_residual(self, L):
        d = L.shape[-1]
        T = _tri_inv(L)
        R = np.linalg.inv(L)
        if d <= _TRI_BLOCK:
            assert T.tobytes() == R.tobytes()
        # np.linalg.inv pivots, so it leaves round-off above the diagonal of
        # a triangular block; every leaf block is its result bit for bit, and
        # above the leaf blocks the inverse is exactly 0
        above = np.triu(np.ones((d, d), dtype=bool), 1)
        for a, b in tri_leaves(d):
            leaf = L[..., a:b, a:b]
            assert T[..., a:b, a:b].tobytes() == np.linalg.inv(leaf).tobytes()
            above[a:b, a:b] = False
        assert np.all(T[..., above] == 0.0)
        eye = np.eye(d)
        slack = d * np.finfo(float).eps * np.linalg.cond(L)
        residual = np.abs(T @ L - eye).max(axis=(-2, -1))
        assert np.all(residual <= np.abs(R @ L - eye).max(axis=(-2, -1)) + slack)


class TestLapackSeam:
    # the interior-point loops call numpy.linalg's gufuncs directly, so a
    # numpy release that changes that private module fails here
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 30), stack=st.sampled_from([(), (2,), (3, 2)]),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_numpy_linalg(self, d, stack, seed):
        rng = np.random.default_rng(seed)
        N = rng.normal(size=stack + (d, d))
        S = (N + np.swapaxes(N, -1, -2)) / 2.0  # symmetric, indefinite
        P = N @ np.swapaxes(N, -1, -2) + d * np.eye(d)  # positive definite
        v = rng.normal(size=d)
        with sdp._raising():
            pairs = [(sdp._cholesky(P), np.linalg.cholesky(P)),
                     (sdp._inv(N), np.linalg.inv(N)),
                     (sdp._solve(N, v), np.linalg.solve(N, v)),
                     (sdp._eigvalsh(S), np.linalg.eigvalsh(S)),
                     *zip(sdp._eigh(S), np.linalg.eigh(S))]
        for new, old in pairs:
            assert (new.dtype, new.shape) == (old.dtype, old.shape)
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("d", [1, 4, 30])
    def test_failures_raise_numpy_linalg_errors(self, d):
        indefinite = np.diag(np.r_[np.ones(d - 1), -1.0])
        singular = np.tril(np.ones((d, d)), -1)  # a zero diagonal
        for seam, public, args in [(sdp._cholesky, np.linalg.cholesky, (indefinite,)),
                                   (sdp._inv, np.linalg.inv, (singular,)),
                                   (sdp._solve, np.linalg.solve, (singular, np.ones(d)))]:
            with pytest.raises(np.linalg.LinAlgError) as expected:
                public(*args)
            with sdp._raising(), pytest.raises(np.linalg.LinAlgError) as raised:
                seam(*args)
            assert type(raised.value) is np.linalg.LinAlgError
            assert str(raised.value) == str(expected.value)

    def test_invalid_value_in_a_diagonal_step_fails_it(self, monkeypatch):
        # an infinite Schur solution meets the zeros of the start R = I in
        # R A*(dy), so inf * 0 makes the step invalid: the solve ends as a
        # failed step, on the start's multipliers, and warns nothing
        monkeypatch.setattr(sdp, "_schur_solve", lambda M, rhs: np.full(len(rhs), np.inf))
        rng = np.random.default_rng(6)
        B = rng.normal(size=(5, 5))
        p = SdpProblem(C=B + B.T, diag=np.ones(5))
        sol = solve_sdp(p, FAST)
        assert (sol.status, sol.iterations) == (SolveStatus.ITERATION_LIMIT, 0)
        assert sol.message == ("interior-point step failed after 0 iterations: "
                               "invalid floating-point result")
        assert certified_diag_bound(p, sol.y) <= extrema(F=B + B.T).min


class TestLargeDiagonalSolve:
    def test_iterations_and_certified_bounds(self, monkeypatch):
        # kcluster(80, 40, 0.5, 1): the moment block and the MAX-CUT form are
        # 81 x 81, so the interior-point factors split twice before
        # sdp._inv; the iteration counts and certified bounds are those of
        # the LU inverse of the whole factors
        rows = []

        def counted(M, _inv=sdp._inv):
            rows.append(M.shape[-1])
            return _inv(M)

        monkeypatch.setattr(sdp, "_inv", counted)
        q = kcluster(80, 40, 0.5, 1)[1]
        p = SdpProblem(C=_moment_cost(q.c, q.F), diag=np.ones(q.n + 1))
        sol = solve_sdp(p, FAST)  # the min side of the penalty bound
        assert sol.iterations == 9
        assert certified_diag_bound(p, sol.y) == pytest.approx(-1625.4682752576598, rel=1e-9)
        entry = shor_maxcut(homogenize(q, penalty_rho(q.c, q.F, FAST)), Sense.MIN, FAST)
        assert entry.solution.iterations == 13
        assert entry.value - entry.inflation == pytest.approx(-516.0116194310498, rel=1e-9)
        assert rows and max(rows) <= _TRI_BLOCK


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
        # the doubly-nonnegative cone takes the unit diagonal as rows
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = SdpProblem(C=C, A=diag_rows(2), b=np.ones(2), cone=Cone.PSD_NONNEG)
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
        general = solve_sdp(SdpProblem(C=C, A=diag_rows(6), b=np.ones(6)), CFG)
        assert ipm.status == general.status == SolveStatus.CONVERGED
        assert ipm.objective == pytest.approx(general.objective, rel=1e-5, abs=1e-5)
        np.testing.assert_allclose(ipm.X, general.X, atol=1e-3)

    def test_face_beside_fixed_diagonal(self):
        # on the face of x_1 - x_2 = 0, spanned by V = (1, 1)'/sqrt(2), the
        # only X with unit diagonal is [[1, 1], [1, 1]]; the diagonal rows
        # coincide there, so the second is dropped with multiplier 0
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = np.ones((2, 1)) / np.sqrt(2.0)
        p = SdpProblem(C=C, diag=np.ones(2), face=np.array([[1, -1]]))
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.objective == pytest.approx(2.0, abs=1e-5)
        np.testing.assert_allclose(sol.X, V @ V.T @ sol.X @ V @ V.T, atol=1e-12)
        np.testing.assert_allclose(sol.X, np.ones((2, 2)), atol=1e-5)
        assert sol.y[1] == 0.0
        assert certified_diag_bound(p, sol.y) <= 2.0  # the optimum

    def test_diag_with_rows_goes_to_interior_point(self):
        # the unit diagonal as rows beside an X_12 row: the face method
        # returns one multiplier per row, and the dependent repeat of the
        # X_12 row is dropped and gets 0
        C = np.array([[2.0, -1.0, 0.5], [-1.0, 0.5, 0.0], [0.5, 0.0, 1.0]])
        E = np.zeros((3, 3))
        E[0, 1] = E[1, 0] = 0.5
        p = SdpProblem(C=C, A=[*diag_rows(3), E, 2.0 * E], b=[1.0, 1.0, 1.0, 0.3, 0.6])
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
        p = SdpProblem(C=E, A=[*diag_rows(2), E], b=[1.0, 1.0, 2.0])
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "infeasible" in sol.message
        assert certified_diag_bound(p, sol.y) > np.abs(E).sum()

    def test_general_constraint_path_pins_all_entries(self):
        # X_11 = 1, X_22 = 1, X_12 = 0.3 fixes X entirely; objective is <C, X>.
        C = np.array([[2.0, -1.0], [-1.0, 0.5]])
        A = [*diag_rows(2), E12]
        sol = solve_sdp(SdpProblem(C=C, A=A, b=[1.0, 1.0, 0.3]), CFG)
        assert sol.status == SolveStatus.CONVERGED
        expected = 2.0 + 0.5 + 2 * 0.3 * (-1.0)
        assert sol.objective == pytest.approx(expected, abs=1e-5)

    def test_redundant_rows_tolerated(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = np.concatenate([diag_rows(2), diag_rows(2)])
        sol = solve_sdp(SdpProblem(C=C, A=A, b=np.ones(4)), CFG)
        assert sol.status == SolveStatus.CONVERGED
        assert sol.objective == pytest.approx(-2.0, abs=1e-5)

    def test_inconsistent_rows_diverge(self):
        E = np.zeros((2, 2))
        E[0, 0] = 1.0
        sol = solve_sdp(SdpProblem(C=np.eye(2), A=[E, E], b=[1.0, 2.0]), CFG)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "infeasible" in sol.message

    def test_inconsistent_rows_beside_diag_diverge(self):
        # X_12 = 0.5 and its double set to 2, beside the unit diagonal as
        # rows: the interior-point path drops dependent rows with the same
        # routine
        p = SdpProblem(C=np.eye(2), A=[*diag_rows(2), E12, 2.0 * E12], b=[1.0, 1.0, 0.5, 2.0])
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.DIVERGED
        assert sol.objective == np.inf
        assert "infeasible constraint system" in sol.message

    @pytest.mark.parametrize("shape,message", [
        (dict(diag=np.ones(2), A=[E12], b=[0.3]),
         "^diag takes no rows of A: state the diagonal as rows$"),
        (dict(diag=np.ones(2), cone=Cone.PSD_NONNEG),
         "^diag takes only Cone.PSD: state the diagonal as rows$"),
        (dict(diag=[0.0, 1.0]), "^diag must be positive$"),
        # X_11 = -1 holds for no PSD matrix
        (dict(diag=[-1.0, 1.0]), "^diag must be positive$"),
        *((dict(A=diag_rows(2), b=np.ones(2), cone=cone, face=face), None)
          for cone in Cone for face in (None, np.array([[1, -1]]))),
    ], ids=["diag_with_rows", "diag_on_psd_nonneg", "zero_entry", "negative_entry",
            "rows_psd", "rows_psd_face", "rows_psd_nonneg", "rows_psd_nonneg_face"])
    def test_two_shapes(self, shape, message):
        # a problem fixes a positive diagonal on the PSD cone, or states
        # rows on either cone, with or without a face
        if message is None:
            p = SdpProblem(C=np.eye(2), **shape)
            assert p.diag is None and p.A.shape == (2, 2, 2)
        else:
            with pytest.raises(ValueError, match=message):
                SdpProblem(C=np.eye(2), **shape)

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
        assert certified <= extrema(F=Q).min
        # the stopping rule bounds the duality gap, so the certificate is tight
        assert sol.objective - certified <= d * FAST.eps_abs + FAST.eps_rel * (
            1.0 + abs(sol.objective))

    def test_large_rank_one_form_converges(self):
        # a rank-one form 1e3..1e9 times larger than its noise, on which a
        # fixed centering of 0.1 lost Z's positive definiteness to round-off
        # after 26 iterations
        rng = np.random.default_rng(370)
        d = int(rng.integers(4, 6))
        a = rng.standard_normal(d)
        N = rng.standard_normal((d, d))
        N = (N + N.T) / 2.0
        Q = 10 ** rng.uniform(3, 9) * np.outer(a, a) + 10 ** rng.uniform(-6, -2) * N
        p = SdpProblem(C=Q, diag=np.ones(d))
        sol = solve_sdp(p, FAST)
        assert sol.status == SolveStatus.CONVERGED
        assert certified_diag_bound(p, sol.y) <= extrema(F=Q).min

    def test_failed_step_keeps_a_sound_bound(self, monkeypatch):
        # a step whose factorization fails ends the solve with the
        # multipliers of its last strictly feasible iterate, the start's
        # included
        rng = np.random.default_rng(6)
        B = rng.normal(size=(5, 5))
        p = SdpProblem(C=B + B.T, diag=np.ones(5))
        cholesky = sdp._cholesky
        for k in (1, 4):
            calls = []

            def failing(*args, _k=k, _calls=calls):
                _calls.append(None)
                if len(_calls) == _k:
                    raise np.linalg.LinAlgError("Matrix is not positive definite")
                return cholesky(*args)

            monkeypatch.setattr(sdp, "_cholesky", failing)
            sol = solve_sdp(p, FAST)
            assert sol.status == SolveStatus.ITERATION_LIMIT
            assert sol.iterations == k - 1
            assert sol.message == (f"interior-point step failed after {k - 1} iterations: "
                                   "Matrix is not positive definite")
            assert certified_diag_bound(p, sol.y) <= extrema(F=B + B.T).min

    @pytest.mark.parametrize("face", [False, True])
    def test_one_factorization_per_iteration(self, face, count_calls):
        # R and Z are factored and inverted as one stack, the Schur matrix
        # is solved for the predictor and the corrector, and both step
        # lengths come from one eigvalsh call, all through the LAPACK seam;
        # on a face one Householder QR gives V, K's echelon form decides the
        # diagonal rows without factoring anything, one more solve, of
        # P o P, moves the last iterate onto them, and project_psd's eigh
        # measures it
        rng = np.random.default_rng(11)
        B = rng.normal(size=(5, 5))
        # on the face e' x = 0 the unit diagonal still has the interior
        # point (5 I - ee') / 4
        K = np.ones((1, 5), dtype=int) if face else None
        calls = count_calls(np.linalg, ["cholesky", "inv", "eigvalsh", "eigh", "solve", "qr",
                                        "lstsq"])
        seam = count_calls(sdp, SEAM)
        decisions = count_calls(sdp, ["_kept_diagonal"])
        sol = solve_sdp(SdpProblem(C=B + B.T, diag=np.ones(5), face=K), CFG)
        k = sol.iterations
        assert sol.status == SolveStatus.CONVERGED and k > 0
        assert seam == dict(_cholesky=k, _inv=k, _solve=2 * k + face, _eigvalsh=k, _eigh=0)
        assert calls == dict(cholesky=0, inv=0, eigvalsh=0, eigh=face, solve=0, qr=face,
                             lstsq=0)
        assert decisions == {"_kept_diagonal": face}

    @settings(max_examples=150, deadline=None)
    @given(Q=symmetric_matrices(), max_iter=st.integers(1, 60))
    def test_certified_bound_at_any_budget(self, Q, max_iter):
        # the multipliers of every interior-point iterate are dual feasible,
        # so the bound holds however early the solve stops
        d = Q.shape[0]
        cfg = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter)
        lo, hi, _ = extrema(F=Q)
        rounding = 1e-9 * (1.0 + np.abs(Q).sum())  # eigvalsh round-off only
        for sense, side in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            p = SdpProblem(C=Q, sense=sense, diag=np.ones(d))
            sol = solve_sdp(p, cfg)
            assert sol.y is not None and sol.iterations <= max_iter
            bound = certified_diag_bound(p, sol.y)
            extreme = lo if sense == Sense.MIN else hi
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
        only_e = dict(A=np.eye(d), b=np.ones(d)) if cone == Cone.PSD_NONNEG else {}
        lo, hi, _ = extrema(F=Q, **only_e)
        rounding = 1e-9 * (1.0 + np.abs(Q).sum())
        for sense, side in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            p = SdpProblem(C=Q, sense=sense, A=diag_rows(d), b=np.ones(d), cone=cone)
            sol = solve_sdp(p, cfg)
            assert sol.status != SolveStatus.DIVERGED and sol.iterations <= max_iter
            bound = certified_diag_bound(p, sol.y, sol.W)
            extreme = lo if sense == Sense.MIN else hi
            assert side * (bound - extreme) <= rounding

    @settings(max_examples=100, deadline=None)
    @given(Q=symmetric_matrices(max_dim=6), data=st.data())
    def test_certificate_holds_for_any_multipliers(self, Q, data):
        # the bounded-trace bound needs no dual feasibility: arbitrary
        # multipliers for the unit diagonal as rows and a row X_12 = b still
        # bound every feasible X, among them xx' for sign vectors with
        # x_1 x_2 = b, that is x_1 - b x_2 = 0
        d = Q.shape[0]
        if d < 2:
            return
        b = data.draw(st.sampled_from([-1.0, 1.0]))
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d + 1,
                                        max_size=d + 1)))
        E = np.zeros((d, d))
        E[0, 1] = E[1, 0] = 0.5
        lo, hi, _ = extrema(F=Q, A=[[1.0, -b] + [0.0] * (d - 2)], b=[0.0])
        rounding = 1e-9 * (1.0 + np.abs(Q).sum() + np.abs(y).sum())
        for sense, side in ((Sense.MIN, 1.0), (Sense.MAX, -1.0)):
            p = SdpProblem(C=Q, sense=sense, A=[*diag_rows(d), E], b=[*np.ones(d), b])
            extreme = lo if sense == Sense.MIN else hi
            assert side * (certified_diag_bound(p, y) - extreme) <= rounding

    @pytest.mark.parametrize("y, W, message", [
        # a column of ones would certify 3 + 2e-15, above the optimum 3
        (np.ones((3, 1)), None, "^y must be a finite vector of length 3$"),
        (np.ones(2), None, "^y must be a finite vector of length 3$"),
        (np.array([1.0, np.nan, 1.0]), None, "^y must be a finite vector of length 3$"),
        (np.ones(3), np.ones(3), "^W must be a finite 3x3 matrix$"),
    ], ids=["y_column", "y_short", "y_nan", "W_vector"])
    def test_certificate_refuses_malformed_multipliers(self, y, W, message):
        # the certificate is public: multipliers it cannot read as one per
        # diagonal entry or row, and an orthant multiplier that is not d x d,
        # are refused by name, not broadcast into a bound
        for p in (SdpProblem(C=np.eye(3), diag=np.ones(3)),
                  SdpProblem(C=np.eye(3), A=diag_rows(3), b=np.ones(3), cone=Cone.PSD_NONNEG)):
            with pytest.raises(ValueError, match=message):
                certified_diag_bound(p, y, W)
            assert certified_diag_bound(p, np.ones(3), np.zeros((3, 3))) == 3.0

    def test_validation(self):
        for C in ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [1.0 + 1e-9, 0.0]]):
            with pytest.raises(ValueError, match="C must be symmetric"):
                SdpProblem(C=np.array(C))
        # non-finite data is rejected up front, before any symmetry or
        # trace check could misreport it
        unit = np.ones(2)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="C must be finite"):
                SdpProblem(C=np.array([[bad, 0.0], [0.0, 1.0]]), diag=unit)
            with pytest.raises(ValueError, match="must be finite"):
                SdpProblem(C=np.eye(2), A=[E12], b=[bad])
            with pytest.raises(ValueError, match="must be finite"):
                SdpProblem(C=np.eye(2), A=[E12, [[bad, 0.0], [0.0, 0.0]]], b=[0.0, 0.0])
        # within 1e-12 counts as symmetric, and C is stored symmetrized
        C = SdpProblem(C=np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])).C
        assert C[0, 1] == C[1, 0]
        for name in ("eps_abs", "eps_rel"):
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                SolverConfig(**{name: -1.0})
        # a budget is a whole number of iterations: 2.5 would never equal the
        # loop counter, and each message names only its own field
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError, match="^max_iter must be a positive integer$"):
                SolverConfig(max_iter=bad)
        with pytest.raises(ValueError, match="^admm_rho must be positive$"):
            SolverConfig(admm_rho=0.0)
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3
        for bad in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="diag"):
                SdpProblem(C=np.eye(2), diag=bad)
        for C in (np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match="^C must be square$"):
                SdpProblem(C=C)
        # a face is an integer K with one column per coordinate; floats are
        # refused even where integral, as K is decided exactly
        for face in (np.ones(2, dtype=int), np.ones((2, 3), dtype=int), [[1.0, 1.0]],
                     [[1, np.nan]], np.ones((1, 2), dtype=bool)):
            with pytest.raises(ValueError, match="^face must be an integer matrix with 2 columns$"):
                SdpProblem(C=np.eye(2), diag=np.ones(2), face=face)
        # a zero K cuts out no face
        for face in (np.zeros((0, 2), dtype=int), [[0, 0]]):
            assert SdpProblem(C=np.eye(2), diag=np.ones(2), face=face)._basis is None

    def test_rows_that_fix_no_trace(self):
        # X_12 = 0.5 leaves the trace free: the solve and the certificate
        # both refuse; conflicting rows are found first and read Diverged
        p = SdpProblem(C=np.eye(2), A=[[[0, 1], [1, 0]]], b=[0.5])
        message = "^solve_sdp needs a fixed diagonal or constraint rows that fix the trace"
        with pytest.raises(ValueError, match=message):
            solve_sdp(p, CFG)
        with pytest.raises(ValueError, match=message):
            certified_diag_bound(p, np.zeros(1))
        p = SdpProblem(C=np.eye(2), A=[E12, E12], b=[0.5, 0.25])
        sol = solve_sdp(p, CFG)
        assert sol.status == SolveStatus.DIVERGED and "conflicting" in sol.message
        with pytest.raises(sdp._InconsistentSystem):
            certified_diag_bound(p, np.zeros(2))

    def test_row_validation(self, monkeypatch):
        # the rows are one m x d x d stack with m right-hand sides; each
        # refusal names the first row at fault
        E11 = np.diag([1.0, 0.0])
        cases = [
            (dict(A=[E11, E12]), "^row 0: A has 2 rows and b 0$"),
            (dict(A=[E11, E12], b=[1.0]), "^row 1: A has 2 rows and b 1$"),
            (dict(b=[1.0]), "^row 0: A has 0 rows and b 1$"),
            (dict(A=[E11, [[np.nan, 0.0], [0.0, 0.0]]], b=[1.0, 0.0]),
             "^row 1: matrix and right-hand side must be finite$"),
            (dict(A=[E11, E12], b=[1.0, np.inf]),
             "^row 1: matrix and right-hand side must be finite$"),
            (dict(A=[E11, [[0.0, 1.0], [1.0 + 1e-9, 0.0]]], b=[1.0, 0.0]),
             "^row 1: matrix must be symmetric$"),
            (dict(A=[E11, np.eye(3)], b=[1.0, 1.0]), "^row 1: matrix must be 2x2$"),
            (dict(A=np.zeros((2, 3, 3)), b=[1.0, 1.0]), "^row 0: matrix must be 2x2$"),
            (dict(A=E11, b=[1.0]), "^row 0: matrix must be 2x2$"),
            (dict(A=[E11], b=1.0), "^b must be a vector$"),
        ]
        for rows, message in cases:
            with pytest.raises(ValueError, match=message):
                SdpProblem(C=np.eye(2), **rows)
        # within 1e-12 a row counts as symmetric, and it is stored symmetrized
        A = SdpProblem(C=np.eye(2), A=[[[0.0, 1.0], [1.0 + 1e-13, 0.0]]], b=[0.5]).A
        assert A.shape == (1, 2, 2) and A[0, 0, 1] == A[0, 1, 0]
        # A=None is no rows, and a positive diagonal with none takes the
        # diagonal method
        calls = []
        diag_ipm = sdp._solve_diag_ipm
        monkeypatch.setattr(sdp, "_solve_diag_ipm",
                            lambda *args: calls.append(None) or diag_ipm(*args))
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = SdpProblem(C=C, A=None, diag=np.ones(2))
        assert p.A.shape == (0, 2, 2) and p.b.shape == (0,)
        assert solve_sdp(p, CFG).objective == pytest.approx(-2.0, abs=1e-5)
        assert len(calls) == 1


def independent_reference(rows, rhs, slack):
    """The reduction of the rows as it was before one pass did it: a QR
    factorization of the rows, repeated after each dropped row.  Returns
    the kept indices, or raises ``_InconsistentSystem`` where it did."""
    keep = np.arange(len(rows))
    while keep.size:
        _, R = np.linalg.qr(rows[keep].T)
        remainder = np.zeros(keep.size)
        remainder[: min(R.shape)] = np.abs(np.diag(R))
        small = np.flatnonzero(remainder <= 1e-6)
        if not small.size:
            return keep
        i = small[0]
        c = np.linalg.solve(R[:i, :i], R[:i, i])
        if abs(rhs[keep[i]] - c @ rhs[keep[:i]]) > slack:
            raise sdp._InconsistentSystem("conflicting right-hand sides")
        keep = np.delete(keep, i)
    return keep


def verdict(f, *args):
    """The kept indices that ``f`` returns, or None where it raises
    ``_InconsistentSystem``."""
    try:
        keep = f(*args)
    except sdp._InconsistentSystem:
        return None
    return (keep[0] if isinstance(keep, tuple) else keep).tolist()


def _outside(rows, N, rng):
    """A random unit row orthogonal to every row of ``rows``, or None where
    they span all N coordinates."""
    null = np.eye(N)
    if rows:
        _, sv, Vt = np.linalg.svd(np.array(rows))
        null = Vt[(sv > 1e-9).sum():]
    if not len(null):
        return None
    e = rng.normal(size=len(null)) @ null
    return e / np.linalg.norm(e)


@st.composite
def row_systems(draw, near_conflicts=False):
    """Up to ten rows of length 1 to 12 and their right-hand sides.  Each
    row is a fresh unit row, an earlier unit row repeated up to sign, a
    unit combination of earlier unit rows, a zero row, a row of norm
    1e-10, a row at an angle of 2e-6 to 1e-3 to an earlier unit row
    ("near": it leaves the kept rows nearly dependent), or the difference
    of such a pair plus 0.05 to 1 of a unit row outside the earlier rows'
    span ("outside": its combination of the kept rows reaches 1e6 in
    size).  A dependent row's right-hand side repeats the combination or
    conflicts with it by 1; so does an outside row's, and a near row's
    repeats its partner's unless ``near_conflicts``.  Angles stop at 2e-6,
    twice the remainder where the drop test turns, and outside parts start
    at 0.05, where the remainder squared is still ten times the round-off,
    eps |c|_1^2, of reading it off a Gram matrix.  Combinations take unit
    rows only: one of 1e-10 rows, scaled to unit norm, would carry a
    right-hand side near 1e10, which puts a conflict of 1 at the slack."""
    N = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, rhs, pairs = [], [], []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["fresh", "repeat", "sum", "zero", "tiny", "near",
                                     "outside"]))
        e = _outside(rows, N, rng)
        units = [j for j, row in enumerate(rows) if abs(row @ row - 1.0) < 1e-12]
        if kind == "near" and units and e is not None:
            j = units[rng.integers(len(units))]
            row, value = rows[j] + 10.0 ** rng.uniform(math.log10(2e-6), -3.0) * e, rhs[j]
            pairs.append((j, len(rows)))
        elif kind == "outside" and pairs and e is not None:
            j, k = pairs[rng.integers(len(pairs))]
            step = np.linalg.norm(rows[k] - rows[j])
            row = (rows[k] - rows[j]) / step + rng.uniform(0.05, 1.0) * e
            value = (rhs[k] - rhs[j]) / step
        elif kind in ("fresh", "near", "outside") or (kind in ("repeat", "sum") and not units):
            kind, row, value = "fresh", rng.normal(size=N), rng.normal()
        elif kind in ("repeat", "sum"):
            picked = rng.choice(units, size=1 if kind == "repeat" else rng.integers(1, 4))
            weights = rng.choice([-1.0, 1.0], size=len(picked)) * (
                1.0 if kind == "repeat" else rng.uniform(0.2, 2.0, size=len(picked)))
            row, value = weights @ np.array(rows)[picked], weights @ np.array(rhs)[picked]
        else:
            row, value = np.zeros(N) if kind == "zero" else 1e-10 * rng.normal(size=N), 0.0
        if kind != "fresh" and (kind != "near" or near_conflicts) and draw(st.booleans()):
            value += 1.0  # conflicts with the rows it depends on
        norm = np.linalg.norm(row)
        if kind != "tiny" and norm > 0.0:
            row, value = row / norm, value / norm
        rows.append(row)
        rhs.append(value)
    return np.array(rows).reshape(-1, N), np.array(rhs)


# Systems of ``row_systems()`` on which a pass over the rows' Gram matrix
# failed ``test_follows_the_qr_reference``, as hypothesis shrank them at
# --hypothesis-seed 12, 27 and 64.  Near pairs and the rows outside them
# make the kept rows' combination large, which the Gram matrix's round-off
# cannot resolve: the first, third and fourth system keep rows on which
# the QR loop finds conflicting right-hand sides, and in the second the
# factor missed the kept rows' Gram block by 2.4e-4.
GRAM_FALSIFIED = [
    # --hypothesis-seed=12: 6 rows of length 5
    (np.array([
        [-0.21655566929697231, -0.11730028931441804, 0.4839564600771525,
         -0.6769448813973986, -0.49686623604502206],
        [-0.21656021810255566, -0.11729776154591168, 0.48395653174198267,
         -0.6769429294054053, -0.4968674398509039],
        [0.21655566929697234, 0.11730028931441806, -0.48395646007715254, 0.6769448813973986,
         0.4968662360450221],
        [-0.9621449609056008, -0.006499104717896681, -0.23170065803960582,
         0.14335142199800524, -0.00010352289236566982],
        [-0.7909474496753047, 0.38605942298394036, 0.025498360751434457, 0.3958169373901268,
         -0.26084294019874954],
        [-4.94219145889823e-11, -1.527819861315065e-10, 1.5056370274361273e-10,
         2.7120927437562625e-11, -2.560033769893046e-10],
    ]), np.array([
        0.0030623783509744875, 0.0030623783509249602, -0.0030623783509744883,
        -7.079442193160581e-09, 0.9955798280308306, 0.0])),
    # --hypothesis-seed=12: 6 rows of length 5
    (np.array([
        [-0.21655566929697231, -0.11730028931441804, 0.4839564600771525,
         -0.6769448813973986, -0.49686623604502206],
        [-0.21656021810255566, -0.11729776154591168, 0.48395653174198267,
         -0.6769429294054053, -0.4968674398509039],
        [0.21655566929697234, 0.11730028931441806, -0.48395646007715254, 0.6769448813973986,
         0.4968662360450221],
        [-0.9621449609056008, -0.006499104717896681, -0.23170065803960582,
         0.14335142199800524, -0.00010352289236566982],
        [-0.7909474496753047, 0.38605942298394036, 0.025498360751434457, 0.3958169373901268,
         -0.26084294019874954],
        [-0.14591020951547756, -0.45106410368829764, 0.4445149807620798, 0.0800701518259476,
         -0.755808565569139],
    ]), np.array([
        0.0030623783509744875, 0.0030623783509249602, -0.0030623783509744883,
        -7.079442193160581e-09, -8.669840297174357e-09, 0.08625920695392124])),
    # --hypothesis-seed=27: 7 rows of length 9
    (np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-0.14904897579486698, 0.46218514978826225, -0.11727556294410606,
         0.05474390413792076, -0.44826652903638153, 0.6898358596996572,
         -0.02768073252940505, -0.11337550891843048, 0.23870947628407213],
        [0.012394540434998748, 0.29137193050206256, 0.05221957694354682,
         -0.20238550907278707, 0.01608824478333109, 0.6019587482384361,
         -0.10473952826894108, -0.43584393498449003, -0.5547238270872582],
        [0.012315260717369228, 0.29141645918411446, 0.05234151323912939,
         -0.20221256114103942, 0.01598378973388163, 0.6018907705041243,
         -0.10478485845042251, -0.4358262040887385, -0.5548359215979954],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-0.28172458027412045, 0.10336325218639031, 0.40357316899554885, 0.6066163940440321,
         -0.3819882090503499, -0.21500129008313615, -0.14993944266767106,
         0.06297957244016472, -0.4006291765555583],
        [-7.523840832368005e-11, -1.0065576342651763e-10, 1.645867978584682e-11,
         4.579990726939254e-11, -1.466086276119105e-10, -1.6792866138854994e-11,
         7.254607245113741e-11, 9.150779803120077e-11, -1.1153914474910241e-10],
    ]), np.array([
        0.0, -0.26241539751174264, -0.12681365742741726, -0.12681365213207563, 0.0,
        0.9979808035565259, 0.0])),
    # --hypothesis-seed=64: 7 rows of length 6
    (np.array([
        [-0.2755191048853438, -0.041306056701168395, -0.08878687277995836,
         0.8440308518052777, -0.44865050043467936, -0.028715386215463688],
        [-0.2754961002160783, -0.041418496297770106, -0.0887264974627112,
         0.8440216272367211, -0.44867385243159263, -0.028866632623746495],
        [-0.27551698605783587, -0.04145018998712353, -0.08871029415256312,
         0.8440297252240109, -0.4486475038968978, -0.028844341565844825],
        [-0.32999181276677, -0.2406192201935179, 0.11469254158507035, -0.9009370489653632,
         -0.04870190020956229, -0.07742075950726572],
        [0.5274453183652406, 0.228871534278001, -0.044211969967609004, 0.36776309226245835,
         0.642820251696439, 0.3449594043099688],
        [0.3131762954943264, -0.7011159032083762, 0.30803414102074694, 0.2600325545413975,
         -0.33363870925138156, -0.3695136647569489],
        [2.9396496973708843e-11, -5.5913013494949076e-11, -1.053805595459218e-10,
         8.420803975034423e-11, -3.61788008158433e-13, -4.4402736495655295e-11],
    ]), np.array([
        -0.477853154435974, -0.4778531448017517, -0.4778531440945363, 0.6541106853502215,
        0.37355274822566964, -0.3637441011189139, 0.0])),
]


class TestIndependent:
    @settings(max_examples=500, deadline=None)
    @given(system=row_systems())
    @example(system=GRAM_FALSIFIED[0])
    @example(system=GRAM_FALSIFIED[1])
    @example(system=GRAM_FALSIFIED[2])
    @example(system=GRAM_FALSIFIED[3])
    def test_follows_the_qr_reference(self, system):
        # one pass over the rows keeps the rows that the QR loop keeps and
        # raises where it raises, and the factor it returns is the inverse
        # of the Cholesky factor of the kept rows' Gram block (read as
        # L = (L^-1)^-1: on nearly dependent rows L^-1 itself carries the
        # round-off times its condition number)
        rows, rhs = system
        slack = 1e-9 * (1.0 + np.linalg.norm(rhs))
        keep = verdict(independent_reference, rows, rhs, slack)
        event("inconsistent" if keep is None else f"{len(rows) - len(keep)} dropped")
        assert verdict(sdp._independent_rows, rows, rhs) == keep
        if keep:
            _, L_inv = sdp._independent_rows(rows, rhs)
            kept, L = rows[keep], np.linalg.inv(L_inv)
            assert (np.triu(L_inv, 1) == 0.0).all() and (L_inv.diagonal() > 0.0).all()
            assert np.allclose(L @ L.T, kept @ kept.T, rtol=0.0, atol=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(system=row_systems(near_conflicts=True))
    def test_keeps_what_the_qr_reference_keeps(self, system):
        # where a near row's right-hand side is free, L^-1 rhs grows as
        # the inverse angle, and a later row's conflict is read against
        # it: measured on the rows, the pass still keeps what the QR loop
        # keeps and raises where it raises
        rows, rhs = system
        slack = 1e-9 * (1.0 + np.linalg.norm(rhs))
        keep = verdict(independent_reference, rows, rhs, slack)
        event("inconsistent" if keep is None else f"{len(rows) - len(keep)} dropped")
        assert verdict(sdp._independent_rows, rows, rhs) == keep

    @pytest.mark.parametrize("point", [(1.0, 1.0, 0.5), (1.0, 1.0, 0.0)])
    def test_nearly_dependent_rows_are_kept(self, point):
        # the second row is 2e-6 off the first and the third 0.05 off
        # their span, so its combination of them sums to 1e6 in size:
        # the QR reference keeps all three, whether or not the third's
        # right-hand side is the combination of theirs, and so does the
        # pass over the rows
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 2e-6, 0.0], [0.0, 1.0, 0.05]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rhs = rows @ np.array(point)
        slack = 1e-9 * (1.0 + np.linalg.norm(rhs))
        assert independent_reference(rows, rhs, slack).tolist() == [0, 1, 2]
        assert sdp._independent_rows(rows, rhs)[0].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("rhs", [(1.0, 1.0, 0.0), (1.0, 1.0, 1.0)])
    def test_rows_resolve_what_the_gram_matrix_cannot(self, rhs):
        # the third row is 1e-3 off the span of a pair 2e-6 apart: its
        # combination of them reaches 1e6 in size, and the Gram matrix's
        # round-off, about 2e-4, hides its remainder squared, 1e-6.  The
        # pass over the rows keeps it, as the QR reference does whatever
        # its right-hand side, and L^-1 maps it to its unit remainder e_3
        # (to the round-off of that product, eps |L^-1| = 1e-7)
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 2e-6, 0.0], [0.0, 1.0, 1e-3]])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rhs = np.array(rhs)
        slack = 1e-9 * (1.0 + np.linalg.norm(rhs))
        assert independent_reference(rows, rhs, slack).tolist() == [0, 1, 2]
        keep, L_inv = sdp._independent_rows(rows, rhs)
        assert keep.tolist() == [0, 1, 2]
        np.testing.assert_allclose(L_inv[2] @ rows, [0.0, 0.0, 1.0], rtol=0.0, atol=1e-6)


@st.composite
def diagonal_faces(draw):
    """Problems that ``_solve_diag_ipm`` solves on a face: d from 2 to 10,
    the face of an integer system K with entries in [-1, 1] or [-3, 3],
    which may pin a coordinate (a zero diagonal row) or equate two up to
    sign (coinciding rows), and a diagonal of ones, a random one, or that
    of a point on the face."""
    d = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 3]))
    K = rng.integers(-top, top + 1, size=(draw(st.integers(0, d - 1)), d))
    i, j = rng.choice(d, size=2, replace=False)
    unit = np.eye(d, dtype=int)
    extra = {"none": [], "pin": [unit[i]], "equate": [unit[i] + rng.choice([-1, 1]) * unit[j]]}
    K = np.array(list(K) + extra[draw(st.sampled_from(list(extra)))], dtype=int).reshape(-1, d)
    V = SdpProblem(C=np.eye(d), diag=np.ones(d), face=K)._basis
    assume(V is not None and V.shape[1] > 0)
    kind = draw(st.sampled_from(["ones", "random", "attained"]))
    if kind == "attained":
        B = rng.normal(size=(V.shape[1],) * 2)
        diag = (V @ (B @ B.T + np.eye(len(B))) @ V.T).diagonal()
        assume(np.all(diag > 1e-6))
    else:
        diag = np.ones(d) if kind == "ones" else rng.uniform(0.5, 2.0, size=d)
    return SdpProblem(C=np.eye(d), diag=diag, face=K)


class TestKeptDiagonal:
    @settings(max_examples=300, deadline=None)
    @given(p=diagonal_faces())
    def test_follows_the_exact_rank(self, p):
        # the diagonal rows on the face of K are the matrices n_i n_i' of
        # the rows of K's null-space basis N, and the echelon form keeps
        # the first of them, in order, that raise the exact rank in
        # Fractions of their upper triangles.  It raises exactly where the
        # right-hand sides, read as rationals, raise that rank, and each row
        # is its row of E times the kept rows.  The solve returns 0 at every
        # dropped row, or Diverged
        rows, pivots = rref(p.face.tolist())
        free = [c for c in range(p.dim) if c not in pivots]
        N = [[Fraction(int(c == f)) for f in free] for c in range(p.dim)]
        for row, c in zip(rows, pivots):
            N[c] = [-row[f] for f in free]
        ia, ib = np.triu_indices(len(free))
        lifted = [[n[a] * n[b] for a, b in zip(ia, ib)] for n in N]
        rank = len(rref(lifted)[1])
        consistent = rank == len(rref([v + [Fraction(x)] for v, x in zip(lifted, p.diag)])[1])
        event("inconsistent" if not consistent else f"{p.dim - rank} dropped")
        sol = solve_sdp(p, SolverConfig(max_iter=1))
        if not consistent:
            with pytest.raises(sdp._InconsistentSystem):
                sdp._kept_diagonal(p._echelon, p.diag)
            assert sol.status == SolveStatus.DIVERGED and sol.y is None
            return
        keep, E = sdp._kept_diagonal(p._echelon, p.diag)
        first = []
        for i, row in enumerate(lifted):
            if len(rref([lifted[k] for k in first] + [row])[1]) > len(first):
                first.append(i)
        assert keep.tolist() == first and len(first) == rank
        assert (E[keep] == np.eye(len(keep))).all()
        V = p._basis
        P_rows = np.array([np.outer(v, v).ravel() for v in V])
        np.testing.assert_allclose(E @ P_rows[keep], P_rows, rtol=0.0, atol=1e-9)
        assert (np.delete(sol.y, keep) == 0.0).all()

    def test_coinciding_rows(self):
        # x_1 + x_2 = 0 on (x_1, x_2, x_3): the diagonal rows of x_1 and x_2
        # coincide, so the second is dropped and carries its multiplier over
        # to the first with coefficient 1, although x_1 is the pivot of K's
        # echelon form; right-hand sides that differ conflict
        e = SdpProblem(C=np.eye(3), diag=np.ones(3), face=np.array([[1, 1, 0]]))._echelon
        keep, E = sdp._kept_diagonal(e, np.ones(3))
        assert keep.tolist() == [0, 2]
        assert E.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(sdp._InconsistentSystem):
            sdp._kept_diagonal(e, np.array([1.0, 1.0 + 2.0**-52, 1.0]))


def smat(u, r):
    """Symmetric r x r matrices from svec coordinates (the last axis of
    ``u``), by scatter."""
    ia, ib, s = _svec_index(r)
    M = np.zeros(u.shape[:-1] + (r, r))
    M[..., ia, ib] = M[..., ib, ia] = u / s
    return M


def face_ipm_reference(p, cfg):
    """``_solve_face_ipm`` as it was before its iterate was stacked: rho, v,
    y and w apart, matrices from svec coordinates by scatter, and H built
    from a four-way gather and G'DG.  The loop the stacked one must follow."""
    d = p.dim
    sign = 1.0 if p.sense == Sense.MIN else -1.0
    V, A, b, norms, keep, L_inv, T, weights = p._rows
    r = V.shape[1]
    ia, ib, s = _svec_index(r)
    m = len(b)
    C = sign * (p.C if p._basis is None else V.T @ p.C @ V)
    c = C[ia, ib] * s
    bound = T * float(np.linalg.eigvalsh(C)[-1])
    res_tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + float(np.linalg.norm(b)))

    pi, pj = _svec_index(d)[:2] if p.cone == Cone.PSD_NONNEG else (np.zeros(0, int),) * 2
    Va, Vb = V[:, ia], V[:, ib]
    G = (Va[pi] * Vb[pj] + Vb[pi] * Va[pj]) * (s / 2.0)
    Q = L_inv @ A
    along = G @ Q.T
    outside = np.linalg.norm(G - along @ Q, axis=1)
    pinned_to = along @ (L_inv @ b)
    free = (outside > 1e-9) | (np.abs(pinned_to) > 1e-9)
    pi, pj, G = pi[free], pj[free], G[free]
    q = len(G)

    N = len(c)
    K = np.zeros((N + m, N + m))
    K[:N, N:] = A.T
    K[N:, :N] = A
    half_ss = np.outer(s, s / 2.0)
    rho = (T / r) * (ia == ib)
    v = np.full(q, T / d)
    eta = 1.0 + float(np.abs(C).max())
    w = np.full(q, eta)
    shift = float(np.linalg.eigvalsh(smat(c - G.T @ w, r))[0]) - eta
    y = shift * weights
    z = c - A.T @ y - G.T @ w

    def multipliers():
        y_rows = np.zeros(len(norms))
        y_rows[keep] = y / norms[keep]
        if p.cone != Cone.PSD_NONNEG:
            return sign * y_rows, None
        W = np.zeros((d, d))
        W[pi, pj] += w / 2.0
        W[pj, pi] += w / 2.0
        return sign * y_rows, sign * W

    status = SolveStatus.ITERATION_LIMIT
    message = ""
    it = 0
    while True:
        primal = float(c @ rho)
        dual = float(b @ y)
        gap = primal - dual
        r_p = b - A @ rho
        r_g = v - G @ rho
        comp = float(rho @ z + v @ w)
        tol = d * cfg.eps_abs + cfg.eps_rel * (1.0 + abs(primal))
        if gap <= tol and comp <= tol and math.hypot(sdp._fro(r_p), sdp._fro(r_g)) <= res_tol:
            status = SolveStatus.CONVERGED
            break
        Z = smat(z, r)
        if dual > bound + tol:
            certified = dual + T * min(0.0, float(np.linalg.eigvalsh(Z)[0]))
            if certified > bound + tol:
                status = SolveStatus.DIVERGED
                break
        if it == cfg.max_iter:
            break
        try:
            L = np.linalg.cholesky(smat(rho, r))
            lam, U = np.linalg.eigh(L.T @ Z @ L)
            if not lam[0] > 0.0:
                raise np.linalg.LinAlgError("Z is not positive definite")
            l = np.sqrt(lam)
            root = np.sqrt(l)
            S = L @ (U / root)
            F = Z @ S / l
            scalings = np.array([F, S])
            P = F @ F.T
            Pa, Pb = P[ia], P[ib]
            D = w / v
            K[:N, :N] = (Pa[:, ia] * Pb[:, ib] + Pa[:, ib] * Pb[:, ia]) * half_ss
            G_D = G * np.sqrt(D)[:, None]
            GDG = G_D.T @ G_D
            K[:N, :N] += GDG
            pair = 2.0 / (l[:, None] + l[None, :])
            unit = 1.0 / np.outer(root, root)
            shifted = D * r_g

            def direction(r_c, t):
                t_v = t / v
                pulled = G.T @ (t_v + shifted)
                step = np.linalg.solve(K, np.concatenate([r_c + pulled, r_p]))
                d_rho, dy = step[:N], -step[N:]
                dv = G @ d_rho - r_g
                dw = t_v - D * dv
                scaled = scalings.transpose(0, 2, 1) @ smat(
                    np.array([d_rho, GDG @ d_rho - pulled - A.T @ dy]), r) @ scalings
                low = np.linalg.eigvalsh(scaled * unit)[:, 0]
                return (d_rho, dv, dy, dw, scaled[0], scaled[1],
                        sdp._step_to(min(low[0], (dv / v).min(initial=0.0))),
                        sdp._step_to(min(low[1], (dw / w).min(initial=0.0))))

            mu = comp / (r + q)
            _, dv, _, dw, scaled_r, scaled_z, step_p, step_d = direction(-z, -v * w)
            mu_aff = (comp + step_p * float(np.diag(scaled_r) @ l)
                      + step_d * float(np.diag(scaled_z) @ l)
                      + step_p * step_d * float(np.vdot(scaled_r, scaled_z))
                      + step_p * float(dv @ w) + step_d * float(v @ dw)
                      + step_p * step_d * float(dv @ dw)) / (r + q)
            centering = min(1.0, (max(mu_aff, 0.0) / mu) ** 3) * mu
            target = (scaled_r @ scaled_z + scaled_z @ scaled_r) / -2.0
            target.flat[:: r + 1] += centering - lam
            r_c = F @ (target * pair) @ F.T
            d_rho, dv, dy, dw, _, _, step_p, step_d = direction(
                r_c[ia, ib] * s, centering - v * w - dv * dw)
        except np.linalg.LinAlgError:
            break
        rho = rho + step_p * d_rho
        v = v + step_p * dv
        y = y + step_d * dy
        w = w + step_d * dw
        z = c - A.T @ y - G.T @ w
        it += 1

    R = smat(rho + (L_inv @ (b - A @ rho)) @ L_inv @ A, r)
    X = R if p._basis is None else V @ R @ V.T
    y_rows, W = multipliers()
    return sdp._solution(p, X, status, primal_residual=0.0, dual_residual=gap, iterations=it,
                         y=y_rows, W=W)


@st.composite
def face_problems(draw):
    """Problems the face method solves: d from 2 to 7, no face or that of
    a small integer system K with entries in [-1, 1] or [-3, 3], the
    diagonal of a point X0 = V R0 V' fixed as rows, up to two more rows
    that X0 meets, and either cone and sense."""
    d = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    face, V = None, np.eye(d)
    if draw(st.booleans()):
        top = draw(st.sampled_from([1, 3]))
        face = rng.integers(-top, top + 1, size=(draw(st.integers(1, d - 1)), d))
        V = SdpProblem(C=np.eye(d), diag=np.ones(d), face=face)._basis
        assume(V is not None and V.shape[1] > 0)
    B = rng.normal(size=(V.shape[1], V.shape[1]))
    X0 = V @ (B @ B.T + np.eye(len(B))) @ V.T
    cone = draw(st.sampled_from(list(Cone)))
    rows = rng.normal(size=(draw(st.integers(0, 2)), d, d))
    rows = rows + rows.swapaxes(1, 2)
    b = np.einsum("kij,ij->k", rows, X0)
    rows, b = np.concatenate([diag_rows(d), rows]), np.concatenate([X0.diagonal(), b])
    assume(np.all(X0.diagonal() > 1e-6))
    C = rng.normal(size=(d, d))
    return SdpProblem(C=C + C.T, A=rows, b=b, sense=draw(st.sampled_from(list(Sense))),
                      cone=cone, face=face)


def dnn_problem_of(prog):
    """The SdpProblem that ``copositive_dnn`` solves for ``prog``."""
    with mock.patch.object(relaxations, "_certified", side_effect=lambda p, *_: p):
        return copositive_dnn(prog)


class TestFaceIpm:
    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(face_problems(), zero_one_programs(max_rows=3, pin=False).map(
        dnn_problem_of)), max_iter=st.integers(1, 40))
    def test_follows_the_reference_loop(self, p, max_iter):
        # the stacked iterate, the basis-matrix svec maps and the one-gather
        # Newton block change round-off only: the same statuses and
        # iterations, and values and certificates within 1e-6 (1 + |v|), a
        # tenth of the solve's eps_rel.  The last steps before convergence
        # amplify round-off, most where the dual optimum is not unique:
        # G'DG by gemm in place of syrk moves the reference itself by up to
        # 7e-9 (1 + |v|) on these problems, so a tighter bound would fail
        # now and then on round-off alone.  A Diverged solve's y runs along
        # a ray, so only its status and objective are compared
        cfg = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=max_iter)
        try:
            ref = face_ipm_reference(p, cfg)
        except ValueError:  # rows that fix no trace, or conflict
            assume(False)
        sol = sdp._solve_face_ipm(p, cfg)
        event(ref.status.value)
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        pairs = [(sol.objective, ref.objective)]
        if ref.status != SolveStatus.DIVERGED:
            pairs.append((certified_diag_bound(p, sol.y, sol.W),
                          certified_diag_bound(p, ref.y, ref.W)))
        for new, old in pairs:
            assert new == old or abs(new - old) <= 1e-6 * (1.0 + abs(old)), (new, old)

    def test_factorization_budget(self, monkeypatch, count_calls):
        # per iteration one Cholesky factorization of R, one eigh of the
        # scaled Z, two solves of the Newton matrix (predictor and
        # corrector) and two eigvalsh of the stacked step matrices, all
        # through the LAPACK seam; numpy.linalg serves the setup, one
        # Householder QR for the face and eigvalsh of C and of the start's
        # Z, and the end, one eigh for R's distance to the PSD cone.  The
        # trace weights, the pinned entries and the move onto the rows read
        # the factor of the one pass over the rows, and solve nothing
        calls = count_calls(np.linalg, ["cholesky", "eigh", "solve", "eigvalsh", "inv", "lstsq",
                                        "qr"])
        seam = count_calls(sdp, SEAM)
        p = dnn_problem_of(to_zero_one(knapsack_fixed(4, 28)))
        reductions = []
        independent_rows = sdp._independent_rows
        monkeypatch.setattr(sdp, "_independent_rows",
                            lambda *args: reductions.append(None) or independent_rows(*args))
        sol = solve_sdp(p, FAST)
        k = sol.iterations
        assert sol.status == SolveStatus.CONVERGED and k > 0
        assert seam == dict(_cholesky=k, _inv=0, _solve=2 * k, _eigvalsh=2 * k, _eigh=k)
        assert calls == dict(cholesky=0, eigh=1, solve=0, eigvalsh=2, inv=0, lstsq=0, qr=1)
        assert len(reductions) == 1


class TestSdpProblemIdentity:
    def test_compares_and_hashes_by_identity(self):
        # frozen with array fields: the generated __eq__ and __hash__ would
        # raise, so problems compare and hash as objects
        p = SdpProblem(C=np.eye(2), diag=np.ones(2))
        twin = copy.copy(p)
        assert p == p and not p != p
        assert twin != p and not twin == p
        assert hash(p) == hash(p) and hash(p) != hash(twin)
        assert p in {p} and twin not in {p}
