import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxcut_bridge.penalty import (
    CLOSED_FORM,
    OVERRIDE,
    SDP,
    PenaltyBound,
    _moment_cost,
    rho,
    rho_override,
    shor_box_extrema,
)
from maxcut_bridge.sdp import (SdpProblem, Sense, SolverConfig, SolveStatus, certified_diag_bound,
                               solve_sdp)

CFG = SolverConfig(eps_abs=1e-7, eps_rel=1e-6)


def hypercube_extrema(c, F):
    c = np.asarray(c, dtype=float)
    n = c.size
    F = np.zeros((n, n)) if F is None else np.asarray(F, dtype=float)
    vals = [c @ x + x @ F @ x for x in
            (np.array(s) for s in itertools.product((-1, 1), repeat=n))]
    return min(vals), max(vals)


class TestShorBoxExtrema:
    def test_single_linear(self):
        r1, r2 = shor_box_extrema([1.0], None, CFG)
        assert r1 == pytest.approx(-1.0, abs=1e-4)
        assert r2 == pytest.approx(1.0, abs=1e-4)

    def test_pure_offdiagonal_quadratic(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        r1, r2 = shor_box_extrema([0.0, 0.0], F, CFG)
        lo, hi = hypercube_extrema([0.0, 0.0], F)
        assert (lo, hi) == (-2.0, 2.0)
        assert r1 == pytest.approx(-2.0, abs=1e-4)
        assert r2 == pytest.approx(2.0, abs=1e-4)

    def test_linear_knapsack_costs(self):
        r1, r2 = shor_box_extrema([13.0, 11.0, 7.0, 3.0], None, CFG)
        assert r1 <= -34.0 + 1e-3 and r1 == pytest.approx(-34.0, abs=1e-3)
        assert r2 >= 34.0 - 1e-3 and r2 == pytest.approx(34.0, abs=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_outer_containment(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        c = rng.normal(size=n)
        B = rng.normal(size=(n, n))
        F = B + B.T
        r1, r2 = shor_box_extrema(c, F, CFG)
        lo, hi = hypercube_extrema(c, F)
        assert r1 <= lo + 1e-5 * (1 + abs(lo))
        assert r2 >= hi - 1e-5 * (1 + abs(hi))


@st.composite
def objectives(draw):
    """(c, F) with n from 1 to 8 and F symmetric with a nonzero entry."""
    n = draw(st.integers(1, 8))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
    c = draw(hnp.arrays(np.float64, n, elements=entries))
    B = draw(hnp.arrays(np.float64, (n, n), elements=entries))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    B[i, j] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 10.0))
    return c, B + B.T


class TestSmallerSideStopsEarly:
    @settings(max_examples=100, deadline=None)
    @given(objective=objectives())
    def test_rho_is_that_of_both_sides_solved(self, objective):
        # the side of smaller magnitude stops once its certificate is inside
        # [-rho, rho]; rho is still the larger magnitude of both sides solved
        # to tolerance, to the bit unless the two magnitudes agree within
        # the solve tolerance, and each side still bounds the hypercube
        c, F = objective
        pb = rho(c, F, CFG)
        assert pb.method == SDP
        C = _moment_cost(c, F)
        full = [certified_diag_bound(p, solve_sdp(p, CFG).y) for p in
                (SdpProblem(C=C, sense=sense, diag=np.ones(len(C))) for sense in Sense)]
        magnitudes = np.abs(full)
        if abs(magnitudes[0] - magnitudes[1]) > 1e-5 * (1.0 + magnitudes.max()):
            assert pb.rho == magnitudes.max()
        else:
            assert pb.rho == pytest.approx(magnitudes.max(), rel=1e-5, abs=1e-5)
        lo, hi = hypercube_extrema(c, F)
        rounding = 1e-9 * (1.0 + np.abs(C).sum())  # eigvalsh round-off only
        assert pb.r1 <= lo + rounding
        assert pb.r2 >= hi - rounding


    def test_stopped_side_is_certified_once(self, monkeypatch):
        # the larger side (Max, as |lambda_max(C)| wins) is certified once it
        # is solved, and the smaller side stops at its first check, whose
        # certificate it returns (SdpSolution.bound) instead of computing it
        # again: two certificates, not three
        from maxcut_bridge import penalty, sdp

        calls = []
        certify = sdp.certified_diag_bound

        def counted(*args):
            calls.append(None)
            return certify(*args)

        for module in (sdp, penalty):
            monkeypatch.setattr(module, "certified_diag_bound", counted)
        stopped = []

        def recording(p, cfg, stop_at=None):
            sol = solve_sdp(p, cfg, stop_at=stop_at)
            if stop_at is not None:
                stopped.append(sol)
            return sol

        monkeypatch.setattr(penalty, "solve_sdp", recording)
        c, F = [3.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]])
        pb = rho(c, F, CFG)
        assert len(stopped) == 1 and stopped[0].status == SolveStatus.BOUND_REACHED
        assert stopped[0].iterations == 1
        assert len(calls) == 2
        assert pb.r1 == stopped[0].bound
        lo, hi = hypercube_extrema(c, F)
        assert pb.r1 <= lo and pb.rho == pb.r2 >= hi


class TestRho:
    def test_closed_form_knapsack(self):
        pb = rho([13.0, 11.0, 7.0, 3.0], None, CFG)
        assert pb.method == CLOSED_FORM
        assert pb.rho == 34.0
        assert (pb.r1, pb.r2) == (-34.0, 34.0)
        assert pb.penalty_m == 69.0

    def test_zero_objective(self):
        pb = rho([0.0, 0.0], None, CFG)
        assert pb.rho == 0.0 and pb.penalty_m == 1.0

    def test_quadratic_dominates_brute_force(self):
        c = [1.0, 1.0]
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        pb = rho(c, F, CFG)
        assert pb.method == SDP
        lo, hi = hypercube_extrema(c, F)
        assert max(abs(lo), abs(hi)) == 4.0
        assert pb.rho + 1e-5 * (1 + pb.rho) >= 4.0

    @pytest.mark.parametrize("seed", range(6))
    def test_domination_invariant(self, seed):
        rng = np.random.default_rng(10 + seed)
        n = int(rng.integers(2, 6))
        c = rng.normal(size=n) * 2
        B = rng.normal(size=(n, n))
        F = B + B.T
        pb = rho(c, F, CFG)
        lo, hi = hypercube_extrema(c, F)
        assert pb.rho + 1e-5 * (1 + pb.rho) >= max(abs(lo), abs(hi))
        assert pb.r1 <= pb.r2

    @pytest.mark.parametrize("seed", range(3))
    def test_sdp_path_reports_shor_box_extrema(self, seed):
        # the SDP branch passes the certified extrema on unchanged
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(4, 4))
        c = rng.normal(size=4)
        pb = rho(c, B + B.T, CFG)
        assert pb.method == SDP
        assert (pb.r1, pb.r2) == shor_box_extrema(c, B + B.T, CFG)

    def test_closed_form_matches_sdp_on_linear(self):
        rng = np.random.default_rng(42)
        c = rng.normal(size=4) * 3
        pb = rho(c, None, CFG)
        r1, r2 = shor_box_extrema(c, None, CFG)
        assert r1 == pytest.approx(pb.r1, rel=1e-5, abs=1e-5)
        assert r2 == pytest.approx(pb.r2, rel=1e-5, abs=1e-5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=4)
        B = rng.normal(size=(4, 4))
        F = B + B.T
        perm = np.array([2, 0, 3, 1])
        pb = rho(c, F, CFG)
        pb_p = rho(c[perm], F[np.ix_(perm, perm)], CFG)
        assert pb_p.rho == pytest.approx(pb.rho, rel=1e-5, abs=1e-6)


class TestOverride:
    def test_override_tag_and_values(self):
        pb = rho_override(10.0)
        assert pb.method == OVERRIDE
        assert (pb.r1, pb.r2, pb.rho) == (-10.0, 10.0, 10.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rho_override(-1.0)

    def test_bound_consistency_enforced(self):
        with pytest.raises(ValueError):
            PenaltyBound(r1=1.0, r2=-1.0, rho=1.0, method=OVERRIDE)
        with pytest.raises(ValueError):
            PenaltyBound(r1=-1.0, r2=1.0, rho=2.0, method=OVERRIDE)
