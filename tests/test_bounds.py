"""Sandwich arithmetic, hyperplane rounding, and the feasibility verdicts."""

import math

import numpy as np
import pytest

from maxcut_bridge.bounds import (
    FEASIBLE,
    INFEASIBLE_BY_GAP,
    UNKNOWN,
    Certificate,
    RoundingResult,
    _one_opt_polish,
    certify,
    gw_round,
    nesterov_sandwich,
)
from maxcut_bridge.instances import STREAM_GW, brute_force, kcluster, knapsack_fixed
from maxcut_bridge.model import SignProgram
from maxcut_bridge.penalty import PenaltyBound, rho as penalty_rho
from maxcut_bridge.reduction import homogenize
from maxcut_bridge.relaxations import compute_bounds, shor_maxcut
from maxcut_bridge.sdp import Sense, SolverConfig

CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)


class TestNesterovSandwich:
    def test_degenerate_interval(self):
        assert nesterov_sandwich(5.0, 5.0) == pytest.approx(5.0, abs=1e-15)

    def test_symmetric_interval_arithmetic(self):
        # (2/pi)*(-10) + (1 - 2/pi)*10 = 10 - 40/pi
        assert nesterov_sandwich(-10.0, 10.0) == pytest.approx(
            10.0 - 40.0 / math.pi, abs=1e-12)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            nesterov_sandwich(1.0, 0.0)

    def test_contains_constrained_optimum(self):
        q = knapsack_fixed(4, 34)
        pb = penalty_rho(q.c, q.F, CFG)
        mc = homogenize(q, pb)
        rmin = shor_maxcut(mc, Sense.MIN, CFG)
        rmax = shor_maxcut(mc, Sense.MAX, CFG)
        f_star = brute_force(q).value
        upper = nesterov_sandwich(rmin.value - rmin.inflation,
                                  rmax.value + rmax.inflation)
        assert f_star <= upper + 1e-4 * (1 + abs(f_star))
        assert rmin.value - rmin.inflation <= f_star + 1e-4 * (1 + abs(f_star))


def unconstrained_instance(n, c, rho):
    q = SignProgram(n=n, c=c, F=None, A=np.zeros((0, n)), b=[])
    return q, homogenize(q, PenaltyBound(rho))


class TestGwRound:
    def test_rank_one_matrix_recovers_its_sign_vector(self):
        # the plain trial (trial 0) only: later trials rotate away from X
        _, mc = unconstrained_instance(2, [1.0, -2.0], 3.0)
        v = np.array([1.0, -1.0, 1.0])
        res = gw_round(np.outer(v, v), mc, trials=1, seed=0)
        np.testing.assert_array_equal(res.spin, v.astype(np.int64))
        assert res.value == pytest.approx(float(v @ mc.Q @ v), abs=0)

    def test_identity_matrix_explores_both_cuts(self):
        # a single trial per seed so best-of selection cannot mask diversity:
        # under X = I the two canonical sign patterns each appear with
        # probability 1/2, so forty seeds miss one with probability ~2^-39
        _, mc = unconstrained_instance(1, [-1.0], 1.0)
        res_spins = set()
        for seed in range(40):
            res = gw_round(np.eye(2), mc, trials=1, seed=seed)
            res_spins.add(tuple(res.spin))
        assert res_spins == {(1, 1), (-1, 1)}

    def test_homogenization_spin_always_positive(self):
        q = knapsack_fixed(4, 8)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        sol = shor_maxcut(mc, Sense.MIN, CFG).solution
        for seed in range(5):
            assert gw_round(sol.X, mc, trials=20, seed=seed).spin[-1] == 1

    def test_forced_knapsack_rounds_to_the_optimum(self):
        q = knapsack_fixed(4, 34)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        sol = shor_maxcut(mc, Sense.MIN, CFG)
        res = gw_round(sol.solution.X, mc, trials=500, seed=0)
        assert res.feasible
        assert res.recovered.objective == pytest.approx(34.0, abs=1e-9)
        assert res.value == pytest.approx(float(res.spin @ mc.Q @ res.spin), abs=0)
        assert res.value >= sol.value - sol.inflation - 1e-6 * (1 + abs(res.value))

    def test_fixed_seed_is_bit_reproducible(self):
        q = knapsack_fixed(4, 8)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        sol = shor_maxcut(mc, Sense.MIN, CFG).solution
        a = gw_round(sol.X, mc, trials=200, seed=42)
        b = gw_round(sol.X, mc, trials=200, seed=42)
        assert a.spin.tobytes() == b.spin.tobytes()
        assert a.value == b.value

    def test_polish_never_worsens(self):
        from maxcut_bridge.instances import quadratic_knapsack_random

        q = quadratic_knapsack_random(6, s=3.0, seed=9, f_density=0.5, b=14)
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        sol = shor_maxcut(mc, Sense.MIN, CFG).solution
        plain = gw_round(sol.X, mc, trials=30, seed=1, polish=False)
        polished = gw_round(sol.X, mc, trials=30, seed=1, polish=True)
        assert polished.value <= plain.value + 1e-12

    @pytest.mark.parametrize("b", [2, 20])
    def test_rotated_trials_reach_what_plain_rounding_misses(self, b):
        # the Shor optimum here has rank 2, so plain hyperplane rounding
        # (one trial per seed) sees only a handful of cuts, none optimal
        q = knapsack_fixed(10, b)
        f_star = brute_force(q).value
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        sol = shor_maxcut(mc, Sense.MIN, CFG).solution
        assert np.sum(np.linalg.eigvalsh(sol.X) > 1e-3) <= 3
        plain = [gw_round(sol.X, mc, trials=1, seed=seed, polish=True) for seed in range(200)]
        assert not any(r.feasible and r.recovered.objective == f_star for r in plain)
        rotated = gw_round(sol.X, mc, trials=200, seed=0, polish=True)
        assert rotated.feasible
        assert rotated.recovered.objective == f_star

    def test_polish_matches_recomputing_reference(self):
        def reference(Q, s):
            s = s.copy()
            while True:
                deltas = -4.0 * s * (Q @ s) + 4.0 * np.diag(Q)
                i = int(np.argmin(deltas))
                if deltas[i] >= -1e-12:
                    return s
                s[i] = -s[i]

        # near-ties between flips are common on penalized forms; the
        # batched gradient must break them exactly as a fresh Q @ s does
        rng = np.random.default_rng(8)
        for q in (knapsack_fixed(4, 34), knapsack_fixed(10, 2), kcluster(12, 4, 0.4, 43)[1],
                  kcluster(40, 20, 0.5, 1)[1]):
            mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
            S = rng.choice([-1.0, 1.0], size=(300, mc.dim))
            np.testing.assert_array_equal(_one_opt_polish(mc.Q, S),
                                          [reference(mc.Q, s) for s in S])

    def test_takes_the_least_trial_at_large_d(self):
        # on 81 spins the trial values come from one BLAS product; rebuilt
        # one by one as the docstring states them, each valued by its own
        # s'Qs, the least of them is what the rounding returns
        q = kcluster(80, 40, 0.5, 1)[1]
        mc = homogenize(q, penalty_rho(q.c, q.F, CFG))
        X = shor_maxcut(mc, Sense.MIN, CFG).solution.X
        trials = 200
        res = gw_round(X, mc, trials=trials, seed=0)
        w, P = np.linalg.eigh((X + X.T) / 2.0)
        V = (P * np.sqrt(np.maximum(w, 0.0))).T
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, STREAM_GW])))
        R = rng.normal(size=(trials, mc.dim))
        R2 = rng.normal(size=(trials, mc.dim))
        values = []
        for k in range(trials):
            t = k / trials
            s = np.where(math.sqrt(1.0 - t) * (R[k] @ V) + math.sqrt(t) * R2[k] >= 0.0, 1.0, -1.0)
            values.append(float(s @ mc.Q @ s))
        least = min(values)
        assert abs(res.value - least) <= 1e-12 * (1.0 + abs(least))

    def test_bad_inputs_rejected(self):
        _, mc = unconstrained_instance(1, [-1.0], 1.0)
        with pytest.raises(ValueError, match="trials"):
            gw_round(np.eye(2), mc, trials=0)
        with pytest.raises(ValueError, match="diagonal"):
            gw_round(2.0 * np.eye(2), mc, trials=10)
        with pytest.raises(ValueError, match="2x2"):
            gw_round(np.eye(3), mc, trials=10)


def report_for(q, gw_trials=50):
    pb = penalty_rho(q.c, q.F, CFG)
    rep = compute_bounds(q, selectors=["maxcut_shor_min"], cfg=CFG, pb=pb,
                         gw_trials=gw_trials)
    return rep, pb


class TestCertify:
    def test_oversized_cluster_is_infeasible_by_gap(self):
        _, s = kcluster(6, 7, zero_prob=0.5, seed=6)
        rep, pb = report_for(s)
        cert = certify(rep, pb)
        assert cert.kind == INFEASIBLE_BY_GAP
        assert cert.bound > cert.rho
        assert "penalty threshold" in cert.explanation

    def test_forced_knapsack_is_feasible_with_point(self):
        q = knapsack_fixed(4, 34)
        rep, pb = report_for(q, gw_trials=500)
        cert = certify(rep, pb)
        assert cert.kind == FEASIBLE
        assert cert.value == pytest.approx(34.0, abs=1e-9)
        assert q.is_feasible(cert.point)

    def test_parity_infeasible_knapsack_is_not_certified_feasible(self):
        # the gap test may or may not clear rho here; what is forbidden is a
        # feasible verdict for an instance with no feasible point
        q = knapsack_fixed(4, 1)
        rep, pb = report_for(q, gw_trials=200)
        cert = certify(rep, pb)
        assert cert.kind in (UNKNOWN, INFEASIBLE_BY_GAP)

    @pytest.mark.parametrize("b", [34, 20, 8, 2, -34])
    def test_gap_never_fires_on_feasible_data(self, b):
        q = knapsack_fixed(4, b)
        assert np.isfinite(brute_force(q).value)  # sanity: b is attainable
        rep, pb = report_for(q)
        cert = certify(rep, pb)
        assert cert.kind != INFEASIBLE_BY_GAP

    def test_unknown_without_rounding_or_gap(self):
        q = knapsack_fixed(4, 8)
        rep, pb = report_for(q, gw_trials=0)
        assert rep.rounding is None
        cert = certify(rep, pb)
        assert cert.kind == UNKNOWN
        assert isinstance(cert, Certificate)
