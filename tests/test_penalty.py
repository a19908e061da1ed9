import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxcut_bridge.instances import kcluster
from maxcut_bridge.penalty import PenaltyBound, rho, shor_box_extrema
from maxcut_bridge.sdp import SolverConfig
from strategies import extrema

CFG = SolverConfig(eps_abs=1e-7, eps_rel=1e-6)


class TestShorBoxExtrema:
    def test_single_linear(self):
        r1, r2 = shor_box_extrema([1.0], None, CFG)
        assert r1 == pytest.approx(-1.0, abs=1e-4)
        assert r2 == pytest.approx(1.0, abs=1e-4)

    def test_pure_offdiagonal_quadratic(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        r1, r2 = shor_box_extrema([0.0, 0.0], F, CFG)
        lo, hi, _ = extrema([0.0, 0.0], F)
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
        lo, hi, _ = extrema(c, F)
        assert r1 <= lo + 1e-5 * (1 + abs(lo))
        assert r2 >= hi - 1e-5 * (1 + abs(hi))


def exact_peak(c, F) -> Fraction:
    """max |c's + s'Fs| over the sign hypercube, in exact arithmetic.

    Every float is a dyadic fraction, so with the least common denominator
    L of the entries, L c and L F are integers and the enumeration runs on
    Python integers."""
    c = [Fraction(v) for v in np.asarray(c, dtype=float)]
    n = len(c)
    F = [[Fraction(v) for v in row] for row in np.asarray(F, dtype=float).reshape(n, n)]
    L = max((v.denominator for v in [*c, *itertools.chain(*F)]), default=1)
    ci = np.array([int(v * L) for v in c], dtype=object)
    Fi = np.array([[int(v * L) for v in row] for row in F], dtype=object).reshape(n, n)
    S = np.array(list(itertools.product((-1, 1), repeat=n)), dtype=object).reshape(-1, n)
    values = S.dot(ci) + (S.dot(Fi) * S).sum(axis=1)
    return Fraction(max(abs(int(v)) for v in values), L)


@st.composite
def scaled_objectives(draw):
    """(c, F) with n from 1 to 10 at a scale from 1e-3 to 1e8: F dense,
    diagonal, rank one (a sign vector among them, where both of rho's
    bounds are tight) or zero, and c drawn or zero."""
    n = draw(st.integers(1, 10))
    scale = 10.0 ** draw(st.integers(-3, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    c = draw(hnp.arrays(np.float64, n, elements=unit)) * scale
    if draw(st.booleans()):
        c = np.zeros(n) if draw(st.booleans()) else np.abs(c)
    kind = draw(st.sampled_from(["dense", "diagonal", "rank_one", "sign", "zero"]))
    if kind == "dense":
        B = draw(hnp.arrays(np.float64, (n, n), elements=unit)) * scale
        F = B + B.T
    elif kind == "diagonal":
        F = np.diag(draw(hnp.arrays(np.float64, n, elements=unit)) * scale)
    elif kind == "rank_one":
        u = draw(hnp.arrays(np.float64, n, elements=unit)) * np.sqrt(scale)
        F = np.outer(u, u) * draw(st.sampled_from([-1.0, 1.0]))
    elif kind == "sign":  # s'Fs = (sum |u|)^2 at s = u / |u|
        u = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
        F = np.outer(u, u) * scale
    else:
        F = np.zeros((n, n))
    return c, F


class TestRho:
    @settings(max_examples=300, deadline=None)
    @given(objective=scaled_objectives())
    def test_dominates_in_exact_arithmetic(self, objective):
        # rho >= max |c's + s'Fs| with no tolerance: round-off in the sums
        # or the eigenvalues must not leave it below the exact maximum
        c, F = objective
        pb = rho(c, F, CFG)
        assert Fraction(pb.rho) >= exact_peak(c, F)

    @pytest.mark.parametrize("F", [None, np.zeros((3, 3))], ids=["none", "zero"])
    def test_linear_is_the_least_float_above_the_sum(self, F):
        # the exact sum of the floats 0.1, 0.2 and 0.3 is not a float: rho
        # is the next float up from it
        c = [0.1, -0.2, 0.3]
        exact = sum(abs(Fraction(v)) for v in c)
        pb = rho(c, F, CFG)
        assert Fraction(np.nextafter(pb.rho, -np.inf)) < exact <= Fraction(pb.rho)

    def test_takes_the_smaller_quadratic_bound(self):
        n = 10
        # the star K_{1,9}: sum |F_ij| = 18 against n max|lambda| = 10 * 3
        star = np.zeros((n, n))
        star[0, 1:] = star[1:, 0] = 1.0
        assert rho(np.zeros(n), star, CFG).rho == 18.0
        # a random symmetric sign matrix: n max|lambda| below sum |F_ij| = n^2
        signs = np.triu(np.random.default_rng(0).choice([-1.0, 1.0], size=(n, n)))
        signs = signs + np.triu(signs, 1).T
        spectral = n * float(np.abs(np.linalg.eigvalsh(signs)).max())
        assert spectral < n * n
        assert rho(np.ones(n), signs, CFG).rho == pytest.approx(n + spectral, rel=1e-12)

    def test_makes_no_solve(self, monkeypatch):
        from maxcut_bridge import penalty, sdp

        def refuse(*args, **kwargs):
            raise AssertionError("rho must not solve an SDP")

        for module in (sdp, penalty):
            monkeypatch.setattr(module, "solve_sdp", refuse)
        _, q = kcluster(40, 20, 0.5, 1)
        assert rho(q.c, q.F, CFG).rho > 0.0
        assert rho(q.c, q.F, SolverConfig(max_iter=1)) == rho(q.c, q.F, CFG)

    def test_closed_form_knapsack(self):
        pb = rho([13.0, 11.0, 7.0, 3.0], None, CFG)
        assert pb.rho == 34.0
        assert pb.penalty_m == 69.0

    def test_zero_objective(self):
        pb = rho([0.0, 0.0], None, CFG)
        assert pb.rho == 0.0 and pb.penalty_m == 1.0

    def test_quadratic_dominates_brute_force(self):
        c = [1.0, 1.0]
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        pb = rho(c, F, CFG)
        lo, hi, _ = extrema(c, F)
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
        lo, hi, _ = extrema(c, F)
        assert pb.rho + 1e-5 * (1 + pb.rho) >= max(abs(lo), abs(hi))

    @pytest.mark.parametrize("seed", range(3))
    def test_sdp_path_reports_shor_box_extrema(self, seed):
        # the SDP path, shor_box_extrema, reports extrema inside [-rho, rho]:
        # the moment relaxation's optimum is within sum |c_i| + sum |F_ij|
        # (|X_ij| <= 1) and within sum |c_i| + n max|lambda(F)| (tr X = n),
        # so rho is never tighter than it, up to the certificates' slack
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(4, 4))
        c = rng.normal(size=4)
        pb = rho(c, B + B.T, CFG)
        r1, r2 = shor_box_extrema(c, B + B.T, CFG)
        assert pb.rho >= max(abs(r1), abs(r2)) - 1e-5 * (1.0 + pb.rho)

    def test_closed_form_matches_sdp_on_linear(self):
        rng = np.random.default_rng(42)
        c = rng.normal(size=4) * 3
        pb = rho(c, None, CFG)
        r1, r2 = shor_box_extrema(c, None, CFG)
        assert r1 == pytest.approx(-pb.rho, rel=1e-5, abs=1e-5)
        assert r2 == pytest.approx(pb.rho, rel=1e-5, abs=1e-5)

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
    def test_values(self):
        pb = PenaltyBound(rho=10.0)
        assert pb.rho == 10.0 and pb.penalty_m == 21.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PenaltyBound(rho=-1.0)

    def test_bound_consistency_enforced(self):
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="rho must be"):
                PenaltyBound(rho=bad)


class TestRhoInput:
    @pytest.mark.parametrize("c, F, name", [
        ([np.inf, 1.0], None, "c"),
        ([np.nan, 1.0], None, "c"),
        ([[1.0, 2.0]], None, "c"),
        ([1.0, 1.0], [[0.0, np.nan], [np.nan, 0.0]], "F"),
        ([1.0, 1.0], [[np.inf, 0.0], [0.0, 1.0]], "F"),
        ([1.0, 1.0], np.eye(3), "F"),
        ([1.0, 1.0], [1.0, 1.0], "F"),
        ([1.0, 1.0], [[0.0, 1.0], [0.0, 0.0]], "F"),
    ], ids=["inf_c", "nan_c", "matrix_c", "nan_F", "inf_F", "F_too_large", "vector_F",
            "asymmetric_F"])
    def test_refused_naming_the_argument(self, c, F, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            rho(c, F, CFG)
