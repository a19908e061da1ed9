import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxcut_bridge.instances import (
    GeneratorSpec,
    brute_force,
    kcluster,
    knapsack_fixed,
    knapsack_random,
    quadratic_knapsack_random,
)
from maxcut_bridge.model import SignProgram
from strategies import hypercube, optimum

ROOT = Path(__file__).resolve().parent.parent


class TestKnapsackFixed:
    def test_n4_vectors(self):
        q = knapsack_fixed(4, 34)
        assert q.c.tolist() == [13.0, 11.0, 7.0, 3.0]
        assert q.A.tolist() == [[3, 7, 11, 13]]

    def test_n4_b34_unique_feasible_point(self):
        q = knapsack_fixed(4, 34)
        feas = [x.tolist() for x in hypercube(4) if q.is_feasible(x)]
        assert feas == [[1, 1, 1, 1]]
        assert optimum(q)[0] == 34.0

    def test_n4_odd_b_infeasible_by_parity(self):
        for b in (-33, -1, 1, 5, 33):
            q = knapsack_fixed(4, b)
            assert optimum(q)[0] == np.inf

    def test_n15_printed_vectors(self):
        q = knapsack_fixed(15, 0)
        assert q.A[0].tolist() == [3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 51, 53]
        assert q.c.tolist() == [53.0, 51.0, 47.0, 43.0, 41.0, 37.0, 31.0, 29.0,
                                23.0, 19.0, 17.0, 13.0, 11.0, 7.0, 3.0]

    @pytest.mark.parametrize("n, costs", [
        (4, (13.0, 11.0, 7.0, 3.0)),
        (10, (37.0, 31.0, 29.0, 23.0, 19.0, 17.0, 13.0, 11.0, 7.0, 3.0)),
        (15, (53.0, 51.0, 47.0, 43.0, 41.0, 37.0, 31.0, 29.0, 23.0, 19.0, 17.0, 13.0,
              11.0, 7.0, 3.0)),
    ])
    def test_costs_match_the_printed_tables(self, n, costs):
        c = knapsack_fixed(n, 0).c
        assert c.dtype == np.float64 and c.tolist() == list(costs)

    def test_unsupported_sizes_rejected(self):
        with pytest.raises(ValueError):
            knapsack_fixed(5, 0)
        with pytest.raises(ValueError):
            knapsack_fixed(4, 35)


class TestKnapsackRandom:
    def test_s_zero_costs_equal_weights(self):
        q = knapsack_random(10, 0.0, seed=3, b=0)
        np.testing.assert_array_equal(q.c, q.A[0].astype(float))

    def test_deterministic(self):
        a = knapsack_random(10, 10.0, seed=7, b=4)
        b = knapsack_random(10, 10.0, seed=7, b=4)
        assert np.array_equal(a.c, b.c)

    def test_seed_changes_costs(self):
        a = knapsack_random(10, 10.0, seed=7, b=4)
        b = knapsack_random(10, 10.0, seed=8, b=4)
        assert not np.array_equal(a.c, b.c)

    def test_costs_within_band(self):
        q = knapsack_random(10, 5.0, seed=1, b=0)
        a = q.A[0].astype(float)
        assert np.all(q.c >= a) and np.all(q.c <= a + 5.0)

    def test_other_sizes_use_odd_primes(self):
        q = knapsack_random(6, 0.0, seed=0, b=0)
        assert q.A[0].tolist() == [3, 5, 7, 11, 13, 17]

    def test_no_weights_beyond_the_odd_primes(self):
        assert knapsack_random(26, 0.0, seed=0, b=0).A[0, -1] == 103
        with pytest.raises(ValueError, match="^no weight vector defined for n=27$"):
            knapsack_random(27, 0.0, seed=0, b=0)

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("make", [
        lambda n: knapsack_random(n, 3.0, seed=1, b=0),
        lambda n: quadratic_knapsack_random(n, 3.0, seed=1, f_density=0.5, b=0),
    ], ids=["knapsack_random", "quadratic_knapsack_random"])
    def test_n_must_be_positive(self, make, n):
        with pytest.raises(ValueError, match="^n must be positive$"):
            make(n)


class TestQuadraticKnapsack:
    def test_f_symmetric_zero_diag(self):
        q = quadratic_knapsack_random(8, 10.0, seed=2, f_density=0.5, b=2)
        assert np.array_equal(q.F, q.F.T)
        assert not np.diag(q.F).any()

    def test_density_extremes(self):
        q0 = quadratic_knapsack_random(8, 10.0, seed=2, f_density=0.0, b=2)
        assert not q0.F.any()
        q1 = quadratic_knapsack_random(8, 10.0, seed=2, f_density=1.0, b=2)
        iu = np.triu_indices(8, k=1)
        assert np.all(q1.F[iu] != 0.0)

    def test_indefinite_at_default_density(self):
        q = quadratic_knapsack_random(10, 10.0, seed=5, f_density=0.5, b=0)
        assert np.linalg.eigvalsh(q.F)[0] < 0

    @pytest.mark.parametrize("f_density", [-0.1, 1.5, np.nan])
    def test_density_outside_unit_interval_rejected(self, f_density):
        with pytest.raises(ValueError, match=r"^f_density must lie in \[0, 1\]$"):
            quadratic_knapsack_random(8, 10.0, seed=2, f_density=f_density, b=2)

    def test_eta_stream_shared_with_linear_family(self):
        lin = knapsack_random(8, 10.0, seed=2, b=2)
        quad = quadratic_knapsack_random(8, 10.0, seed=2, f_density=0.5, b=2)
        np.testing.assert_array_equal(lin.c, quad.c)


class TestKCluster:
    def test_hand_correspondence_n2(self):
        # A = [[0,1],[1,0]], k=1: the 0/1 optimum is 0; the sign form value at
        # the corresponding points is -2 and maps back to 0 through scale/offset.
        p01, q = kcluster(2, 1, zero_prob=0.0, seed=0)
        A = p01.F
        q_manual = SignProgram(n=2, c=2 * A @ np.ones(2), F=A, A=[[1, 1]], b=[0],
                               offset=float(np.ones(2) @ A @ np.ones(2)) / 4.0, scale=0.25)
        for x in hypercube(2):
            assert q.raw_objective(x) == pytest.approx(q_manual.raw_objective(x))
        x01 = np.array([1, 0])
        xs = 2 * x01 - 1
        assert q.is_feasible(xs) == p01.is_feasible(x01) == True  # noqa: E712
        assert q.objective(xs) == pytest.approx(p01.objective(x01))

    def test_sign_and_zero_one_optima_agree(self):
        p01, q = kcluster(6, 3, zero_prob=0.3, seed=4)
        assert optimum(q)[0] == pytest.approx(optimum(p01)[0], rel=1e-12)

    def test_k_zero_feasible_at_zero(self):
        p01, q = kcluster(4, 0, zero_prob=0.5, seed=1)
        assert p01.is_feasible(np.zeros(4))
        assert p01.objective(np.zeros(4)) == 0.0
        assert optimum(q)[0] == pytest.approx(0.0)

    def test_k_above_n_infeasible(self):
        _, q = kcluster(4, 5, zero_prob=0.5, seed=1)
        assert optimum(q)[0] == np.inf

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_must_be_positive(self, n):
        with pytest.raises(ValueError, match="^n must be positive$"):
            kcluster(n, 0, zero_prob=0.5, seed=1)

    @pytest.mark.parametrize("zero_prob", [-0.1, 1.5, np.nan])
    def test_zero_prob_outside_unit_interval_rejected(self, zero_prob):
        with pytest.raises(ValueError, match=r"^zero_prob must lie in \[0, 1\]$"):
            kcluster(4, 2, zero_prob=zero_prob, seed=1)

    def test_matrix_properties(self):
        p01, _ = kcluster(30, 5, zero_prob=0.6, seed=9)
        A = p01.F
        assert np.array_equal(A, A.T)
        assert not np.diag(A).any()
        assert np.all(A >= 0.0)

    def test_zero_fraction_statistics(self):
        n, zp = 100, 0.7
        _, q = kcluster(n, 10, zero_prob=zp, seed=12)
        iu = np.triu_indices(n, k=1)
        m = len(iu[0])
        frac = np.count_nonzero(q.F[iu] == 0.0) / m
        sigma = np.sqrt(zp * (1 - zp) / m)
        assert abs(frac - zp) <= 5 * sigma


class TestGeneratorSpec:
    def test_round_trips_each_family(self):
        assert GeneratorSpec("knapsack_fixed", n=4, b=8).generate().n == 4
        assert GeneratorSpec("knapsack_random", n=6, seed=1, s=2.0, b=0).generate().n == 6
        q = GeneratorSpec("quadratic_knapsack", n=6, seed=1, s=2.0, f_density=0.4, b=0).generate()
        assert q.F.any()
        q = GeneratorSpec("kcluster", n=5, seed=1, k=2, zero_prob=0.5).generate()
        assert isinstance(q, SignProgram) and q.n == 5
        assert q.F.tolist() == kcluster(5, 2, zero_prob=0.5, seed=1)[1].F.tolist()

    def test_same_spec_identical_instance(self):
        s = GeneratorSpec("quadratic_knapsack", n=8, seed=3, s=5.0, f_density=0.5, b=2)
        a, b = s.generate(), s.generate()
        assert np.array_equal(a.c, b.c) and np.array_equal(a.F, b.F)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError) as exc:
            GeneratorSpec("kcluster", n=5, seed=1, k=2).generate()
        assert str(exc.value) == "family 'kcluster' requires parameter 'zero_prob'"
        with pytest.raises(ValueError) as exc:
            GeneratorSpec("mystery", n=5).generate()
        assert str(exc.value) == "unknown family 'mystery'"

    @pytest.mark.parametrize("family, given, message", [
        ("knapsack_fixed", {"b": 2, "k": 3, "zero_prob": 0.5},
         "family 'knapsack_fixed' takes b, not 'k'"),
        ("knapsack_random", {"s": 2.0, "b": 0, "f_density": 0.4},
         "family 'knapsack_random' takes s, seed, b, not 'f_density'"),
        ("kcluster", {"k": 3, "zero_prob": 0.5, "s": 2.0},
         "family 'kcluster' takes k, zero_prob, seed, not 's'"),
    ], ids=["knapsack_fixed", "knapsack_random", "kcluster"])
    def test_parameter_the_family_ignores_rejected(self, family, given, message):
        # the first such field in declaration order is named
        with pytest.raises(ValueError) as exc:
            GeneratorSpec(family, n=4, **given)
        assert str(exc.value) == message

    @pytest.mark.parametrize("given, missing", [
        ({}, "s"), ({"s": 2.0}, "f_density"), ({"s": 2.0, "f_density": 0.4}, "b"),
    ])
    def test_parameters_checked_in_call_order(self, given, missing):
        spec = GeneratorSpec("quadratic_knapsack", n=6, **given)
        with pytest.raises(ValueError) as exc:
            spec.generate()
        assert str(exc.value) == f"family 'quadratic_knapsack' requires parameter {missing!r}"


class TestBruteForce:
    def test_example1_b34(self):
        res = brute_force(knapsack_fixed(4, 34))
        assert res.value == 34.0
        assert res.x.tolist() == [1, 1, 1, 1]

    def test_unconstrained_linear(self):
        q = SignProgram(n=1, c=[1.0], F=None, A=np.zeros((0, 1)), b=[])
        res = brute_force(q)
        assert res.value == -1.0 and res.x.tolist() == [-1]

    def test_odd_b_infeasible(self):
        res = brute_force(knapsack_fixed(4, 1))
        assert res.value == np.inf and res.x is None

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_itertools_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        B = rng.normal(size=(n, n))
        q = SignProgram(
            n=n, c=rng.normal(size=n), F=B + B.T,
            A=rng.integers(-2, 3, size=(1, n)), b=rng.integers(-2, 3, size=1),
        )
        expected, _ = optimum(q)
        assert brute_force(q).value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_permutation_invariance(self):
        q = quadratic_knapsack_random(7, 3.0, seed=6, f_density=0.6, b=2)
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        qp = SignProgram(n=7, c=q.c[perm], F=q.F[np.ix_(perm, perm)],
                         A=q.A[:, perm], b=q.b)
        assert brute_force(qp).value == pytest.approx(brute_force(q).value, rel=1e-12)

    def test_offset_and_scale_units(self):
        _, q = kcluster(5, 2, zero_prob=0.4, seed=8)
        res = brute_force(q)
        assert res.value == pytest.approx(optimum(q)[0], rel=1e-12)

    def test_tie_break_lexicographic(self):
        # c = 0: every point ties at 0; the all-minus vector enumerates first.
        q = SignProgram(n=3, c=[0.0, 0.0, 0.0], F=None, A=np.zeros((0, 3)), b=[])
        assert brute_force(q).x.tolist() == [-1, -1, -1]

    def test_zero_one_program_rejected(self):
        p01, _ = kcluster(4, 2, zero_prob=0.5, seed=1)
        with pytest.raises(TypeError, match="to_sign_form"):
            brute_force(p01)

    def test_cap_rejected(self):
        q = SignProgram(n=27, c=np.zeros(27), F=None, A=np.zeros((0, 27)), b=[])
        with pytest.raises(ValueError, match="capped"):
            brute_force(q)

    def test_chunked_matches_small_chunks(self):
        # n above the chunk width exercises the multi-chunk path.
        q = knapsack_random(17, 3.0, seed=11, b=5)
        res = brute_force(q)
        assert res.value == pytest.approx(optimum(q)[0], rel=1e-12)


def test_import_loads_no_random_module():
    # the package draws nothing at import, so it leaves numpy.random
    # unloaded wherever numpy itself does (numpy 2 loads it lazily; numpy 1
    # loads it with numpy), and commands that draw nothing never pay for it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, numpy; bare = 'numpy.random' in sys.modules; import maxcut_bridge; "
            "print(bare, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bare, after = proc.stdout.split()
    assert after == bare
