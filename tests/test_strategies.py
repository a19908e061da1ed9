"""The shared strategies reach the classes their knobs name, and the hypercube
oracle gives the answers the tests already pin."""

import itertools

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings

import strategies
from maxcut_bridge.model import SignProgram
from strategies import extrema, hypercube, optimum, rref, sign_programs, zero_one_programs


rank = np.linalg.matrix_rank


@pytest.mark.parametrize("strategy, condition", [
    (sign_programs(n=(2, 8), rows=(0, 5), dependent=True, free_rhs=False),
     lambda q: 0 < rank(q.A) < q.m <= q.n),
    (zero_one_programs(), lambda p: any(np.count_nonzero(row) == 1 for row in p.A)),
    (sign_programs(), lambda q: optimum(q)[0] == np.inf),
    (zero_one_programs(), lambda p: optimum(p)[0] == np.inf),
    (sign_programs(), lambda q: rank(np.column_stack([q.A, q.b])) > rank(q.A)),
    (sign_programs(quadratic=(0, 1, 1)), lambda q: not q.F.any()),
    (sign_programs(cost_scales=(1.0, 1.0, 1e3)), lambda q: np.abs(q.c).max() > 5),
    (sign_programs(scaled=True), lambda q: q.scale != 1.0 and q.offset != 0.0),
    (sign_programs(near_singular=True),
     lambda q: len(rref(np.column_stack([q.A, -q.b]))[1]) == q.m
     and np.linalg.cond(np.column_stack([q.A, -q.b])) >= 1e8),
], ids=["dependent_rows", "pinned_variable", "no_feasible_sign_point",
        "no_feasible_zero_one_point", "no_real_solution", "linear_objective", "costs_x1e3",
        "scaled", "near_singular"])
def test_each_knob_reaches_its_class(strategy, condition):
    # the first draw found is enough: no shrinking
    find(strategy, condition, settings=settings(database=None, derandomize=True,
                                                max_examples=2000, phases=[Phase.generate]))


@settings(max_examples=50, deadline=None)
@given(q=sign_programs(free_rhs=False))
def test_attained_right_hand_sides_are_attained(q):
    assert np.isfinite(optimum(q)[0])


@pytest.mark.parametrize("binary", [False, True])
def test_hypercube_is_in_product_order(binary):
    for n in range(5):
        expected = list(itertools.product((0, 1) if binary else (-1, 1), repeat=n))
        assert [tuple(x) for x in hypercube(n, binary)] == expected


def test_pinned_answers():
    # f(x) = 3 x^2 - 5 x on one sign variable: f(1) = -2, f(-1) = 8
    e = extrema([-5.0], [[3.0]])
    assert (e.min, e.max, e.argmin.tolist()) == (-2.0, 8.0, [1])
    # as brute_force returns: c = 0, F = 0 and no rows tie everywhere
    q = SignProgram(n=3, c=np.zeros(3), F=None, A=np.zeros((0, 3)), b=[])
    assert optimum(q)[1].tolist() == [-1, -1, -1]


def test_rows_and_units():
    # the n = 4 knapsack with b = 34 has the one point e, and an odd b none
    q = SignProgram(n=4, c=[13.0, 11.0, 7.0, 3.0], F=None, A=[[3, 7, 11, 13]], b=[34],
                    scale=0.5, offset=1.0)
    assert optimum(q)[0] == 0.5 * 34.0 + 1.0
    assert extrema(q.c, A=q.A, b=[33]) == (np.inf, -np.inf, None)
    # x_1 + x_2 <= 1 over {0, 1}^2 leaves out (1, 1) alone
    e = extrema([-1.0, -1.0], A=[[1, 1]], b=[1], sense=["LE"], binary=True)
    assert (e.min, e.max, e.argmin.tolist()) == (-1.0, 0.0, [0, 1])


def test_blocks_agree_with_one_block(monkeypatch):
    # three points in three blocks of 4 tie at the minimum; the first is taken
    rng = np.random.default_rng(11)
    B = rng.integers(-1, 2, (7, 7))
    args = (rng.integers(-1, 2, 7), B + B.T, [[1, -1, 1, -1, 1, -1, 1]], [1])
    whole = extrema(*args)
    assert (whole.min, whole.argmin.tolist()) == (-22.0, [-1, -1, 1, -1, 1, 1, -1])
    monkeypatch.setattr(strategies, "BLOCK", 4)
    split = extrema(*args)
    assert (split.min, split.max, split.argmin.tolist()) == (
        whole.min, whole.max, whole.argmin.tolist())
