"""The exact integer kernel against a Fraction reference."""

from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from maxcut_bridge.integer import echelon
from strategies import rref


def kernel(e):
    """D N, one list per column, for the null-space basis N with N[free] = I
    that ``e`` states: N[pivots[i]] = -rows[i][free] / D."""
    rows = dict(zip(e.pivots, e.rows))
    return [[-rows[c][f] for f in e.free] if c in rows
            else [e.denominator * (c == f) for f in e.free]
            for c in range(len(e.pivots) + len(e.free))]


@st.composite
def integer_matrices(draw):
    """Up to seven rows of one to eight integers up to ``top`` in size, top
    up to 2^52, each a fresh row (about half its entries zero), an earlier
    row repeated or negated, the sum of two earlier rows, or zero."""
    cols = draw(st.integers(1, 8))
    top = draw(st.sampled_from([1, 3, 10**9, 2**52]))
    entry = st.integers(-top, top) | st.just(0)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = "fresh"
        if rows:
            kind = draw(st.sampled_from(["fresh", "repeat", "negate", "sum", "zero"]))
        if kind == "fresh":
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
        else:
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            row = {"repeat": rows[i], "negate": [-x for x in rows[i]],
                   "sum": [x + y for x, y in zip(rows[i], rows[j])], "zero": [0] * cols}[kind]
        rows.append(row)
    return rows, cols


class TestEchelon:
    @settings(max_examples=400, deadline=None)
    @given(K=integer_matrices())
    def test_matches_the_fraction_reference(self, K):
        # the integer rows over D are the reduced row echelon form that
        # Fraction elimination gives, with the same pivots (so the same
        # rank), and the null-space basis they state, N with N[free] = I,
        # has K N = 0 exactly
        K, cols = K
        reference, pivots = rref(K)
        e = echelon(K, cols)
        event(f"rank {len(pivots)} of {len(K)} rows")
        assert e.denominator > 0
        assert list(e.pivots) == pivots
        assert e.free == tuple(c for c in range(cols) if c not in pivots)
        assert [[Fraction(x, e.denominator) for x in row] for row in e.rows] == reference
        N = kernel(e)
        assert [N[f] for f in e.free] == [
            [e.denominator * (f == g) for g in e.free] for f in e.free]
        for row in K:
            assert all(sum(x * n[j] for x, n in zip(row, N)) == 0 for j in range(len(e.free)))

    def test_rows_that_floats_cannot_tell_apart(self):
        # t and t + 1 with t = 10^9: a float SVD of [[t, t + 1, 0], [t + 1,
        # t + 2, 0]] reads rank 1, the determinant is -1, and the null space
        # is the third axis alone
        t = 10**9
        e = echelon([[t, t + 1, 0], [t + 1, t + 2, 0]], 3)
        assert (e.pivots, e.free) == ((0, 1), (2,))
        assert kernel(e) == [[0], [0], [e.denominator]]

    def test_no_rows(self):
        e = echelon([], 3)
        assert (e.rows, e.denominator, e.pivots, e.free) == ([], 1, (), (0, 1, 2))
        assert kernel(e) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
