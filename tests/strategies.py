"""Random programs and exact answers, shared by the test modules.

The strategies draw integer arrays and programs; each knob is a class some
test draws.  The oracle enumerates {-1, 1}^n or {0, 1}^n exactly, in
``itertools.product`` order and in blocks of 2^16 points, so n = 20 runs
in bounded memory.  It reads only a program's arrays and tests feasibility on
integers, so the tests can check ``brute_force`` and the programs'
``objective`` and ``is_feasible`` against it.  ``rref`` row-reduces in
``fractions.Fraction``, the exact reference of the integer kernel.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from maxcut_bridge.model import EQ, LE, SignProgram, ZeroOneProgram

BLOCK = 1 << 16  # points per enumeration block


def int_arrays(lo: int, hi: int, shape) -> st.SearchStrategy:
    """Float arrays of ``shape`` whose entries are integers in [lo, hi]."""
    size = int(np.prod(shape))
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=float).reshape(shape))


@st.composite
def sign_programs(draw, n=(1, 8), rows=None, dependent=False, free_rhs=True,
                  quadratic=(1,), cost_scales=(1.0,), scaled=False,
                  near_singular=False) -> SignProgram:
    """Sign programs with n in the range ``n``, c in [-5, 5], F = (G + G')/2
    for G in [-4, 4], and rows with entries in [-3, 3].

    - ``rows``: the range of the row count, (0, n + 1) by default;
      ``dependent`` rows may repeat, negate or sum earlier rows, or be zero.
    - ``free_rhs``: half of the b are drawn from [-6, 6], the rest are A s
      for a drawn sign point s.
    - ``quadratic``: the choices of drawing F, (0,) for a linear objective.
    - ``cost_scales``: the factors c is drawn times, such as 1e3.
    - ``scaled``: a scale 2^k, k in [-3, 3], and an offset in [-100, 100].
    - ``near_singular``: two more rows, r and r + e, with r in [-10^k, 10^k]
      for k in [3, 9] and e in [-1, 1], and b met by a sign point, so that
      [A, -b] can have full row rank and a condition number of 1e8 or more.
    """
    n = draw(st.integers(*n))
    A = np.zeros((0, n))
    for _ in range(draw(st.integers(*(rows or (0, n + 1))))):
        kind = "fresh"
        if dependent and len(A):
            kind = draw(st.sampled_from(["fresh", "repeat", "negate", "sum", "zero"]))
        if kind == "fresh":
            row = draw(int_arrays(-3, 3, n))
        else:
            i, j = (draw(st.integers(0, len(A) - 1)) for _ in range(2))
            row = {"repeat": A[i], "negate": -A[i], "sum": A[i] + A[j], "zero": np.zeros(n)}[kind]
        A = np.vstack([A, row])
    if near_singular:
        top = 10 ** draw(st.integers(3, 9))
        r = draw(int_arrays(-top, top, n))
        A = np.vstack([A, r, r + draw(int_arrays(-1, 1, n))])
    if free_rhs and not near_singular and draw(st.booleans()):
        b = draw(int_arrays(-6, 6, len(A)))
    else:
        b = A @ (2 * draw(int_arrays(0, 1, n)) - 1)
    G = draw(int_arrays(-4, 4, (n, n))) if draw(st.sampled_from(quadratic)) else np.zeros((n, n))
    c = draw(int_arrays(-5, 5, n)) * draw(st.sampled_from(cost_scales))
    units = dict(scale=2.0 ** draw(st.integers(-3, 3)),
                 offset=draw(st.floats(-100.0, 100.0))) if scaled else {}
    return SignProgram(n=n, c=c, F=(G + G.T) / 2.0, A=A, b=b, **units)


@st.composite
def zero_one_programs(draw, max_rows=2, pin=True) -> ZeroOneProgram:
    """All-EQ 0/1 programs with n <= 6, c in [-10, 10], F = G + G' for G in
    [-3, 3] in half of them, and one to ``max_rows`` rows in [-3, 3].  With
    ``pin``, half of them get a first row that pins one variable, such as
    3 x_1 = 0.  Two b in three are met by a drawn 0/1 point; the rest are
    moved from one by up to 1 per row."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, max_rows))
    A = draw(int_arrays(-3, 3, (m, n)))
    if pin and draw(st.booleans()):
        A[0] = 0
        A[0, draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
    shift = draw(int_arrays(-1, 1, m)) * draw(st.sampled_from([0, 0, 1]))
    b = A @ draw(int_arrays(0, 1, n)) + shift
    G = draw(int_arrays(-3, 3, (n, n))) if draw(st.booleans()) else np.zeros((n, n))
    return ZeroOneProgram(n=n, c=draw(int_arrays(-10, 10, n)), F=G + G.T, A=A, b=b,
                          row_sense=[EQ] * m)


def _blocks(n: int, binary: bool):
    shifts = np.arange(n - 1, -1, -1)
    for start in range(0, 1 << n, BLOCK):
        bits = (np.arange(start, min(start + BLOCK, 1 << n))[:, None] >> shifts) & 1
        yield bits if binary else 2 * bits - 1


def hypercube(n: int, binary: bool = False) -> np.ndarray:
    """The 2^n points of {-1, 1}^n, or of {0, 1}^n with ``binary``, as the
    int64 rows of one array in ``itertools.product`` order."""
    return np.concatenate(list(_blocks(n, binary)))


class Extrema(NamedTuple):
    min: float  # inf where no point is feasible
    max: float  # -inf likewise
    argmin: np.ndarray | None  # the first minimizer in hypercube order


def extrema(c=None, F=None, A=(), b=(), *, sense=None, binary=False) -> Extrema:
    """The least and greatest c'x + x'Fx over the points x of {-1, 1}^n, or of
    {0, 1}^n with ``binary``, that meet the integer rows: A x = b, or A x <= b
    where ``sense`` says LE.  c and F default to zero.  A tie in the argmin
    goes to the first point, as ``brute_force`` documents."""
    n = len(c) if c is not None else len(F)
    c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
    F = np.zeros((n, n)) if F is None else np.asarray(F, dtype=float)
    A, b = np.asarray(A, dtype=float).reshape(-1, n), np.asarray(b, dtype=float).reshape(-1)
    assert np.array_equal(A, np.round(A)) and np.array_equal(b, np.round(b))
    A, b = A.astype(np.int64), b.astype(np.int64)
    le = np.array([s == LE for s in sense or [EQ] * len(A)], dtype=bool)
    best = Extrema(np.inf, -np.inf, None)
    for X in _blocks(n, binary):
        r = X @ A.T - b
        X = X[np.all(np.where(le, r <= 0, r == 0), axis=1)]
        if len(X):
            Xf = X.astype(float)
            values = Xf @ c + ((Xf @ F) * Xf).sum(axis=1)
            i = int(np.argmin(values))
            best = Extrema(min(best.min, float(values[i])), max(best.max, float(values.max())),
                           X[i] if values[i] < best.min else best.argmin)
    return best


def optimum(p: SignProgram | ZeroOneProgram) -> tuple[float, np.ndarray | None]:
    """The optimum of a program in its own units (inf when no point is
    feasible) and its first minimizer."""
    if isinstance(p, ZeroOneProgram):
        e = extrema(p.c, p.F, p.A, p.b, sense=p.row_sense, binary=True)
        return e.min + p.constant, e.argmin
    e = extrema(p.c, p.F, p.A, p.b)
    return p.scale * e.min + p.offset, e.argmin


def rref(rows) -> tuple[list, list]:
    """The nonzero rows of the reduced row echelon form of ``rows`` (lists
    of ints or Fractions), in Fractions, and their pivot columns."""
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(M[0]) if M else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for j, row in enumerate(M):
            if j != r and row[c]:
                M[j] = [x - row[c] * t for x, t in zip(row, M[r])]
        pivots.append(c)
    return M[:len(pivots)], pivots
