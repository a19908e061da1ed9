"""Exact linear algebra on integer matrices, in Python ints: ``echelon``
takes K, such as that of the face X K' = 0 in ``sdp.SdpProblem``, to its
reduced row echelon form by fraction-free Gauss-Jordan elimination (Bareiss,
Math. Comp. 22, 1968).  Each step multiplies by the new pivot and divides
exactly by the previous one, so every entry stays an integer, a minor of K.
"""

from typing import NamedTuple


class Echelon(NamedTuple):
    """The reduced row echelon form of K times its denominator D > 0: row i
    of ``rows`` has D at column ``pivots[i]`` and 0 at the other pivots.
    The rank of K is len(pivots), and ``free`` holds the other columns.
    The basis N of K's null space with N[free] = I has the pivot rows
    N[pivots[i]] = -rows[i][free] / D."""

    rows: list
    denominator: int
    pivots: tuple
    free: tuple


def echelon(K, cols: int) -> Echelon:
    """The ``Echelon`` of K, a sequence of rows of ``cols`` integers."""
    M = [[int(x) for x in row] for row in K]
    pivots, prev = [], 1
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is not None:
            M[r], M[i] = M[i], M[r]
            top, p = M[r], M[r][c]
            for i, row in enumerate(M):  # with row[c] = 0 and p = prev a row stays
                if i != r and (row[c] or p != prev):
                    M[i] = [(p * x - row[c] * t) // prev for x, t in zip(row, top)]
            pivots.append(c)
            prev = p
    sign = -1 if prev < 0 else 1
    return Echelon([[sign * x for x in row] for row in M[:len(pivots)]], sign * prev,
                   tuple(pivots), tuple(c for c in range(cols) if c not in pivots))
