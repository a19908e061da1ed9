"""Deterministic instance generators and the exact enumeration oracle.

Random draws use numpy's PCG64 with an explicit stream-splitting rule: each
random field of a generator consumes its own generator seeded with
SeedSequence([seed, FIELD_ID]).  The field ids are fixed constants (below), so
adding or reordering draws in one field can never shift the values of
another, and identical seeds reproduce identical instances on any platform.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .model import EQ, SignProgram, ZeroOneProgram

# Stream-splitting field ids (never renumber; see module docstring).
STREAM_MATRIX = 1      # k-cluster coupling matrix entries
STREAM_ETA = 2         # knapsack cost noise eta
STREAM_MASK = 3        # sparsification keep/drop masks
STREAM_F_VALUES = 4    # quadratic knapsack F entries
STREAM_GW = 5          # hyperplane draws in rounding (bounds module)

_BRUTE_FORCE_CAP = 26
_CHUNK_BITS = 16

# Fixed knapsack weights a; the costs are a reversed, c = a[::-1]: minimize
# c'x subject to a'x = b over {-1,1}^n.
_FIXED_A = {
    4: (3, 7, 11, 13),
    10: (3, 7, 11, 13, 17, 19, 23, 29, 31, 37),
    15: (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 51, 53),
}

# First odd primes, used as weights for sizes without fixed data.
_ODD_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103,
)


def _stream(seed: int, field_id: int) -> "np.random.Generator":
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), field_id])))


def _weights(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be positive")
    if n in _FIXED_A:
        return np.array(_FIXED_A[n], dtype=np.int64)
    if n > len(_ODD_PRIMES):
        raise ValueError(f"no weight vector defined for n={n}")
    return np.array(_ODD_PRIMES[:n], dtype=np.int64)


def knapsack_fixed(n: int, b: int) -> SignProgram:
    """The fixed equality-knapsack data for n in {4, 10, 15}."""
    if n not in _FIXED_A:
        raise ValueError(f"fixed knapsack data exists only for n in {sorted(_FIXED_A)}")
    a = np.array(_FIXED_A[n], dtype=np.int64)
    limit = int(np.abs(a).sum())
    b = int(b)
    if not -limit <= b <= limit:
        raise ValueError(f"b must lie in [{-limit}, {limit}]")
    return SignProgram(n=n, c=a[::-1].astype(float), F=None, A=a.reshape(1, n), b=[b])


def knapsack_random(n: int, s: float, seed: int, b: int) -> SignProgram:
    """Knapsack with costs c_i = a_i + s*eta_i, eta i.i.d. uniform on [0, 1].

    Weights are the fixed vectors for n in {4, 10, 15} and the first n odd
    primes otherwise.  Small s makes every cost/weight ratio close to 1.
    """
    a = _weights(n)
    eta = _stream(seed, STREAM_ETA).uniform(0.0, 1.0, size=n)
    c = a.astype(float) + float(s) * eta
    return SignProgram(n=n, c=c, F=None, A=a.reshape(1, n), b=[int(b)])


def quadratic_knapsack_random(
    n: int, s: float, seed: int, f_density: float, b: int
) -> SignProgram:
    """Knapsack with an indefinite random quadratic term added.

    F is exactly symmetric with zero diagonal; each off-diagonal pair is
    uniform on [-1, 1] and kept with probability f_density.
    """
    if not 0.0 <= f_density <= 1.0:
        raise ValueError("f_density must lie in [0, 1]")
    base = knapsack_random(n, s, seed, b)
    vals = _stream(seed, STREAM_F_VALUES).uniform(-1.0, 1.0, size=(n, n))
    keep = _stream(seed, STREAM_MASK).uniform(0.0, 1.0, size=(n, n)) < f_density
    F = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    F[iu] = vals[iu] * keep[iu]
    F = F + F.T
    return SignProgram(n=n, c=base.c, F=F, A=base.A, b=base.b)


def kcluster(n: int, k: int, zero_prob: float, seed: int) -> tuple[ZeroOneProgram, SignProgram]:
    """Minimum-weight k-subset problem: min x'Ax s.t. e'x = k, x in {0,1}^n.

    A is symmetric with zero diagonal; off-diagonal pairs are uniform on
    [0, 1], zeroed with probability zero_prob.  Returns the 0/1 program and
    its sign-domain form  min 2(Ae)'x + x'Ax  s.t.  e'x = 2k - n, whose raw
    values relate to 0/1 values by  f01 = raw/4 + e'Ae/4  (stored as scale
    and offset so both unit systems are always available).  k > n is allowed:
    the instance is then infeasible by construction.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= zero_prob <= 1.0:
        raise ValueError("zero_prob must lie in [0, 1]")
    vals = _stream(seed, STREAM_MATRIX).uniform(0.0, 1.0, size=(n, n))
    keep = _stream(seed, STREAM_MASK).uniform(0.0, 1.0, size=(n, n)) >= zero_prob
    A = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    A[iu] = vals[iu] * keep[iu]
    A = A + A.T

    e_row = np.ones((1, n), dtype=np.int64)
    p01 = ZeroOneProgram(n=n, c=np.zeros(n), F=A, A=e_row, b=[int(k)], row_sense=(EQ,))
    e = np.ones(n)
    q = SignProgram(
        n=n,
        c=2.0 * (A @ e),
        F=A,
        A=e_row,
        b=[2 * int(k) - n],
        offset=float(e @ A @ e) / 4.0,
        scale=0.25,
    )
    return p01, q


# family -> (sign-program generator, the GeneratorSpec fields it takes after n, in call order)
FAMILIES = {
    "knapsack_fixed": (knapsack_fixed, ("b",)),
    "knapsack_random": (knapsack_random, ("s", "seed", "b")),
    "quadratic_knapsack": (quadratic_knapsack_random, ("s", "seed", "f_density", "b")),
    "kcluster": (lambda n, k, zero_prob, seed: kcluster(n, k, zero_prob, seed)[1],
                 ("k", "zero_prob", "seed")),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """A fully seeded description of one generated instance.

    family: a key of FAMILIES.  A parameter the family does not take must be
    left at None; construction raises a ValueError otherwise.  Every family
    accepts seed, which also seeds rounding where the instance is solved.
    Equal field values always regenerate a bitwise-identical instance.
    """

    family: str
    n: int
    seed: int = 0
    b: int | None = None
    k: int | None = None
    s: float | None = None
    f_density: float | None = None
    zero_prob: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        takes = FAMILIES[self.family][1]
        for f in fields(self):
            if (f.name not in ("family", "n", "seed", *takes)
                    and getattr(self, f.name) is not None):
                raise ValueError(f"family {self.family!r} takes {', '.join(takes)}, "
                                 f"not {f.name!r}")

    def generate(self) -> SignProgram:
        """The family's sign program on these fields; a missing parameter
        raises a ValueError, checked in call order."""
        make, params = FAMILIES[self.family]
        return make(self.n, *(self._req(name) for name in params))

    def _req(self, name):
        v = getattr(self, name)
        if v is None:
            raise ValueError(f"family {self.family!r} requires parameter {name!r}")
        return v


class BruteForceResult(NamedTuple):
    """Value in original units; x is None when no feasible point exists."""

    value: float
    x: np.ndarray | None


def brute_force(q: SignProgram) -> BruteForceResult:
    """Exact minimum of a sign program by chunked enumeration of all 2^n points.

    Enumeration is lexicographic with -1 before +1; ties keep the first
    (lexicographically smallest) argmin.  Returns +inf and no point when no
    sign vector satisfies the constraints.
    """
    if not isinstance(q, SignProgram):
        raise TypeError("brute_force enumerates sign vectors; convert with to_sign_form first")
    n = q.n
    if n > _BRUTE_FORCE_CAP:
        raise ValueError(f"enumeration capped at n={_BRUTE_FORCE_CAP}, got n={n}")
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    best_val = np.inf
    best_x = None
    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        S = (((ks[:, None] >> shifts) & 1).astype(np.int64)) * 2 - 1
        if q.m:
            feas = np.all(q.A @ S.T == q.b[:, None], axis=0)
            if not feas.any():
                continue
            S = S[feas]
        Sf = S.astype(float)
        vals = Sf @ q.c
        if np.count_nonzero(q.F):
            vals = vals + np.einsum("ij,jk,ik->i", Sf, q.F, Sf)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = S[i].copy()
    if best_x is None:
        return BruteForceResult(np.inf, None)
    return BruteForceResult(q.to_original(best_val), best_x)
