"""Seeded workload builders.

A workload is the list of instances one benchmark pass runs, plus the
selectors and solver settings it runs them with.  Every builder takes the
workload seed and nothing else, so the same seed always gives the same
inputs.  Seed 0 of ``corpus`` reproduces the 50-instance acceptance corpus of
``tests/conftest.py`` instance for instance; its other seeds keep every
family's sizes and parameters and draw new generator seeds and right-hand
sides.  ``dnn`` and ``scaling`` keep their instances and relabel the
variables per seed.
"""

from dataclasses import dataclass, replace

import numpy as np

from maxcut_bridge.instances import (
    kcluster,
    knapsack_fixed,
    knapsack_random,
    quadratic_knapsack_random,
)
from maxcut_bridge.model import SignProgram
from maxcut_bridge.relaxations import SELECTORS
from maxcut_bridge.sdp import SolverConfig

# The acceptance-test solver settings (tests/test_acceptance.py).
FAST_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
DNN_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=2000, admm_rho=0.1)
BUDGET_ITER = 30
GW_TRIALS = 200

# Shape of the acceptance corpus (tests/conftest.py); seed 0 uses these
# generator seeds and right-hand sides verbatim.
_FIXED4_B = [34, 28, 20, 14, 8, 2, -6, -14, -28, -34]
_FIXED10_B = [0, 2, 10, -12, 20]
_RANDOM_KNAPSACK = [  # (n, s, seed)
    (4, 3, 11), (5, 3, 12), (6, 3, 13), (6, 5, 14), (7, 3, 15),
    (8, 5, 16), (9, 3, 17), (10, 5, 18), (11, 3, 19), (12, 3, 20),
]
_QUADRATIC_KNAPSACK = [  # (n, s, seed, f_density)
    (4, 3, 21, 0.5), (5, 3, 22, 0.3), (5, 5, 23, 0.7), (6, 3, 24, 0.5),
    (6, 5, 25, 0.3), (7, 3, 26, 0.5), (8, 3, 27, 0.3), (8, 5, 28, 0.7),
    (9, 3, 29, 0.5), (10, 3, 30, 0.3),
]
_KCLUSTER = [  # (n, k, zero_prob, seed)
    (4, 2, 0.4, 31), (5, 2, 0.8, 32), (6, 3, 0.4, 33), (6, 4, 0.8, 34),
    (7, 3, 0.4, 35), (8, 4, 0.8, 36), (8, 3, 0.4, 37), (9, 4, 0.8, 38),
    (10, 5, 0.4, 39), (10, 3, 0.8, 40), (11, 5, 0.4, 41), (12, 6, 0.8, 42),
    (12, 4, 0.4, 43), (7, 5, 0.8, 44), (9, 6, 0.4, 45),
]
# Infeasible share: parity (odd b against all-odd weights, even count),
# cardinality (k > n; the seeds of acceptance test C04) and a right-hand side
# outside the box, which makes the box LP infeasible too.
_PARITY_N = (4, 4, 4, 10, 10, 10)
_CARDINALITY = [(4, 104), (6, 106), (8, 108), (10, 110)]
_BOX = [(5, 3, 112), (8, 3, 115)]  # knapsack_random with b beyond sum(a)

_SEED_STRIDE = 1000   # generator-seed offset per workload seed
_STREAM_B = 7         # stream id for drawn right-hand sides
_STREAM_PERM = 8      # stream id for variable relabelling

SCALING_N = (20, 40, 60, 80)


@dataclass(frozen=True)
class Instance:
    label: str
    family: str
    sign: SignProgram
    feasible: bool
    witness: np.ndarray | None = None  # a known feasible sign point


@dataclass(frozen=True)
class Workload:
    instances: tuple
    selectors: tuple
    cfg: SolverConfig
    dnn_cfg: SolverConfig


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *key])))


def _reachable_b(weights: np.ndarray, seed: int) -> int:
    """A right-hand side a's that some seeded sign pattern attains."""
    rng = np.random.default_rng(seed + 1000)
    s = rng.choice([-1.0, 1.0], size=weights.size)
    return int(round(float(weights @ s)))


def _fixed_b(n: int, count: int, seed: int) -> list:
    """Reachable right-hand sides for the fixed knapsack of size n."""
    a = knapsack_fixed(n, 0).A[0]
    return [int(a @ _rng(seed, _STREAM_B, n, i).choice([-1, 1], size=n))
            for i in range(count)]


def _feasible(seed: int) -> list:
    off = _SEED_STRIDE * seed
    fixed4 = _FIXED4_B if seed == 0 else _fixed_b(4, len(_FIXED4_B), seed)
    fixed10 = _FIXED10_B if seed == 0 else _fixed_b(10, len(_FIXED10_B), seed)
    out = []
    for n, bs in ((4, fixed4), (10, fixed10)):
        out += [Instance(f"knapsack_fixed(n={n},b={b})", "knapsack_fixed",
                         knapsack_fixed(n, b), True) for b in bs]
    for n, s, g in _RANDOM_KNAPSACK:
        g += off
        b = _reachable_b(knapsack_random(n, s, g, 0).A[0], g)
        out.append(Instance(f"knapsack_random(n={n},s={s},seed={g},b={b})",
                            "knapsack_random", knapsack_random(n, s, g, b), True))
    for n, s, g, dens in _QUADRATIC_KNAPSACK:
        g += off
        b = _reachable_b(quadratic_knapsack_random(n, s, g, dens, 0).A[0], g)
        out.append(Instance(f"quadratic_knapsack(n={n},s={s},seed={g},b={b})",
                            "quadratic_knapsack",
                            quadratic_knapsack_random(n, s, g, dens, b), True))
    for n, k, zp, g in _KCLUSTER:
        g += off
        out.append(Instance(f"kcluster(n={n},k={k},zp={zp},seed={g})",
                            "kcluster", kcluster(n, k, zp, g)[1], True))
    return out


def _infeasible(seed: int) -> list:
    out = []
    for i, n in enumerate(_PARITY_N):
        limit = int(knapsack_fixed(n, 0).A.sum())
        b = 2 * int(_rng(seed, _STREAM_B, 100 + n, i).integers(-(limit // 2), limit // 2)) + 1
        out.append(Instance(f"knapsack_fixed(n={n},b={b})", "knapsack_fixed",
                            knapsack_fixed(n, b), False))
    for n, g in _CARDINALITY:
        g += _SEED_STRIDE * seed
        out.append(Instance(f"kcluster(n={n},k={n + 1},zp=0.5,seed={g})",
                            "kcluster", kcluster(n, n + 1, 0.5, g)[1], False))
    for n, s, g in _BOX:
        g += _SEED_STRIDE * seed
        b = int(knapsack_random(n, s, g, 0).A.sum()) + 2
        out.append(Instance(f"knapsack_random(n={n},s={s},seed={g},b={b})", "knapsack_random",
                            knapsack_random(n, s, g, b), False))
    return out


def corpus_instances(seed: int) -> list:
    """The 50 feasible corpus instances followed by the 12 infeasible ones."""
    return _feasible(seed) + _infeasible(seed)


def corpus(seed: int) -> Workload:
    sel = tuple(s for s in SELECTORS if s != "copositive_dnn")
    return Workload(tuple(corpus_instances(seed)), sel, FAST_CFG, DNN_CFG)


def budget(seed: int) -> Workload:
    return Workload(tuple(corpus_instances(seed)), SELECTORS,
                    replace(FAST_CFG, max_iter=BUDGET_ITER),
                    replace(DNN_CFG, max_iter=BUDGET_ITER))


def _relabel(inst: Instance, seed: int) -> Instance:
    """The same program with its variables put in a seeded order (seed 0: as is)."""
    if seed == 0:
        return inst
    q = inst.sign
    p = _rng(seed, _STREAM_PERM, q.n).permutation(q.n)
    sign = SignProgram(n=q.n, c=q.c[p], F=q.F[np.ix_(p, p)], A=q.A[:, p], b=q.b,
                       offset=q.offset, scale=q.scale)
    witness = None if inst.witness is None else inst.witness[p]
    return Instance(f"{inst.label}[perm={seed}]", inst.family, sign, inst.feasible, witness)


# (family, n, feasible): the first such seed-0 corpus instance is taken.
DNN_SAMPLE = (("knapsack_random", 5, True), ("quadratic_knapsack", 5, True),
              ("kcluster", 4, True), ("kcluster", 5, True), ("kcluster", 4, False))


def dnn(seed: int) -> Workload:
    """Five seed-0 corpus instances, chosen by how their DNN solve ends.

    Two run the 2000-iteration budget out, two converge within a few hundred
    iterations and one (k > n) ends at the budget as Infeasible.  How a DNN
    solve ends changes its cost tenfold and cannot be told from the data, so
    fresh instances per seed would make the pass length a lottery.  The seed
    relabels the variables instead: new input data, the same work.
    """
    pool = corpus_instances(0)
    picked = [next(i for i in pool if (i.family, i.sign.n, i.feasible) == key)
              for key in DNN_SAMPLE]
    return Workload(tuple(_relabel(i, seed) for i in picked),
                    ("maxcut_shor_min", "copositive_dnn"), FAST_CFG, DNN_CFG)


def scaling(seed: int) -> Workload:
    """kcluster(n, n/2, 0.5, 1) for each n, plus kcluster(20, 21, 0.5, 1).

    Seed 0 is the ROADMAP size curve.  Fresh kcluster seeds move the pass
    time too much for a steady benchmark (see bench/README.md), so other
    seeds relabel the variables of these instances instead.
    """
    out = []
    for n in SCALING_N:
        k = n // 2
        witness = np.r_[np.ones(k), -np.ones(n - k)]
        out.append(Instance(f"kcluster(n={n},k={k},zp=0.5,seed=1)", "kcluster",
                            kcluster(n, k, 0.5, 1)[1], True, witness))
    n = SCALING_N[0]
    out.append(Instance(f"kcluster(n={n},k={n + 1},zp=0.5,seed=1)", "kcluster",
                        kcluster(n, n + 1, 0.5, 1)[1], False))
    return Workload(tuple(_relabel(i, seed) for i in out),
                    ("maxcut_shor_min", "maxcut_shor_max"), FAST_CFG, DNN_CFG)


BUILDERS = {"corpus": corpus, "dnn": dnn, "scaling": scaling, "budget": budget}
