"""Session-scoped instance corpus shared by the heavier test modules.

The corpus holds fifty seeded instances, n <= 12, spanning all four generator
families.  The random knapsack families get a right-hand side forced to a
reachable subset value (b = a's, s a seeded sign pattern), so almost the whole
corpus is feasible; the fixed-knapsack b values are hand-picked reachable
sums.  Everything is deterministic: same seeds, same instances, every run.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from maxcut_bridge.instances import (
    kcluster,
    knapsack_fixed,
    knapsack_random,
    quadratic_knapsack_random,
)
from maxcut_bridge.model import SignProgram
from maxcut_bridge.penalty import PenaltyBound, rho as penalty_rho
from maxcut_bridge.sdp import SolverConfig

# ``--hypothesis-profile=nodb`` keeps no example database: each run of a seed
# sweep starts afresh, replaying no failure that an earlier run saved
settings.register_profile("nodb", database=None)

FAST_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
DNN_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=2000)


@dataclass(frozen=True)
class SuiteInstance:
    label: str
    family: str
    sign: SignProgram


# reachable right-hand sides (2*S - sum(a) for subset sums S of the weights)
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


def _reachable_b(weights: np.ndarray, seed: int) -> int:
    """A right-hand side a's that some seeded sign pattern attains."""
    rng = np.random.default_rng(seed + 1000)
    s = rng.choice([-1.0, 1.0], size=weights.size)
    return int(round(float(weights @ s)))


def build_suite() -> list:
    suite = []
    for b in _FIXED4_B:
        suite.append(SuiteInstance(
            label=f"knapsack_fixed(n=4,b={b})", family="knapsack_fixed",
            sign=knapsack_fixed(4, b)))
    for b in _FIXED10_B:
        suite.append(SuiteInstance(
            label=f"knapsack_fixed(n=10,b={b})", family="knapsack_fixed",
            sign=knapsack_fixed(10, b)))
    for n, s, seed in _RANDOM_KNAPSACK:
        probe = knapsack_random(n, s, seed, 0)
        b = _reachable_b(probe.A[0], seed)
        suite.append(SuiteInstance(
            label=f"knapsack_random(n={n},s={s},seed={seed},b={b})",
            family="knapsack_random", sign=knapsack_random(n, s, seed, b)))
    for n, s, seed, dens in _QUADRATIC_KNAPSACK:
        probe = quadratic_knapsack_random(n, s, seed, dens, 0)
        b = _reachable_b(probe.A[0], seed)
        suite.append(SuiteInstance(
            label=f"quadratic_knapsack(n={n},s={s},seed={seed},b={b})",
            family="quadratic_knapsack",
            sign=quadratic_knapsack_random(n, s, seed, dens, b)))
    for n, k, zp, seed in _KCLUSTER:
        suite.append(SuiteInstance(
            label=f"kcluster(n={n},k={k},zp={zp},seed={seed})",
            family="kcluster", sign=kcluster(n, k, zp, seed)[1]))
    assert len(suite) == 50
    return suite


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, names)`` patches each named function of
    ``module`` to count its calls from then on, in the dict it returns."""
    def install(module, names) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _f=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls
    return install


@pytest.fixture(scope="session")
def suite50() -> list:
    return build_suite()


@pytest.fixture(scope="session")
def suite50_penalties(suite50) -> list:
    """One penalty bound per suite instance (closed form where F = 0)."""
    return [penalty_rho(inst.sign.c, inst.sign.F, FAST_CFG) for inst in suite50]


@pytest.fixture(scope="session")
def fixed4_b_sweep() -> dict:
    """The n=4 fixed knapsack for every integer right-hand side in range."""
    return {b: knapsack_fixed(4, b) for b in range(-34, 35)}


@pytest.fixture(scope="session")
def fixed4_penalty() -> PenaltyBound:
    """Penalty bound for the n=4 fixed knapsack; rho depends only on (c, F)."""
    q = knapsack_fixed(4, 34)
    return penalty_rho(q.c, q.F, FAST_CFG)


# --- acceptance reporting -------------------------------------------------------

ACCEPTANCE_LINES: list = []


@pytest.fixture(scope="session")
def acceptance_log() -> list:
    """Collector for one PASS/FAIL line per acceptance criterion."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
