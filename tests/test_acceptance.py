"""Acceptance gate: eleven end-to-end behavior criteria.

Each test exercises one guarantee of the pipeline at its stated tolerance and
appends a single PASS/FAIL line to the run summary (printed after the test
session).  Exact reference values come from the hypercube oracle of
``strategies.py``, which shares no code with the code under test.
"""

import math
import time

import numpy as np
import pytest

from maxcut_bridge.bounds import (
    FEASIBLE,
    INFEASIBLE_BY_GAP,
    certify,
    gw_round,
    nesterov_sandwich,
)
from maxcut_bridge.cli import EXIT_OK, main
from maxcut_bridge.instances import brute_force, kcluster, knapsack_fixed
from maxcut_bridge.model import LE, ZeroOneProgram, slack_expand
from maxcut_bridge.penalty import rho as penalty_rho, shor_box_extrema
from maxcut_bridge.reduction import homogenize
from maxcut_bridge.relaxations import (
    EXACT,
    compute_bounds,
    shor_maxcut,
)
from maxcut_bridge.sdp import (
    Cone,
    SdpProblem,
    Sense,
    SolverConfig,
    solve_sdp,
)
from strategies import extrema, optimum

FAST_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=30000)
DNN_CFG = SolverConfig(eps_abs=1e-6, eps_rel=1e-5, max_iter=2000)
TIGHT_CFG = SolverConfig(eps_abs=1e-9, eps_rel=1e-9, max_iter=200000)

CHAIN = ("maxcut_shor_min", "lasserre1", "lp_box", "convex_quadratic",
         "copositive_dnn")


def _record(log, num, desc, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    log.append(f"CRITERION {num:02d} {status} - {desc}{suffix}")
    assert not failures, f"criterion {num}: {failures[:5]}"


# --- shared heavy fixture -------------------------------------------------------


@pytest.fixture(scope="session")
def suite_reports(suite50, suite50_penalties):
    """Full bound reports (all selectors, rounding attached) for the corpus."""
    t0 = time.perf_counter()
    reports = [
        compute_bounds(inst.sign, cfg=FAST_CFG, pb=pb, gw_trials=200,
                       gw_seed=0, dnn_cfg=DNN_CFG)
        for inst, pb in zip(suite50, suite50_penalties)
    ]
    return reports, time.perf_counter() - t0


# --- criteria -------------------------------------------------------------------


def test_c01_penalized_form_preserves_optima(
        acceptance_log, suite50, suite50_penalties, fixed4_b_sweep,
        fixed4_penalty):
    desc = ("penalized MAX-CUT form matches the constrained optimum when "
            "feasible and exceeds rho when infeasible")
    t0 = time.perf_counter()
    failures = []

    def check(label, sign, pb):
        mc = homogenize(sign, pb)
        theta = extrema(F=mc.Q).min
        f_raw = extrema(sign.c, sign.F, sign.A, sign.b).min
        if np.isfinite(f_raw):
            if abs(theta - f_raw) > 1e-9 * (1 + abs(f_raw)):
                failures.append((label, "mismatch", theta, f_raw))
        elif theta <= pb.rho:
            failures.append((label, "no gap", theta, pb.rho))

    for b, sign in fixed4_b_sweep.items():
        check(f"fixed4 b={b}", sign, fixed4_penalty)
    for inst, pb in zip(suite50, suite50_penalties):
        check(inst.label, inst.sign, pb)

    seconds = time.perf_counter() - t0
    if seconds >= 60:
        failures.append(("runtime", seconds))
    _record(acceptance_log, 1, desc, failures,
            f"119 instances, {seconds:.1f}s")


def test_c02_lower_bound_chain(acceptance_log, suite50, suite_reports):
    desc = ("every usable lower bound, converged or stopped at its iteration "
            "limit, sits below the exact optimum within 1e-4 relative after "
            "its inflation")
    reports, seconds = suite_reports
    failures = []
    checked = 0
    for inst, report in zip(suite50, reports):
        exact = report.entries["brute_force"]
        assert exact.status == EXACT
        f_star = exact.value
        allow = f_star + 1e-4 * (1 + abs(f_star))
        for name in CHAIN:
            e = report.entries.get(name)
            if e is None or not e.usable:
                continue
            checked += 1
            if e.value - e.inflation > allow:
                failures.append((inst.label, name, e.value - e.inflation,
                                 f_star))
    if seconds >= 120:
        failures.append(("runtime", seconds))
    _record(acceptance_log, 2, desc, failures,
            f"{checked} usable bounds over 50 instances, {seconds:.0f}s")


def test_c03_sandwich_upper_bound(acceptance_log, suite50, suite_reports):
    desc = ("trigonometric sandwich upper bound dominates the optimum on "
            "every feasible suite instance; arithmetic identity to 1e-12")
    reports, _ = suite_reports
    failures = []
    expected = 10 - 40 / math.pi
    if abs(nesterov_sandwich(-10.0, 10.0) - expected) > 1e-12:
        failures.append(("arithmetic", nesterov_sandwich(-10.0, 10.0)))
    for inst, report in zip(suite50, reports):
        lo = report.entries["maxcut_shor_min"]
        hi = report.entries["maxcut_shor_max"]
        exact = report.entries["brute_force"]
        if not (lo.usable and hi.usable and np.isfinite(exact.value)):
            continue
        scale = report.scale
        f_raw = (exact.value - report.offset) / scale
        upper = nesterov_sandwich(lo.raw + lo.inflation / scale,
                                  hi.raw + hi.inflation / scale)
        if f_raw > upper + 1e-4 * (1 + abs(f_raw)):
            failures.append((inst.label, f_raw, upper))
    _record(acceptance_log, 3, desc, failures, "50 instances + identity")


def test_c04_infeasibility_certification(
        acceptance_log, suite50, suite_reports, suite50_penalties,
        fixed4_penalty):
    desc = ("parity- and cardinality-infeasible instances keep a brute-force "
            "gap above rho; gap certificates fire exactly when cleared and "
            "never on feasible instances")
    failures = []

    infeasible_cases = []
    for b in range(-33, 34, 2):  # odd b: unreachable parity
        infeasible_cases.append((f"fixed4 b={b}", knapsack_fixed(4, b),
                                 fixed4_penalty))
    for n, seed in [(4, 104), (6, 106), (8, 108), (10, 110)]:
        sign = kcluster(n, n + 1, 0.5, seed)[1]  # k exceeds n: no solution
        pb = penalty_rho(sign.c, sign.F, FAST_CFG)
        infeasible_cases.append((f"kcluster n={n} k={n + 1}", sign, pb))

    for label, sign, pb in infeasible_cases:
        mc = homogenize(sign, pb)
        theta = extrema(F=mc.Q).min
        if theta <= pb.rho:
            failures.append((label, "theta below rho", theta, pb.rho))
        report = compute_bounds(sign, selectors=["maxcut_shor_min"],
                                cfg=FAST_CFG, pb=pb, gw_trials=200, gw_seed=0)
        cert = certify(report, pb)
        e = report.entries["maxcut_shor_min"]
        cleared = e.usable and e.value - e.inflation > report.rho_original
        if cleared != (cert.kind == INFEASIBLE_BY_GAP):
            failures.append((label, "gap verdict mismatch", cleared, cert.kind))
        if cert.kind == FEASIBLE:
            failures.append((label, "feasible verdict on infeasible instance"))

    reports, _ = suite_reports
    for inst, report, pb in zip(suite50, reports, suite50_penalties):
        cert = certify(report, pb)
        if cert.kind == INFEASIBLE_BY_GAP:
            failures.append((inst.label, "false infeasibility certificate"))

    _record(acceptance_log, 4, desc, failures,
            f"{len(infeasible_cases)} infeasible + 50 feasible instances")


def test_c05_penalty_dominates_objective(
        acceptance_log, suite50, suite50_penalties):
    desc = ("penalty constant dominates the hypercube objective range; "
            "linear closed form matches the SDP estimate to 1e-5 relative")
    failures = []
    for inst, pb in zip(suite50, suite50_penalties):
        lo, hi, _ = extrema(inst.sign.c, inst.sign.F)
        peak = max(abs(lo), abs(hi))
        if pb.rho < peak - 1e-9 * (1 + peak):
            failures.append((inst.label, pb.rho, peak))

    rng = np.random.default_rng(505)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        c = rng.normal(0.0, 5.0, size=n)
        closed = float(np.abs(c).sum())
        r1, r2 = shor_box_extrema(c, None, FAST_CFG)
        sdp_rho = max(abs(r1), abs(r2))
        if abs(sdp_rho - closed) > 1e-5 * (1 + closed):
            failures.append((f"random c #{trial}", sdp_rho, closed))
    _record(acceptance_log, 5, desc, failures,
            "50 instances + 20 random cost vectors")


def test_c06_sdp_solver_oracle(acceptance_log, suite50, suite50_penalties,
                               suite_reports):
    desc = ("analytic 2x2 SDP values (2, -2, 0) to 1e-6; every suite SDP "
            "minimum is at most the hypercube minimum plus inflation")
    failures = []
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    unit = dict(diag=np.ones(2))
    # the doubly-nonnegative cone takes the unit diagonal as rows X_ii = 1
    rows = dict(A=[np.diag(e) for e in np.eye(2)], b=np.ones(2))
    cases = [
        (Sense.MAX, Cone.PSD, unit, 2.0),
        (Sense.MIN, Cone.PSD, unit, -2.0),
        (Sense.MIN, Cone.PSD_NONNEG, rows, 0.0),
    ]
    for sense, cone, constraint, expected in cases:
        sol = solve_sdp(SdpProblem(C=C, sense=sense, cone=cone, **constraint),
                        TIGHT_CFG)
        if abs(sol.objective - expected) > 1e-6:
            failures.append(("analytic", sense, cone, sol.objective, expected))

    reports, _ = suite_reports
    for inst, report, pb in zip(suite50, reports, suite50_penalties):
        e = report.entries["maxcut_shor_min"]
        if not e.usable:
            continue
        mc = homogenize(inst.sign, pb)
        if mc.dim > 16:
            continue
        floor = extrema(F=mc.Q).min
        deflated = e.raw - e.inflation / report.scale
        if deflated > floor + 1e-5 * (1 + abs(floor)):
            failures.append((inst.label, deflated, floor))
    _record(acceptance_log, 6, desc, failures,
            "3 analytic cases + 50 suite SDPs")


def test_c07_slack_expansion_preserves_optima(acceptance_log):
    desc = ("one hundred seeded inequality programs keep the same optimum "
            "after slack expansion to equality form")
    failures = []
    for k in range(100):
        rng = np.random.default_rng(7000 + k)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        A = rng.integers(0, 7, size=(m, n)).astype(float)
        b = np.array([float(rng.integers(0, min(15, int(A[i].sum())) + 1))
                      for i in range(m)])
        c = rng.integers(-10, 11, size=n).astype(float)
        if k % 2:
            G = rng.integers(-3, 4, size=(n, n))
            F = (G + G.T).astype(float)
        else:
            F = None
        prog = ZeroOneProgram(n=n, c=c, F=F, A=A, b=b, row_sense=[LE] * m)
        expanded = slack_expand(prog)
        f_orig, _ = optimum(prog)
        f_exp, _ = optimum(expanded)
        if not np.isfinite(f_orig) or abs(f_orig - f_exp) > 1e-9 * (1 + abs(f_orig)):
            failures.append((k, f_orig, f_exp))
    _record(acceptance_log, 7, desc, failures, "100 programs, n <= 8")


def test_c08_b_sweep_csv(acceptance_log, tmp_path):
    desc = ("the n=10 right-hand-side sweep emits its CSV and the "
            "homogenized SDP bound beats the box LP on a strict majority "
            "of feasible b")
    failures = []
    out = str(tmp_path / "knapsack10_b_sweep.csv")
    rc = main(["compare", "--family", "knapsack_fixed", "--n", "10",
               "--sweep-param", "b", "--sweep-from", "-190", "--sweep-to",
               "190", "--selectors", "maxcut_shor_min,lp_box,brute_force",
               "--eps-abs", "1e-6", "--eps-rel", "1e-5",
               "--max-iter", "30000", "-o", out])
    if rc != EXIT_OK:
        failures.append(("exit code", rc))
    lines = [l for l in open(out).read().splitlines() if l]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]
            if not l.startswith("#")]
    if len(rows) != 381:
        failures.append(("row count", len(rows)))
    wins = feasible = 0
    for row in rows:
        if row["brute_force_status"] != "Exact":
            failures.append(("missing exact row", row["b"]))
            continue
        f_star = float(row["brute_force"])
        if not np.isfinite(f_star):
            continue  # unreachable right-hand side
        feasible += 1
        sdp = float(row["maxcut_shor_min"])
        lp = float(row["lp_box"])
        if sdp >= lp - 1e-6 * (1 + abs(lp)):
            wins += 1
    if not feasible or wins * 2 <= feasible:
        failures.append(("majority", wins, feasible))
    _record(acceptance_log, 8, desc, failures,
            f"SDP at least LP on {wins}/{feasible} feasible b")


def test_c09_cluster_grid(acceptance_log):
    desc = ("on the n=20 cardinality-cluster grid the homogenized SDP bound "
            "is at least the eigenvalue-shift bound in every cell, and both "
            "stay below the exact optimum")
    failures = []
    t0 = time.perf_counter()
    cells = 0
    for zp in (0.4, 0.8):
        for k in (4, 6, 8, 10, 12):
            seed = 9000 + k + int(10 * zp)
            sign = kcluster(20, k, zp, seed)[1]
            pb = penalty_rho(sign.c, sign.F, FAST_CFG)
            report = compute_bounds(
                sign, selectors=["maxcut_shor_min", "convex_quadratic"],
                cfg=FAST_CFG, pb=pb, include_brute_force=False)
            shor = report.entries["maxcut_shor_min"]
            psi = report.entries["convex_quadratic"]
            label = f"k={k} zp={zp}"
            cells += 1
            if not (shor.usable and psi.usable):
                failures.append((label, shor.status, psi.status))
                continue
            if shor.value + shor.inflation < psi.value - psi.inflation \
                    - 1e-4 * (1 + abs(psi.value)):
                failures.append((label, "shor below eigen-shift",
                                 shor.value, psi.value))
            f_star, _ = optimum(sign)
            tol = 1e-4 * (1 + abs(f_star))
            if shor.value - shor.inflation > f_star + tol:
                failures.append((label, "shor above optimum", shor.value,
                                 f_star))
            if psi.value - psi.inflation > f_star + tol:
                failures.append((label, "eigen-shift above optimum",
                                 psi.value, f_star))
    seconds = time.perf_counter() - t0
    if seconds >= 300:
        failures.append(("runtime", seconds))
    _record(acceptance_log, 9, desc, failures,
            f"{cells} cells, {seconds:.0f}s")


def test_c10_rounding(acceptance_log, suite50, suite50_penalties,
                      suite_reports):
    desc = ("best-of-200 hyperplane rounding is feasible on every suite "
            "instance, sound against the SDP bound, exact under direct "
            "evaluation, and byte-reproducible")
    reports, _ = suite_reports
    failures = []
    for inst, report, pb in zip(suite50, reports, suite50_penalties):
        r = report.rounding
        label = inst.label
        if r is None or not r.recovered.feasible:
            failures.append((label, "no feasible rounding"))
            continue
        e = report.entries["maxcut_shor_min"]
        if r.value < e.raw - e.inflation / report.scale \
                - 1e-6 * (1 + abs(e.raw)):
            failures.append((label, "below SDP bound", r.value, e.raw))
        mc = homogenize(inst.sign, pb)
        direct = float(r.spin @ mc.Q @ r.spin)
        if r.value != direct:
            failures.append((label, "inexact evaluation", r.value, direct))

    for idx in (0, 20, 40):  # re-run the full pipeline: bytes must repeat
        inst, pb = suite50[idx], suite50_penalties[idx]
        mc = homogenize(inst.sign, pb)
        sol = shor_maxcut(mc, Sense.MIN, FAST_CFG).solution
        again = gw_round(sol.X, mc, trials=200, seed=0, polish=True)
        base = reports[idx].rounding
        if (again.spin.tobytes() != base.spin.tobytes()
                or again.value != base.value):
            failures.append((inst.label, "rounding not reproducible"))
    _record(acceptance_log, 10, desc, failures,
            "50 instances + 3 byte-repro re-runs")


def test_c11_cli_determinism(acceptance_log, tmp_path):
    desc = "gen, convert, and solve primary outputs are byte-identical "\
           "across consecutive identical runs"
    failures = []
    fast = ["--eps-abs", "1e-6", "--eps-rel", "1e-5", "--max-iter", "30000"]

    inst = tmp_path / "inst.json"
    for name, argv in [
        ("gen", lambda p: ["gen", "--family", "quadratic_knapsack", "--n",
                           "6", "--s", "3", "--f-density", "0.5", "--b", "9",
                           "--seed", "3", "-o", str(p)]),
        ("convert", lambda p: ["convert", "--instance", str(inst), "--emit",
                               "json", "-o", str(p)]),
        ("solve", lambda p: ["solve", "--instance", str(inst), "--selectors",
                             "maxcut_shor_min,lasserre1", "--gw-trials", "50",
                             "--format", "csv", "-o", str(p)] + fast),
    ]:
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        rca, rcb = main(argv(a)), main(argv(b))
        if name == "gen":
            inst.write_bytes(a.read_bytes())
        if rca != EXIT_OK or rcb != EXIT_OK:
            failures.append((name, "exit", rca, rcb))
        elif a.read_bytes() != b.read_bytes():
            failures.append((name, "bytes differ"))
    _record(acceptance_log, 11, desc, failures, "3 commands,2 runs each")
