"""``tests/report_digest.py`` runs against the sources in ``src/`` and prints digests;
its counters are also checked in process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import report_digest
from maxcut_bridge import relaxations
from maxcut_bridge.sdp import SdpProblem, SolveStatus, solve_sdp

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "report_digest.py"
HEX = "[0-9a-f]{64}"


def run_digest(*args) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_digest_per_workload():
    assert re.fullmatch(f"dnn {HEX}\n", run_digest("dnn"))


def test_one_digest_per_instance():
    lines = run_digest("--by-instance", "dnn").splitlines()
    assert len(lines) == 5  # the dnn workload's five instances
    labels = [re.fullmatch(f"dnn (\\S+) {HEX}", line).group(1) for line in lines]
    assert len(set(labels)) == 5


def test_counts_follow_each_digest():
    line = run_digest("--counts", "dnn")
    match = re.fullmatch(
        f"dnn {HEX} certified_diag_bound=(\\d+) _bland_min=(\\d+) _pivot=(\\d+)"
        " diag_ipm_iterations=(\\d+) face_ipm_iterations=(\\d+) lapack_calls=(\\d+)"
        " box_qp_iterations=(\\d+) rows_dropped=(\\d+)\n", line)
    assert match, line
    assert int(match.group(1)) > 0  # the dnn reports certify their SDP bounds
    # rho and the Shor bounds take the diagonal method, copositive_dnn the face one
    assert int(match.group(4)) > 0 and int(match.group(5)) > 0
    assert int(match.group(6)) > 0  # and both factor through the LAPACK seam
    assert int(match.group(7)) == 0  # no dnn selector runs the box QP
    assert int(match.group(8)) == 0  # no dnn program has a dependent row


def test_rows_dropped_counts_every_reduction():
    # no workload has a dependent row yet, so each reduction drops one here:
    # a repeated row of the face method, a repeated row of simplex phase 1,
    # and the diagonal rows X_11 and X_22, which coincide on the face
    # x_1 + x_2 = 0
    E11 = np.diag([1.0, 0.0])
    face = np.array([[1, 1]])
    with report_digest.counting() as counts:
        rows = solve_sdp(SdpProblem(C=np.eye(2), A=[E11, E11, np.eye(2)], b=[0.5, 0.5, 1.0]))
        assert counts["rows_dropped"] == 1
        kept = relaxations.simplex_phase1([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], -1.0, 1.0, 2)
        assert kept.rows.tolist() == [0] and counts["rows_dropped"] == 2
        diagonal = solve_sdp(SdpProblem(C=np.eye(2), diag=np.ones(2), face=face))
        assert counts["rows_dropped"] == 3
    assert rows.status == diagonal.status == SolveStatus.CONVERGED


def test_values_one_line_per_instance():
    lines = run_digest("--values", "dnn").splitlines()
    labels = [re.fullmatch(f"dnn (\\S+) {HEX}", line).group(1)
              for line in run_digest("--by-instance", "dnn").splitlines()]
    assert len(lines) == len(labels) == 5
    for line, label in zip(lines, labels):
        match = re.fullmatch(
            "dnn (\\S+) rho=(\\S+) maxcut_shor_min=(\\w+):(\\S+) copositive_dnn=(\\w+):(\\S+)"
            " rounded=(\\S+):(True|False):([01]+) verdict=(\\w+)", line)
        assert match, line
        assert match.group(1) == label
        float(match.group(2)), float(match.group(4)), float(match.group(6))
    # the infeasible kcluster(n=4, k=5) is proved so by its gap
    assert any(line.endswith("verdict=InfeasibleByGap") for line in lines)


def test_seed_picks_the_workload():
    assert run_digest("dnn") == run_digest("--seed", "0", "dnn")
    assert run_digest("--seed", "1", "dnn") != run_digest("dnn")
