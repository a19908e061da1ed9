"""End-to-end checks for the command-line interface.

Each test drives ``maxcut_bridge.cli.main`` in process with an argv list and
asserts on exit codes, emitted files, and stdout.  Determinism tests compare
artifact bytes across repeated runs with identical flags.
"""

import json

import numpy as np
import pytest

from maxcut_bridge.cli import (
    EXIT_INFEASIBLE_INPUT,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    EXIT_USAGE,
    main,
)
from maxcut_bridge.model import (
    LE,
    SignProgram,
    ZeroOneProgram,
    load_instance,
    save_instance,
)

FAST = ["--eps-abs", "1e-6", "--eps-rel", "1e-5", "--max-iter", "30000"]


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own usage failures
        return exc.code


@pytest.fixture
def knapsack_file(tmp_path):
    path = tmp_path / "inst.json"
    rc = run_cli(["gen", "--family", "knapsack_fixed", "--n", "4",
                  "--b", "34", "-o", str(path)])
    assert rc == EXIT_OK
    return str(path)


class TestGen:
    def test_writes_loadable_instance(self, knapsack_file):
        q = load_instance(knapsack_file)
        assert isinstance(q, SignProgram)
        assert q.n == 4 and q.b[0] == 34

    def test_digest_on_stdout(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run_cli(["gen", "--family", "knapsack_random", "--n", "5", "--s", "3",
                 "--b", "11", "--seed", "7", "-o", str(path)])
        out = capsys.readouterr().out
        assert "family=knapsack_random" in out
        assert "n=5" in out and "seed=7" in out

    def test_no_output_flag_prints_instance(self, capsys):
        rc = run_cli(["gen", "--family", "knapsack_fixed", "--n", "4", "--b", "8"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 4 and doc["domain"] == "sign"

    def test_kcluster_keeps_unit_mapping(self, tmp_path):
        path = tmp_path / "kc.json"
        rc = run_cli(["gen", "--family", "kcluster", "--n", "6", "--k", "3",
                      "--zero-prob", "0.5", "--seed", "9", "-o", str(path)])
        assert rc == EXIT_OK
        q = load_instance(path)
        assert isinstance(q, SignProgram)
        assert q.scale == 0.25

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["gen", "--family", "quadratic_knapsack", "--n", "6", "--s", "3",
                "--f-density", "0.5", "--b", "9", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(argv + ["-o", str(a)]) == EXIT_OK
        assert run_cli(argv + ["-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_family_is_usage_error(self, tmp_path):
        assert run_cli(["gen", "-o", str(tmp_path / "x.json")]) == EXIT_USAGE

    def test_missing_parameter_is_usage_error(self, tmp_path):
        rc = run_cli(["gen", "--family", "knapsack_fixed", "--n", "4",
                      "-o", str(tmp_path / "x.json")])
        assert rc == EXIT_USAGE

    def test_bad_n_is_usage_error(self, tmp_path):
        rc = run_cli(["gen", "--family", "knapsack_fixed", "--n", "-1",
                      "--b", "3", "-o", str(tmp_path / "x.json")])
        assert rc == EXIT_USAGE


class TestConvert:
    def test_rudy_artifact(self, knapsack_file, tmp_path, capsys):
        out = tmp_path / "inst.rudy"
        rc = run_cli(["convert", "--instance", knapsack_file, "--emit", "rudy",
                      "-o", str(out)] + FAST)
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        n_nodes, n_edges = map(int, lines[0].split())
        assert n_nodes == 5  # four variables plus the homogenization node
        assert len(lines) == 1 + n_edges
        digest = capsys.readouterr().out
        assert "rho=34" in digest and "penalty_m=69" in digest

    def test_q_json_artifact(self, knapsack_file, tmp_path):
        out = tmp_path / "inst_q.json"
        rc = run_cli(["convert", "--instance", knapsack_file, "--emit", "json",
                      "-o", str(out)] + FAST)
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n_nodes"] == 5
        assert doc["rho"] == pytest.approx(34.0)
        assert doc["penalty_m"] == pytest.approx(69.0)
        Q = np.array(doc["Q"])
        assert Q.shape == (5, 5)
        assert np.allclose(Q, Q.T)

    def test_rho_override_changes_penalty(self, knapsack_file, tmp_path, capsys):
        out = tmp_path / "o.rudy"
        rc = run_cli(["convert", "--instance", knapsack_file, "--rho", "50",
                      "-o", str(out)])
        assert rc == EXIT_OK
        digest = capsys.readouterr().out
        assert "rho=50" in digest and "penalty_m=101" in digest

    def test_byte_identical_reruns(self, knapsack_file, tmp_path):
        a, b = tmp_path / "a.rudy", tmp_path / "b.rudy"
        for path in (a, b):
            assert run_cli(["convert", "--instance", knapsack_file,
                            "-o", str(path)] + FAST) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_row_exits_3(self, tmp_path):
        p = ZeroOneProgram(n=2, c=np.array([1.0, 2.0]), F=None,
                           A=np.array([[1.0, 1.0]]), b=np.array([-1.0]),
                           row_sense=[LE])
        path = tmp_path / "bad.json"
        save_instance(p, path)
        rc = run_cli(["convert", "--instance", str(path),
                      "-o", str(tmp_path / "bad.rudy")])
        assert rc == EXIT_INFEASIBLE_INPUT

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = run_cli(["convert", "--instance", str(tmp_path / "nope.json"),
                      "-o", str(tmp_path / "x.rudy")])
        assert rc == EXIT_USAGE


class TestSolve:
    def test_table_report(self, knapsack_file, capsys):
        rc = run_cli(["solve", "--instance", knapsack_file, "--selectors",
                      "maxcut_shor_min,lp_box", "--gw-trials", "20"] + FAST)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "maxcut_shor_min" in out and "lp_box" in out
        assert "brute_force" in out  # auto-included at this size
        assert "certificate = Feasible" in out
        assert "rho = 34" in out

    def test_csv_report_has_deltas(self, knapsack_file, capsys):
        rc = run_cli(["solve", "--instance", knapsack_file, "--selectors",
                      "lp_box", "--format", "csv"] + FAST)
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["selector", "status", "value"]
        assert "delta_pct_vs_brute" in header
        row = dict(zip(header, lines[1].split(",")))
        assert row["selector"] == "lp_box"
        assert float(row["delta_pct_vs_brute"]) == pytest.approx(0.0)

    def test_json_report_structure(self, knapsack_file, capsys):
        rc = run_cli(["solve", "--instance", knapsack_file, "--selectors",
                      "maxcut_shor_min,maxcut_shor_max", "--format", "json"]
                     + FAST)
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"meta", "entries", "certificate"}
        assert doc["meta"]["rho"] == pytest.approx(34.0)
        assert "sandwich_upper" in doc["meta"]
        assert doc["entries"]["maxcut_shor_min"]["status"] == "Converged"

    def test_no_brute_force_flag(self, knapsack_file, capsys):
        rc = run_cli(["solve", "--instance", knapsack_file, "--selectors",
                      "lp_box", "--no-brute-force", "--format", "csv"] + FAST)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "brute_force" not in out

    def test_skipped_selector_still_succeeds(self, tmp_path, capsys):
        argv = ["gen", "--family", "quadratic_knapsack", "--n", "5", "--s", "3",
                "--f-density", "0.5", "--b", "9", "--seed", "3",
                "-o", str(tmp_path / "q.json")]
        assert run_cli(argv) == EXIT_OK
        rc = run_cli(["solve", "--instance", str(tmp_path / "q.json"),
                      "--selectors", "lp_box", "--format", "csv"] + FAST)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "Skipped" in out and "linear objective" in out

    def test_generator_source(self, capsys):
        rc = run_cli(["solve", "--family", "kcluster", "--n", "6", "--k", "7",
                      "--zero-prob", "0.5", "--seed", "6", "--selectors",
                      "maxcut_shor_min", "--gw-trials", "20"] + FAST)
        assert rc == EXIT_OK
        assert "certificate = InfeasibleByGap" in capsys.readouterr().out

    def test_two_sources_is_usage_error(self, knapsack_file):
        rc = run_cli(["solve", "--instance", knapsack_file,
                      "--family", "knapsack_fixed", "--n", "4", "--b", "8"])
        assert rc == EXIT_USAGE

    def test_no_source_is_usage_error(self):
        assert run_cli(["solve", "--selectors", "lp_box"]) == EXIT_USAGE

    def test_unknown_selector_fails_fast(self, knapsack_file):
        rc = run_cli(["solve", "--instance", knapsack_file,
                      "--selectors", "magic"])
        assert rc == EXIT_USAGE

    def test_negative_gw_trials_is_usage_error(self, knapsack_file, capsys):
        rc = run_cli(["solve", "--instance", knapsack_file, "--selectors",
                      "maxcut_shor_min", "--gw-trials", "-5"] + FAST)
        assert rc == EXIT_USAGE
        assert "--gw-trials must be >= 0" in capsys.readouterr().err

    def test_solver_exception_exits_4(self, knapsack_file, monkeypatch):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh failed to converge")

        monkeypatch.setattr("maxcut_bridge.cli.compute_bounds", explode)
        rc = run_cli(["solve", "--instance", knapsack_file,
                      "--selectors", "maxcut_shor_min"])
        assert rc == EXIT_SOLVER_FAILURE

    def test_output_file_byte_identical(self, knapsack_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["solve", "--instance", knapsack_file, "--selectors",
                "maxcut_shor_min,lp_box", "--gw-trials", "20",
                "--format", "csv"] + FAST
        for path in (a, b):
            assert run_cli(argv + ["-o", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestRound:
    def test_recovers_optimum(self, knapsack_file, capsys):
        rc = run_cli(["round", "--instance", knapsack_file, "--trials", "100"]
                     + FAST)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "x01 = 1111" in out
        assert "objective = 34" in out
        assert "feasible = true" in out

    def test_json_and_determinism(self, knapsack_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["round", "--instance", knapsack_file, "--trials", "50",
                "--seed", "11", "--format", "json"] + FAST
        for path in (a, b):
            assert run_cli(argv + ["-o", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["feasible"] is True
        assert doc["gap_to_shor_raw"] >= -1e-6

    def test_polish_flag_accepted(self, knapsack_file, capsys):
        rc = run_cli(["round", "--instance", knapsack_file, "--trials", "20",
                      "--polish"] + FAST)
        assert rc == EXIT_OK
        assert "feasible = true" in capsys.readouterr().out


class TestCertify:
    def test_feasible_verdict(self, knapsack_file, capsys):
        rc = run_cli(["certify", "--instance", knapsack_file,
                      "--trials", "200"] + FAST)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict = Feasible" in out
        assert "point = 1111" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_usage_error(self, knapsack_file, capsys, trials):
        rc = run_cli(["certify", "--instance", knapsack_file,
                      "--trials", trials] + FAST)
        assert rc == EXIT_USAGE
        assert "--trials must be >= 1" in capsys.readouterr().err

    def test_infeasible_by_gap_verdict(self, capsys):
        rc = run_cli(["certify", "--family", "kcluster", "--n", "6", "--k", "7",
                      "--zero-prob", "0.5", "--seed", "6", "--format", "json"]
                     + FAST)
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "InfeasibleByGap"
        assert doc["bound"] > doc["rho"]


class TestCompare:
    ARGS = ["compare", "--family", "knapsack_fixed", "--n", "4",
            "--sweep-param", "b", "--sweep-from", "30", "--sweep-to", "34",
            "--selectors", "maxcut_shor_min,lp_box,brute_force"] + FAST

    def test_sweep_rows_in_order(self, capsys):
        assert run_cli(list(self.ARGS)) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "b"
        assert "maxcut_shor_min" in header and "lp_box_status" in header
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert [row.split(",")[0] for row in data] == ["30", "31", "32", "33", "34"]

    def test_win_count_summary(self, capsys):
        assert run_cli(list(self.ARGS)) == EXIT_OK
        out = capsys.readouterr().out
        assert "# wins maxcut_shor_min>lp_box:" in out
        assert "# rows: 5" in out

    def test_threaded_matches_serial(self, tmp_path, monkeypatch):
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        monkeypatch.delenv("MAXCUT_BRIDGE_THREADS", raising=False)
        assert run_cli(self.ARGS + ["-o", str(serial)]) == EXIT_OK
        monkeypatch.setenv("MAXCUT_BRIDGE_THREADS", "3")
        assert run_cli(self.ARGS + ["-o", str(threaded)]) == EXIT_OK
        assert serial.read_bytes() == threaded.read_bytes()

    def test_bad_thread_env_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("MAXCUT_BRIDGE_THREADS", "many")
        assert run_cli(list(self.ARGS)) == EXIT_USAGE

    def test_empty_sweep_is_usage_error(self):
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4",
                      "--sweep-param", "b", "--sweep-from", "5",
                      "--sweep-to", "4"])
        assert rc == EXIT_USAGE

    def test_missing_sweep_flags_is_usage_error(self):
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4"])
        assert rc == EXIT_USAGE

    def test_row_failures_recorded_and_run_continues(self, capsys):
        # knapsack_random needs --s; every row fails but the sweep completes
        rc = run_cli(["compare", "--family", "knapsack_random", "--n", "5",
                      "--sweep-param", "b", "--sweep-from", "3",
                      "--sweep-to", "5",
                      "--selectors", "lp_box"] + FAST)
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert len(data) == 3
        assert all("requires parameter" in row for row in data)

    def test_k_sweep(self, capsys):
        rc = run_cli(["compare", "--family", "kcluster", "--n", "6",
                      "--zero-prob", "0.5", "--seed", "3", "--sweep-param", "k",
                      "--sweep-from", "2", "--sweep-to", "4", "--sweep-step", "2",
                      "--selectors", "maxcut_shor_min,brute_force"] + FAST)
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert [row.split(",")[0] for row in data] == ["2", "4"]
        for row in data:
            cells = dict(zip(lines[0].split(","), row.split(",")))
            lower = float(cells["maxcut_shor_min"])
            exact = float(cells["brute_force"])
            assert lower <= exact + 1e-4 * (1 + abs(exact))
