"""End-to-end checks for the command-line interface.

Each test drives ``maxcut_bridge.cli.main`` in process with an argv list and
asserts on exit codes, emitted files, and stdout.  Determinism tests compare
artifact bytes across repeated runs with identical flags.
"""

import json
import re

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
from maxcut_bridge.penalty import PenaltyBound
from maxcut_bridge.relaxations import CONVERGED, INFEASIBLE, BoundEntry, BoundReport

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
                      "-o", str(out)])
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
                      "-o", str(out)])
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
                            "-o", str(path)]) == EXIT_OK
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

    @pytest.mark.parametrize("rho", ["-1", "nan"])
    def test_bad_rho_is_usage_error(self, knapsack_file, capsys, monkeypatch, rho):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before --rho was checked")

        monkeypatch.setattr("maxcut_bridge.cli.compute_bounds", unreachable)
        rc = run_cli(["solve", "--instance", knapsack_file, "--rho", rho] + FAST)
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: rho must be a finite nonnegative number\n"

    @pytest.mark.parametrize("flag, value", [("--max-iter", "0"), ("--dnn-max-iter", "-3"),
                                             ("--eps-abs", "0"), ("--eps-rel", "-0.5")])
    def test_non_positive_budget_is_usage_error(self, knapsack_file, capsys, flag, value):
        rc = run_cli(["solve", "--instance", knapsack_file, "--selectors",
                      "maxcut_shor_min", flag, value])
        assert rc == EXIT_USAGE
        rule = "positive" if flag.startswith("--eps") else "a positive integer"
        assert capsys.readouterr().err == f"error: {flag} must be {rule}\n"

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

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_rejected_before_solving(
            self, knapsack_file, capsys, monkeypatch, trials):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the trial count was checked")

        monkeypatch.setattr("maxcut_bridge.cli.penalty_rho", unreachable)
        monkeypatch.setattr("maxcut_bridge.cli.shor_maxcut", unreachable)
        rc = run_cli(["round", "--instance", knapsack_file,
                      "--trials", trials] + FAST)
        assert rc == EXIT_USAGE
        assert "--trials must be >= 1" in capsys.readouterr().err

    def test_seed_on_a_family_without_draws(self, capsys):
        # --seed is also the rounding seed, so every family takes it
        rc = run_cli(["round", "--family", "knapsack_fixed", "--n", "4", "--b", "2",
                      "--seed", "9"])
        assert rc == EXIT_OK
        assert "seed = 9\n" in capsys.readouterr().out

    def test_polish_flag_accepted(self, knapsack_file, capsys):
        rc = run_cli(["round", "--instance", knapsack_file, "--trials", "20",
                      "--polish"] + FAST)
        assert rc == EXIT_OK
        assert "feasible = true" in capsys.readouterr().out

    def test_unusable_shor_entry_exits_4(self, knapsack_file, capsys, monkeypatch):
        monkeypatch.setattr("maxcut_bridge.cli.shor_maxcut",
                            lambda *args: BoundEntry(value=np.inf, status=INFEASIBLE))
        rc = run_cli(["round", "--instance", knapsack_file] + FAST)
        assert rc == EXIT_SOLVER_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rounding unavailable: SDP status Infeasible\n"


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


@pytest.mark.parametrize("command, flag, value", [
    ("gen", "--format", "csv"),
    ("convert", "--eps-abs", "1"),
    ("convert", "--eps-rel", "1"),
    ("convert", "--max-iter", "1"),
    ("convert", "--dnn-max-iter", "1"),
    ("round", "--dnn-max-iter", "1"),
    ("certify", "--dnn-max-iter", "1"),
    ("certify", "--selectors", "lp_box"),
    ("round", "--selectors", "lp_box"),
    ("convert", "--selectors", "lp_box"),
    ("convert", "--seed", "5"),
    ("solve", "--seed", "7"),  # no --gw-trials: nothing is rounded
], ids=["gen_format", "convert_eps_abs", "convert_eps_rel", "convert_max_iter",
        "convert_dnn_max_iter", "round_dnn_max_iter", "certify_dnn_max_iter",
        "certify_selectors", "round_selectors", "convert_selectors", "convert_seed",
        "solve_seed"])
def test_flag_the_command_never_reads_is_usage_error(knapsack_file, tmp_path, capsys,
                                                     command, flag, value):
    source = (["--family", "knapsack_fixed", "--n", "4", "--b", "34"] if command == "gen"
              else ["--instance", knapsack_file])
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run_cli([command, *source, flag, value, "-o", str(out)])
    assert rc == EXIT_USAGE
    assert flag in capsys.readouterr().err.splitlines()[-1]  # the error, not the usage line
    assert not out.exists()


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

    def test_wins_compare_certified_bounds(self, capsys, monkeypatch):
        # b = 30: Shor's value 10 is above the LP's 9, but its bound 10 - 2
        # is below; b = 31: an infinite inflation certifies nothing
        def fake_bounds(sign, selectors, **kwargs):
            inflation = 2.0 if sign.b[0] == 30 else np.inf
            shor = BoundEntry(value=10.0, status=CONVERGED, inflation=inflation)
            return BoundReport(n=sign.n, penalty=PenaltyBound(1.0), rho_original=1.0,
                               scale=1.0, offset=0.0,
                               entries={"maxcut_shor_min": shor,
                                        "lp_box": BoundEntry(value=9.0, status=CONVERGED)})

        monkeypatch.setattr("maxcut_bridge.cli.compute_bounds", fake_bounds)
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4",
                      "--sweep-param", "b", "--sweep-from", "30", "--sweep-to", "31",
                      "--selectors", "maxcut_shor_min,lp_box"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "# wins maxcut_shor_min>lp_box: 0/1\n" in out

    def test_noise_is_no_win(self, capsys):
        # at b = -34 Shor's certified bound passes lasserre1's by solver
        # round-off alone, where theory has Shor <= lasserre1; a win needs
        # Shor's bound above lasserre1's value, its bound widened back by
        # its own inflation, and there is none
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4",
                      "--sweep-param", "b", "--sweep-from", "-34", "--sweep-to", "-34",
                      "--selectors", "maxcut_shor_min,lasserre1"] + FAST)
        assert rc == EXIT_OK
        assert "# wins maxcut_shor_min>lasserre1: 0/1\n" in capsys.readouterr().out

    def test_empty_sweep_is_usage_error(self):
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4",
                      "--sweep-param", "b", "--sweep-from", "5",
                      "--sweep-to", "4"])
        assert rc == EXIT_USAGE

    def test_missing_sweep_flags_is_usage_error(self):
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flags, message", [
        (["--sweep-to", "3"], "compare requires --sweep-from and --sweep-to"),
        (["--sweep-from", "1"], "compare requires --sweep-from and --sweep-to"),
        (["--sweep-from", "1", "--sweep-to", "3", "--sweep-step", "0"],
         "--sweep-step must be positive"),
    ], ids=["no_from", "no_to", "step_0"])
    def test_sweep_range_flags_are_checked(self, capsys, flags, message):
        rc = run_cli(["compare", "--family", "knapsack_fixed", "--n", "4",
                      "--sweep-param", "b"] + flags)
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("family, param, message", [
        (["knapsack_fixed", "--b", "2"], "k", "family 'knapsack_fixed' takes b, not 'k'"),
        (["kcluster", "--k", "2", "--zero-prob", "0.5"], "b",
         "family 'kcluster' takes k, zero_prob, seed, not 'b'"),
    ], ids=["knapsack_fixed_k", "kcluster_b"])
    def test_sweep_of_a_parameter_the_family_ignores(self, capsys, family, param, message):
        # every row would be the same instance under a different label
        rc = run_cli(["compare", "--family"] + family + [
            "--n", "4", "--sweep-param", param, "--sweep-from", "1", "--sweep-to", "3"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

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

    # b = 33 is infeasible (brute_force reads inf) and b = 35 lies outside
    # [-34, 34], so its row holds the generator's error
    EDGE = ["compare", "--family", "knapsack_fixed", "--n", "4",
            "--sweep-param", "b", "--sweep-from", "33", "--sweep-to", "35",
            "--selectors", "maxcut_shor_min,lp_box,brute_force"] + FAST

    def test_json_sweep(self, capsys):
        assert run_cli(self.EDGE + ["--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"sweep", "rows", "summary"}
        assert doc["sweep"] == {"param": "b", "values": [33, 34, 35]}
        assert [row["b"] for row in doc["rows"]] == [33, 34, 35]
        infeasible, feasible, failed = doc["rows"]
        assert infeasible["brute_force"] is None  # inf is not JSON
        assert infeasible["brute_force_status"] == "Exact"
        assert feasible["brute_force"] == 34.0
        assert failed["lp_box"] is None
        assert failed["lp_box_status"] == "b must lie in [-34, 34]"
        assert doc["summary"][-1] == "rows: 3"
        assert doc["summary"][0].startswith("wins maxcut_shor_min>lp_box: ")

    def test_table_sweep(self, capsys):
        assert run_cli(self.EDGE + ["--format", "table"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "b", "maxcut_shor_min", "maxcut_shor_min_raw", "maxcut_shor_min_status",
            "lp_box", "lp_box_raw", "lp_box_status",
            "brute_force", "brute_force_raw", "brute_force_status"]
        assert set(lines[1]) == {"-", " "}
        assert [l.split()[0] for l in lines[2:5]] == ["33", "34", "35"]
        assert lines[5].startswith("wins maxcut_shor_min>lp_box: ")
        assert lines[6:] == ["rows: 3"]

    def test_csv_quotes_a_cell_with_a_comma(self, capsys):
        assert run_cli(list(self.EDGE)) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == "35" + ',,,"b must lie in [-34, 34]"' * 3

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


class TestBadInput:
    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"n": null, "c": [1], "A": [[1]], "b": [1], "sense": ["EQ"], "domain": "sign"}',
        '{"n": 1, "c": {}, "A": [[1]], "b": [1], "sense": ["EQ"], "domain": "sign"}',
        '{"n": 1, "c": [1], "A": [[1]], "b": [1], "sense": 5, "domain": "sign"}',
        '{"n": 1, "c": [1], "A": [[1]], "b": [1], "sense": [], "domain": "sign"}',
        '{"n": 1, "c": [1], "A": [[1]], "b": [1], "sense": ["EQ"],'
        ' "domain": "zero_one", "constant": [0]}',
    ], ids=["top_level_list", "n_null", "c_object", "sense_int", "sign_sense_empty",
            "constant_list"])
    def test_malformed_instance_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = run_cli(["certify", "--instance", str(path)] + FAST)
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_instance_with_a_text_number_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "text.json"
        path.write_text('{"n": 2, "c": ["1", "2e0"], "A": [[1, 1]], "b": [0], "sense": ["EQ"],'
                        ' "domain": "sign"}')
        rc = run_cli(["solve", "--instance", str(path)] + FAST)
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: c must be numeric, not str\n")

    def test_family_without_n_is_usage_error(self, capsys):
        rc = run_cli(["solve", "--family", "knapsack_fixed", "--b", "2"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: --family requires --n\n"

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--family", "knapsack_fixed", "--n", "4", "--b", "2", "--k", "3"],
         "family 'knapsack_fixed' takes b, not 'k'"),
        (["solve", "--family", "kcluster", "--n", "6", "--k", "3", "--zero-prob", "0.5",
          "--s", "2"], "family 'kcluster' takes k, zero_prob, seed, not 's'"),
    ], ids=["gen_knapsack_fixed_k", "solve_kcluster_s"])
    def test_flag_the_family_ignores_is_usage_error(self, capsys, argv, message):
        # the instance built without the flag is not the one asked for
        rc = run_cli(argv)
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flags, named", [
        (["--b", "3"], "--b"),
        (["--b", "3", "--k", "2"], "--b, --k"),
        (["--n", "6", "--zero-prob", "0.5"], "--n, --zero-prob"),
    ], ids=["b", "b_k", "n_zero_prob"])
    def test_generator_flag_with_instance_is_usage_error(self, knapsack_file, capsys,
                                                         flags, named):
        capsys.readouterr()
        rc = run_cli(["solve", "--instance", knapsack_file] + flags + FAST)
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: generator flags need --family: {named}\n")

    @pytest.mark.parametrize("command, message", [
        ("solve", "--seed needs --family, or --gw-trials above 0 to seed rounding"),
        ("convert", "generator flags need --family: --seed"),
    ], ids=["solve", "convert"])
    def test_seed_with_instance_names_what_reads_it(self, knapsack_file, tmp_path, capsys,
                                                    command, message):
        # solve reads --seed as the generator's or, with --gw-trials above 0,
        # as the rounding seed; convert reads it only as the generator's
        capsys.readouterr()
        rc = run_cli([command, "--instance", knapsack_file, "--seed", "7",
                      "-o", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")
        if command == "solve":
            rc = run_cli([command, "--instance", knapsack_file, "--seed", "7",
                          "--selectors", "lp_box", "--gw-trials", "3"])
            assert rc == EXIT_OK

    def test_output_directory_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(["gen", "--family", "knapsack_fixed", "--n", "4", "--b", "8",
                      "-o", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "Is a directory" in capsys.readouterr().err

    def test_instance_directory_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(["certify", "--instance", str(tmp_path)] + FAST)
        assert rc == EXIT_USAGE
        assert "Is a directory" in capsys.readouterr().err

    def test_log_directory_is_usage_error(self, knapsack_file, tmp_path, capsys):
        rc = run_cli(["certify", "--instance", knapsack_file, "--trials", "20",
                      "--log", str(tmp_path)] + FAST)
        assert rc == EXIT_USAGE
        assert "Is a directory" in capsys.readouterr().err


# One small run per command; "{inst}" stands for the knapsack instance file.
LOGGED = {
    "gen": ["gen", "--family", "knapsack_fixed", "--n", "4", "--b", "34"],
    "convert": ["convert", "--instance", "{inst}"],
    "solve": ["solve", "--instance", "{inst}", "--selectors",
              "maxcut_shor_min,lp_box"] + FAST,
    "round": ["round", "--instance", "{inst}", "--trials", "20"] + FAST,
    "certify": ["certify", "--instance", "{inst}", "--trials", "20"] + FAST,
    "compare": ["compare", "--family", "knapsack_fixed", "--n", "4",
                "--sweep-param", "b", "--sweep-from", "33", "--sweep-to", "34",
                "--selectors", "maxcut_shor_min,lp_box"] + FAST,
}


@pytest.mark.parametrize("command", sorted(LOGGED))
def test_log_sidecar_gets_one_line_and_output_is_unchanged(
        knapsack_file, tmp_path, capsys, command):
    argv = [knapsack_file if a == "{inst}" else a for a in LOGGED[command]]
    out, log = tmp_path / "out", tmp_path / "run.log"
    capsys.readouterr()
    primary = []
    for extra in ([], ["--log", str(log)]):
        assert run_cli(argv + ["-o", str(out)] + extra) == EXIT_OK
        primary.append((out.read_bytes(), capsys.readouterr().out))
    assert primary[0] == primary[1]
    lines = log.read_text().splitlines()
    assert len(lines) == 1
    assert re.match(rf"\d{{4}}-\d\d-\d\dT\d\d:\d\d:\d\d {command}: ", lines[0])


@pytest.mark.parametrize("command", sorted(LOGGED))
def test_log_directory_fails_before_any_output(knapsack_file, tmp_path, capsys, command):
    argv = [knapsack_file if a == "{inst}" else a for a in LOGGED[command]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(argv + ["-o", str(out), "--log", str(tmp_path)]) == EXIT_USAGE
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Is a directory" in captured.err
