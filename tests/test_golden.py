"""Byte-for-byte golden outputs of the command-line interface.

Fourteen commands cover every subcommand and output format: ``gen``, three
``solve`` formats, ``solve`` without the box LP, ``solve`` without brute
force, a k-cluster ``solve``, ``round`` as json and csv, two ``certify``
runs, one ``compare`` sweep and ``convert`` to json and rudy.  Each writes
one file, and the test compares its bytes with the file of the same name
under ``tests/golden/``.  A refactor that is meant to leave every output
alone must keep this test passing unchanged.

When a change is meant to move the outputs, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change which files moved and why.
"""

import contextlib
import shutil
import sys
from pathlib import Path

import pytest

from maxcut_bridge.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SOLVER = ["--eps-abs", "1e-6", "--eps-rel", "1e-5", "--max-iter", "30000",
          "--dnn-max-iter", "2000"]
Q6 = ["--instance", "q6.json"]
KCLUSTER = ["--family", "kcluster", "--n", "6", "--k", "3", "--zero-prob", "0.5",
            "--seed", "2"]

# (output file, argv without the output flag), in run order: later commands
# read q6.json, which the first one writes.
COMMANDS = (
    ("q6.json", ["gen", "--family", "quadratic_knapsack", "--n", "6", "--s", "3",
                 "--f-density", "0.5", "--b", "9", "--seed", "3"]),
    ("02_solve_table.txt", ["solve", *Q6, "--gw-trials", "50", *SOLVER]),
    ("03_solve_csv.csv", ["solve", *Q6, "--format", "csv", *SOLVER]),
    ("04_solve_json.json", ["solve", *Q6, "--format", "json", *SOLVER]),
    ("05_solve_skip_lp.csv", ["solve", "--family", "knapsack_fixed", "--n", "10",
                              "--b", "10", "--selectors",
                              "maxcut_shor_min,maxcut_shor_max,lasserre1,convex_quadratic",
                              "--format", "csv", *SOLVER]),
    ("06_solve_skip_bf.json", ["solve", *Q6, "--no-brute-force", "--gw-trials", "50",
                               "--format", "json", *SOLVER]),
    ("07_solve_kc.csv", ["solve", *KCLUSTER, "--format", "csv", *SOLVER]),
    ("08_round_json.json", ["round", *Q6, "--trials", "50", "--polish",
                            "--format", "json", *SOLVER]),
    ("09_round_csv.csv", ["round", *Q6, "--trials", "50", "--seed", "4",
                          "--format", "csv", *SOLVER]),
    ("10_certify_kc.json", ["certify", "--family", "kcluster", "--n", "5", "--k", "6",
                            "--zero-prob", "0.5", "--seed", "1", "--trials", "50",
                            "--format", "json", *SOLVER]),
    ("11_certify_q6.txt", ["certify", *Q6, "--trials", "50", *SOLVER]),
    ("12_compare.csv", ["compare", "--family", "knapsack_fixed", "--n", "4",
                        "--sweep-param", "b", "--sweep-from", "-28", "--sweep-to", "28",
                        "--sweep-step", "8", *SOLVER]),
    ("13_convert.json", ["convert", *Q6, "--emit", "json", *SOLVER]),
    ("14_convert.rudy", ["convert", *Q6, "--emit", "rudy", *SOLVER]),
)


def run_commands(workdir: Path) -> None:
    """Run every command with ``workdir`` as the working directory."""
    with contextlib.chdir(workdir):
        for name, argv in COMMANDS:
            rc = main(argv + ["-o", name])
            if rc != EXIT_OK:
                raise RuntimeError(f"{name}: exit {rc}")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    run_commands(workdir)
    return workdir


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_matches_golden(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    run_commands(GOLDEN)
    print(f"wrote {len(COMMANDS)} files to {GOLDEN}", file=sys.stderr)
