"""Golden outputs of the command-line interface, compared by value.

Fourteen commands cover every subcommand and output format: ``gen``, three
``solve`` formats, ``solve`` without the box LP, ``solve`` without brute
force, a k-cluster ``solve``, ``round`` as json and csv, two ``certify``
runs, one ``compare`` sweep and ``convert`` to json and rudy.  Each writes
one file, and the test compares it with the file of the same name under
``tests/golden/`` cell by cell.  JSON is parsed; every other format, and
every JSON string, is split into tokens on whitespace, commas and ``=``.
Two tokens that both read as floats, one of them with a ``.``, ``e`` or
``E``, match within ``RTOL`` relative plus ``ATOL``: another BLAS kernel
moves solver floats in their trailing digits (at most 1.4e-6 relative, or
2e-13 absolute on round-off-level gaps such as ``fw_gap``).  Every other
token, such as a status, a verdict, a selector, ``nan``, an integer or a
0/1 point, and the number of tokens must match exactly.  On one machine
the outputs repeat byte for byte from run to run, which
``test_c11_cli_determinism`` checks.  A refactor that is meant to leave
every output alone must keep this test passing unchanged.

When a change is meant to move the outputs, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each file whose bytes changed and how many did
not, and say in the change which files moved and why.
"""

import contextlib
import ctypes
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

from maxcut_bridge.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
RTOL, ATOL = 1e-5, 1e-9

# round and certify solve only Shor's SDP, so they take no --dnn-max-iter
SHOR = ["--eps-abs", "1e-6", "--eps-rel", "1e-5", "--max-iter", "30000"]
SOLVER = [*SHOR, "--dnn-max-iter", "2000"]
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
                            "--format", "json", *SHOR]),
    ("09_round_csv.csv", ["round", *Q6, "--trials", "50", "--seed", "4",
                          "--format", "csv", *SHOR]),
    ("10_certify_kc.json", ["certify", "--family", "kcluster", "--n", "5", "--k", "6",
                            "--zero-prob", "0.5", "--seed", "1", "--trials", "50",
                            "--format", "json", *SHOR]),
    ("11_certify_q6.txt", ["certify", *Q6, "--trials", "50", *SHOR]),
    ("12_compare.csv", ["compare", "--family", "knapsack_fixed", "--n", "4",
                        "--sweep-param", "b", "--sweep-from", "-28", "--sweep-to", "28",
                        "--sweep-step", "8", *SOLVER]),
    ("13_convert.json", ["convert", *Q6, "--emit", "json"]),
    ("14_convert.rudy", ["convert", *Q6, "--emit", "rudy"]),
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


_SEPARATORS = re.compile(r"[\s,=]+")


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _same_number(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _text_diffs(where: str, got: str, want: str) -> list[str]:
    """The tokens of ``got`` that do not match those of ``want``."""
    got_tokens = [t for t in _SEPARATORS.split(got) if t]
    want_tokens = [t for t in _SEPARATORS.split(want) if t]
    if len(got_tokens) != len(want_tokens):
        return [f"{where}: {len(got_tokens)} tokens, golden has {len(want_tokens)}"]
    return [f"{where} token {i}: {a!r}, golden {b!r}"
            for i, (a, b) in enumerate(zip(got_tokens, want_tokens))
            if a != b and not (_reads_as_float(a) and _reads_as_float(b)
                               and any(ch in a + b for ch in ".eE")
                               and _same_number(float(a), float(b)))]


def _json_diffs(where: str, got, want) -> list[str]:
    """The cells of parsed JSON ``got`` that do not match those of ``want``."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)}, golden {sorted(want)}"]
        return [d for key in want for d in _json_diffs(f"{where}.{key}", got[key], want[key])]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items, golden has {len(want)}"]
        return [d for i, (a, b) in enumerate(zip(got, want))
                for d in _json_diffs(f"{where}[{i}]", a, b)]
    if isinstance(want, str) and isinstance(got, str):
        return _text_diffs(where, got, want)
    numbers = all(type(v) in (int, float) for v in (got, want))
    if numbers and float in (type(got), type(want)):
        return [] if _same_number(got, want) else [f"{where}: {got!r}, golden {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r}, golden {want!r}"]


def golden_diffs(name: str, text: str) -> list[str]:
    """Where ``text``, the output written as ``name``, differs from its golden file."""
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        return _json_diffs(name, json.loads(text), json.loads(want))
    return _text_diffs(name, text, want)


@pytest.mark.parametrize("name", [name for name, _ in COMMANDS])
def test_output_matches_golden(outputs, name):
    diffs = golden_diffs(name, (outputs / name).read_text())
    assert not diffs, "\n".join(diffs[:10])


def openblas_corename() -> str | None:
    """The core type numpy's OpenBLAS runs on, or None when numpy has no OpenBLAS.

    numpy, which ``maxcut_bridge`` imports, has loaded its BLAS by now.
    """
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_corename", "openblas_get_corename64_",
                       "scipy_openblas_get_corename", "scipy_openblas_get_corename64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


# x86-64 OpenBLAS core types another kernel can run on, with the CPU flags each needs
_SECOND_CORETYPES = (("Haswell", {"avx2", "fma"}), ("Sandybridge", {"avx"}))


def _second_coretype() -> str:
    """An OpenBLAS core type this CPU supports other than the one numpy runs on."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS core types here are x86-64 ones, not {platform.machine()}")
    if not Path("/proc/self/maps").exists() or not Path("/proc/cpuinfo").exists():
        pytest.skip("reading the BLAS core type and the CPU flags needs /proc")
    default = openblas_corename()
    if default is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE has no effect")
    flags = next((set(line.split(":", 1)[1].split())
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("flags")), set())
    for coretype, needs in _SECOND_CORETYPES:
        if coretype.lower() != default.lower() and needs <= flags:
            return coretype
    pytest.skip(f"this CPU supports none of {[c for c, _ in _SECOND_CORETYPES]} "
                f"other than the default {default}")


def test_solve_json_matches_golden_under_a_second_blas_kernel(tmp_path):
    # another OpenBLAS kernel sums in another order, so solver floats move
    # in their trailing digits and every other cell stays
    coretype = _second_coretype()
    (tmp_path / "q6.json").write_bytes((GOLDEN / "q6.json").read_bytes())
    name, argv = next(command for command in COMMANDS if command[0] == "04_solve_json.json")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), str(GOLDEN.parent),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, test_golden as t; print(t.openblas_corename()); "
                               "sys.exit(t.main(sys.argv[1:]))", *argv, "-o", name],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.strip() == coretype
    diffs = golden_diffs(name, (tmp_path / name).read_text())
    assert not diffs, "\n".join(diffs[:10])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    before = {name: (GOLDEN / name).read_bytes() if (GOLDEN / name).exists() else None
              for name, _ in COMMANDS}
    run_commands(GOLDEN)
    changed = [name for name, old in before.items() if (GOLDEN / name).read_bytes() != old]
    for name in changed:
        print(f"changed: {name}")
    print(f"wrote {len(COMMANDS)} files to {GOLDEN}: {len(changed)} changed, "
          f"{len(COMMANDS) - len(changed)} unchanged", file=sys.stderr)
