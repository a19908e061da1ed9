#!/usr/bin/env python3
"""One SHA-256 per benchmark workload over the seed-0 reports.

    PYTHONPATH=src python3 tests/report_digest.py [--by-instance] [corpus dnn scaling budget]

Builds each named workload (all four by default) at seed 0 from
bench/workloads.py and runs every instance the way bench/run.py does:
``penalty.rho``, then ``compute_bounds`` with the workload's selectors and
solver settings, then ``certify``.  The digest covers rho, every entry's
name, value, raw value, status, note and inflation, the X and y of each
entry's SDP solution, the rounding spin, value and feasibility, and the
verdict with its value, bound and point; an exception counts by its repr.
Wall-clock seconds are left out, and BLAS runs on one thread, as in
bench/run.py.  Two trees whose digests agree give bit-identical reports, so
a refactor that claims to move no output can be checked by running this at
the parent commit and at the change.  Each line is the workload and its
digest; with ``--by-instance`` it is the workload, an instance label and the
digest of that instance's report alone, so a workload digest that moved
points at the instances that moved it.  The file is not a test module:
pytest does not collect it.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import BUILDERS, GW_TRIALS  # noqa: E402

from maxcut_bridge import bounds, penalty, relaxations  # noqa: E402
from maxcut_bridge.sdp import SdpSolution  # noqa: E402


def _feed(h, *items) -> None:
    """Arrays by dtype, shape and bytes; everything else by its repr (exact for floats)."""
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())
        h.update(b"\0")


def _report(h, inst, wl) -> None:
    _feed(h, inst.label)
    try:
        pb = penalty.rho(inst.sign.c, inst.sign.F, wl.cfg)
        rep = relaxations.compute_bounds(
            inst.sign, selectors=list(wl.selectors), cfg=wl.cfg, pb=pb,
            gw_trials=GW_TRIALS, gw_seed=0, dnn_cfg=wl.dnn_cfg)
        cert = bounds.certify(rep, pb)
    except Exception as exc:
        _feed(h, repr(exc))
        return
    _feed(h, pb.rho)
    for name, e in rep.entries.items():
        _feed(h, name, e.value, e.raw, e.status, e.note, e.inflation)
        if isinstance(e.solution, SdpSolution):
            _feed(h, e.solution.X, e.solution.y)
    if rep.rounding is not None:
        _feed(h, rep.rounding.spin, rep.rounding.value, rep.rounding.feasible)
    _feed(h, cert.kind, cert.value, cert.bound, cert.point)


def digests(workload: str, by_instance: bool = False) -> list[tuple[str, str]]:
    """(name, digest) of the workload, or of each of its instances with ``by_instance``."""
    wl = BUILDERS[workload](0)
    if not by_instance:
        h = hashlib.sha256()
        for inst in wl.instances:
            _report(h, inst, wl)
        return [(workload, h.hexdigest())]
    out = []
    for inst in wl.instances:
        h = hashlib.sha256()
        _report(h, inst, wl)
        out.append((f"{workload} {inst.label}", h.hexdigest()))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--by-instance", action="store_true",
                        help="one digest per instance label instead of per workload")
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"any of {', '.join(BUILDERS)} (default: all)")
    args = parser.parse_args(argv)
    names = args.workloads or list(BUILDERS)
    unknown = [w for w in names if w not in BUILDERS]
    if unknown:
        sys.stderr.write(f"unknown workloads {unknown}; known: {', '.join(BUILDERS)}\n")
        return 2
    for name in names:
        for label, hexdigest in digests(name, args.by_instance):
            print(label, hexdigest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
