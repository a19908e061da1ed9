#!/usr/bin/env python3
"""One SHA-256 per benchmark workload over the reports of one seed.

    PYTHONPATH=src python3 tests/report_digest.py [--by-instance] [--counts] [--values]
        [--seed N] [corpus dnn scaling budget]

Builds each named workload (all four by default) at seed 0, or ``--seed``, from
bench/workloads.py and runs every instance the way bench/run.py does:
``penalty.rho``, then ``compute_bounds`` with the workload's selectors and
solver settings, then ``certify``.  The digest covers rho, the report's
n, rho in original units, scale and offset, every entry's name, value, raw
value, status, note and inflation, the X, y, W and iterations of each
entry's SDP solution, the rounding spin, value and feasibility, and the
verdict with its value, bound and point; an exception counts by its repr.
Wall-clock seconds are left out, and BLAS runs on one thread, as in
bench/run.py.  Two trees whose digests agree give bit-identical reports, so
a refactor that claims to move no output can be checked by running this at
the parent commit and at the change.  Each line is the workload and its
digest; with ``--by-instance`` it is the workload, an instance label and the
digest of that instance's report alone, so a workload digest that moved
points at the instances that moved it.  ``--counts`` appends to each line
how often the reports called ``certified_diag_bound`` (in ``sdp``,
``penalty`` and ``relaxations``), ``_bland_min`` (simplex runs) and
``_pivot`` (simplex pivots), so a change that claims to drop repeated work
can show it, then the iterations of each interior-point method
(``diag_ipm_iterations``, ``face_ipm_iterations``), so a change to a
solver can show that its iterations did not move, then the calls
through the LAPACK seam of ``sdp`` (``lapack_calls``: ``_cholesky``,
``_inv``, ``_solve``, ``_eigvalsh`` and ``_eigh``), so a change that adds
or drops factorizations shows it as an exact count, then the Newton
steps of the box QP (``box_qp_iterations``): the seam calls made inside
``relaxations._box_qp``, which are its ``sdp._inv`` calls, one per step,
and last the dependent rows dropped (``rows_dropped``) by the exact
decision of the diagonal rows on a face, ``sdp._kept_diagonal``, by the
face method's row pass, ``sdp._independent_rows``, and by
``relaxations.simplex_phase1``, so a workload with dependent rows shows
them (a reduction that finds the rows conflicting drops none).
``--values`` prints, in place of digests, one readable line per instance:
rho, each entry's status and certified bound (``BoundEntry.bound``:
value - inflation, or + for a max-sense entry), the rounded point's
objective, feasibility and 0/1 point, and the verdict, all floats by repr.
Diffing that output from two trees shows which values moved and that no
status or verdict did.  The file is not a
test module: pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import BUILDERS, GW_TRIALS  # noqa: E402

from maxcut_bridge import bounds, penalty, relaxations, sdp  # noqa: E402

# function name -> the modules whose calls to it are counted
COUNTED = {
    "certified_diag_bound": (sdp, penalty, relaxations),
    "_bland_min": (relaxations,),
    "_pivot": (relaxations,),
}
# interior-point method of ``sdp`` -> the name its iterations are summed under
ITERATED = {"_solve_diag_ipm": "diag_ipm_iterations", "_solve_face_ipm": "face_ipm_iterations"}
# the LAPACK seam of ``sdp``, whose calls are summed under "lapack_calls"
SEAM = ("_cholesky", "_inv", "_solve", "_eigvalsh", "_eigh")
# the box QP of ``relaxations``, whose seam calls are summed under "box_qp_iterations"
BOX_QP = "_box_qp"
# the row reductions, each called with the right-hand sides second, whose
# dropped rows are summed under "rows_dropped"
REDUCTIONS = ((sdp, "_kept_diagonal"), (sdp, "_independent_rows"),
              (relaxations, "simplex_phase1"))


def _feed(h, *items) -> None:
    """Arrays by dtype, shape and bytes; everything else by its repr (exact for floats)."""
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())
        h.update(b"\0")


def _run(inst, wl):
    """(pb, report, certificate) of one instance, run as bench/run.py does."""
    pb = penalty.rho(inst.sign.c, inst.sign.F, wl.cfg)
    rep = relaxations.compute_bounds(
        inst.sign, selectors=list(wl.selectors), cfg=wl.cfg, pb=pb,
        gw_trials=GW_TRIALS, gw_seed=0, dnn_cfg=wl.dnn_cfg)
    return pb, rep, bounds.certify(rep, pb)


def _report(h, inst, wl) -> None:
    _feed(h, inst.label)
    try:
        pb, rep, cert = _run(inst, wl)
    except Exception as exc:
        _feed(h, repr(exc))
        return
    _feed(h, pb.rho, rep.n, rep.rho_original, rep.scale, rep.offset)
    for name, e in rep.entries.items():
        _feed(h, name, e.value, e.raw, e.status, e.note, e.inflation)
        if e.solution is not None:
            _feed(h, e.solution.X, e.solution.y, e.solution.W, e.solution.iterations)
    if rep.rounding is not None:
        _feed(h, rep.rounding.spin, rep.rounding.value, rep.rounding.feasible)
    _feed(h, cert.kind, cert.value, cert.bound, cert.point)


def _values(inst, wl) -> str:
    """One line of an instance's values: rho, entries, rounding and verdict."""
    try:
        pb, rep, cert = _run(inst, wl)
    except Exception as exc:
        return f"{inst.label} error={exc!r}"
    fields = [inst.label, f"rho={float(pb.rho)!r}"]
    for name, e in rep.entries.items():
        fields.append(f"{name}={e.status}:{float(e.bound)!r}")
    if rep.rounding is not None:
        rec = rep.rounding.recovered
        point = "".join(str(int(v)) for v in rec.x_zero_one)
        fields.append(f"rounded={float(rec.objective)!r}:{rec.feasible}:{point}")
    fields.append(f"verdict={cert.kind}")
    return " ".join(fields)


@contextlib.contextmanager
def counting():
    """Count the calls to each ``COUNTED`` function, the iterations of each
    ``ITERATED`` method, the calls through the ``SEAM``, those of them
    made inside ``BOX_QP`` and the rows that the ``REDUCTIONS`` drop in a
    dict, by name."""
    counts = dict.fromkeys([*COUNTED, *ITERATED.values(), "lapack_calls",
                            "box_qp_iterations", "rows_dropped"], 0)
    saved = [(module, name, getattr(module, name))
             for name, modules in COUNTED.items() for module in modules]
    saved += [(sdp, name, getattr(sdp, name)) for name in (*ITERATED, *SEAM)]
    saved.append((relaxations, BOX_QP, getattr(relaxations, BOX_QP)))
    saved += [(module, name, getattr(module, name)) for module, name in REDUCTIONS]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def iterated(name, fn):
        def wrapper(*args, **kwargs):
            solution = fn(*args, **kwargs)
            counts[name] += solution.iterations
            return solution
        return wrapper

    def box_qp(fn):
        def wrapper(*args, **kwargs):
            before = counts["lapack_calls"]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["box_qp_iterations"] += counts["lapack_calls"] - before
        return wrapper

    def reduction(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out is not None:  # simplex phase 1 returns None for an empty set
                kept = out.rows if isinstance(out, relaxations.FeasibleTableau) else out[0]
                counts["rows_dropped"] += np.size(args[1]) - len(kept)
            return out
        return wrapper

    reducing = {name for _, name in REDUCTIONS}
    for module, name, fn in saved:
        setattr(module, name, box_qp(fn) if name == BOX_QP
                else reduction(fn) if name in reducing
                else iterated(ITERATED[name], fn) if name in ITERATED
                else counted("lapack_calls" if name in SEAM else name, fn))
    try:
        yield counts
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def values(workload: str, seed: int = 0) -> list[str]:
    """The ``_values`` line of each instance of the workload at ``seed``."""
    wl = BUILDERS[workload](seed)
    return [f"{workload} {_values(inst, wl)}" for inst in wl.instances]


def digests(workload: str, by_instance: bool = False,
            counts: bool = False, seed: int = 0) -> list[tuple[str, str]]:
    """(name, digest) of the workload, or of each of its instances with
    ``by_instance``; with ``counts`` the digest is followed by the calls to
    each ``COUNTED`` function, the iterations of each ``ITERATED`` method,
    the calls through the ``SEAM``, the box QP's steps and the rows dropped,
    as name=count."""
    wl = BUILDERS[workload](seed)
    groups = ([(f"{workload} {inst.label}", [inst]) for inst in wl.instances] if by_instance
              else [(workload, wl.instances)])
    out = []
    for label, instances in groups:
        h = hashlib.sha256()
        with counting() as calls:
            for inst in instances:
                _report(h, inst, wl)
        line = h.hexdigest()
        if counts:
            line += "".join(f" {name}={n}" for name, n in calls.items())
        out.append((label, line))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--by-instance", action="store_true",
                        help="one digest per instance label instead of per workload")
    parser.add_argument("--counts", action="store_true",
                        help="append the calls to " + ", ".join(COUNTED)
                        + ", the interior-point iterations, the LAPACK calls,"
                        " the box QP's steps and the dependent rows dropped")
    parser.add_argument("--values", action="store_true",
                        help="print one line of values per instance instead of digests")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"any of {', '.join(BUILDERS)} (default: all)")
    args = parser.parse_args(argv)
    names = args.workloads or list(BUILDERS)
    unknown = [w for w in names if w not in BUILDERS]
    if unknown:
        sys.stderr.write(f"unknown workloads {unknown}; known: {', '.join(BUILDERS)}\n")
        return 2
    for name in names:
        if args.values:
            print("\n".join(values(name, args.seed)), flush=True)
            continue
        for label, hexdigest in digests(name, args.by_instance, args.counts, args.seed):
            print(label, hexdigest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
