#!/usr/bin/env python3
"""Benchmark of the bound-and-round pipeline.

    python3 bench/run.py --workload corpus --seed 0 --seconds 22 --trace 0

Builds one seeded workload (bench/workloads.py), runs it through the public
library API in this single process for about --seconds, checks every output
against bench/oracle.py and prints one JSON object as the last line of
standard output: the end-to-end metrics with --trace 0, and with --trace 1
the per-layer metrics of a traced run (spans go to bench/out/).  Lines
before it record the environment and the failures found.  See
bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, maxcut_bridge; "
                "print(time.perf_counter() - t)")
# Layers some workloads never call report a share of the traced pass time, not
# seconds: a time that reads 0 on every run would look like a constant.
PARTIAL_RELAXATIONS = ("lasserre1", "lp_box", "convex_quadratic", "copositive_dnn")
# Whole passes one run makes at --seconds NOMINAL_SECONDS, scaled to other
# --seconds.  The count is fixed, so the operations a run checks, and with them
# `attempted` and `failed`, are the same however fast the machine happens to be.
# A pass takes about 6.1 s (corpus), 11.5 s (dnn), 10.9 s (scaling) and 6.4 s
# (budget) at reference speed; the counts are the fewest that keep every
# end-to-end metric steady (bench/README.md, "Steadiness").
PASSES = {"corpus": 3, "dnn": 1, "scaling": 2, "budget": 2}
NOMINAL_SECONDS = 22


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "dnn", "scaling", "budget"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Cold import of numpy and the package, timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip())


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class Pass:
    """One run over every instance of a workload."""

    wall: float      # seconds; with a probe, the sum of the scaled report times
    raw_wall: float  # seconds as measured, probe time left out
    times: list      # per-instance report seconds, scaled like `wall`
    outcomes: list   # oracle.Outcome per instance
    shor: list       # (n, relative inflation) of each usable maxcut_shor_min entry


def run_pass(wl, refs, tracer=None, probe=None) -> Pass:
    """One pass; with a probe, times are scaled to the reference speed."""
    from maxcut_bridge import bounds, penalty, relaxations

    from oracle import Failure, Outcome, check
    from workloads import GW_TRIALS

    if probe is not None:
        probe.sample()  # so the first report has a sample before it
    spent = lambda: 0.0 if probe is None else probe.spent
    taken = lambda: 0 if probe is None else len(probe.samples)
    done = []
    start, start_spent = time.perf_counter(), spent()
    for k, inst in enumerate(wl.instances):
        if tracer is not None:
            tracer.begin(f"{k}:{inst.label}")
        t, t_spent, t_taken = time.perf_counter(), spent(), taken()
        try:
            # module-attribute calls, so an installed tracer sees them
            pb = penalty.rho(inst.sign.c, inst.sign.F, wl.cfg)
            rep = relaxations.compute_bounds(
                inst.sign, selectors=list(wl.selectors), cfg=wl.cfg, pb=pb,
                gw_trials=GW_TRIALS, gw_seed=0, dnn_cfg=wl.dnn_cfg)
            cert = bounds.certify(rep, pb)
        except Exception as exc:  # a failed operation, counted by the checker
            res = exc
        else:
            res = (pb, rep, cert)
        seconds = time.perf_counter() - t - (spent() - t_spent)
        done.append((seconds, (t_taken, taken()), inst, res))
    wall = time.perf_counter() - start - (spent() - start_spent)
    times = [d[0] for d in done]
    scaled = wall
    if probe is not None:
        probe.sample()  # and the last one a sample after it
        # each report by the samples taken during it and the one either side
        times = [t * probe.factor(a - 1, b + 1) for t, (a, b), _, _ in done]
        scaled = sum(times)

    outcomes, shor = [], []
    for (_, _, inst, res), f_star in zip(done, refs):
        if isinstance(res, Exception):
            failure = Failure(inst.label, "report", "exception", repr(res)[:160])
            outcomes.append(Outcome(1, [failure]))
            continue
        pb, rep, cert = res
        outcomes.append(check(inst.label, inst.sign, inst.feasible, f_star, inst.witness,
                              rep, pb.rho, cert))
        e = rep.entries.get("maxcut_shor_min")
        if e is not None and e.status in ("Converged", "IterationLimit") and e.raw:
            shor.append((inst.sign.n, e.inflation / rep.scale / abs(e.raw)))
    return Pass(scaled, wall, times, outcomes, shor)


def pass_count(workload, seconds) -> int:
    """Passes for a run of `seconds`; at least one."""
    return max(1, round(PASSES[workload] * seconds / NOMINAL_SECONDS))


def _fraction(hits, total):
    # every workload has members of each population; none means all failed
    return hits / total if total else 0.0


def end_to_end(passes, setup_s) -> dict:
    import numpy as np

    outs = [o for p in passes for o in p.outcomes]
    times = [t for p in passes for t in p.times]
    attempted = sum(o.attempted for o in outs)
    failed = sum(len(o.failures) for o in outs)
    rounding = [o.optimal for o in outs if o.optimal is not None]
    infeasible = [o.certified for o in outs if not o.feasible]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "report_s_p50": (float(np.percentile(times, 50)), "s"),
        "report_s_p80": (float(np.percentile(times, 80)), "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "rounding_optimal_frac": (_fraction(sum(rounding), len(rounding)), "ratio"),
        "converged_frac": (_fraction(sum(o.converged for o in outs),
                                     sum(o.solver_entries for o in outs)), "ratio"),
        "infeasible_certified_frac": (_fraction(sum(infeasible), len(infeasible)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Per-layer counts and times per traced pass; times scaled like the passes.

    Layers that some workload never calls get a share of the traced pass
    time instead (see PARTIAL_RELAXATIONS).
    """
    import numpy as np

    k = len(traced)
    scale = statistics.fmean(p.wall / p.raw_wall for p in traced)
    share = lambda seconds: seconds / sum(p.raw_wall for p in traced)
    total, own = tracer.total_seconds(), tracer.self_seconds()
    solves = tracer.solves
    nonneg = [s for s in solves if s["cone"] == "psd_nonneg"]
    iters = sum(s["iterations"] for s in solves)
    by_cone = lambda cone: sum(s["iterations"] for s in solves if s["cone"] == cone)
    status = lambda st: sum(s["status"] == st for s in solves)
    finite = [s["primal_residual"] for s in solves if np.isfinite(s["primal_residual"])]
    largest = max((n for p in traced for n, _ in p.shor), default=None)
    rel = [r for p in traced for n, r in p.shor if n == largest]
    m = {
        "sdp.solves": (len(solves) / k, "count"),
        "sdp.psd_projections": (tracer.calls["sdp.project_psd"] / k, "count"),
        "sdp.psd_projections_per_iter": (tracer.calls["sdp.project_psd"] / max(iters, 1), "ratio"),
        "sdp.psd_projections_per_iter_nonneg": (
            sum(s["psd_projections"] for s in nonneg) / max(by_cone("psd_nonneg"), 1), "ratio"),
        "sdp.iterations_psd": (by_cone("psd") / k, "count"),
        "sdp.iterations_psd_nonneg": (by_cone("psd_nonneg") / k, "count"),
        "sdp.status_converged": (status("Converged") / k, "count"),
        "sdp.status_iteration_limit": (status("IterationLimit") / k, "count"),
        "sdp.status_diverged": (status("Diverged") / k, "count"),
        "sdp.primal_residual_p50": (statistics.median(finite) if finite else 0.0, "1"),
        "sdp.sigma_p50": (statistics.median(s["sigma"] for s in solves) if solves else 0.0, "1"),
        "sdp.solve_sdp_s": (total["sdp.solve_sdp"] / k, "s"),
        "sdp.project_psd_s": (tracer.seconds["sdp.project_psd"] / k, "s"),
        "sdp.project_psd_nonneg_share": (share(tracer.seconds["sdp.project_psd_nonneg"]),
                                         "ratio"),
        "sdp.certified_diag_bound_s": (total["sdp.certified_diag_bound"] / k, "s"),
        "sdp.shor_rel_inflation_max_n": (max(rel) if rel else 0.0, "ratio"),
        "penalty.rho_s": (total["penalty.rho"] / k, "s"),
    }
    m["relaxations.shor_maxcut_self_s"] = (own["relaxations.shor_maxcut"] / k, "s")
    for name in PARTIAL_RELAXATIONS:
        m[f"relaxations.{name}_self_share"] = (share(own[f"relaxations.{name}"]), "ratio")
    outs = [o for p in traced for o in p.outcomes]
    brackets = [o.bracket for o in outs if o.bracket is not None]
    m.update({
        "relaxations.unsound_entries": (sum(f.kind.startswith("unsound") for o in outs
                                            for f in o.failures) / k, "count"),
        "relaxations.solve_lp_share": (share(total["relaxations.solve_lp"]), "ratio"),
        "bounds.gw_round_s": (total["bounds.gw_round"] / k, "s"),
        "bounds.certify_s": (total["bounds.certify"] / k, "s"),
        "bounds.shor_bracket_rel": (statistics.median(brackets) if brackets else 0.0, "ratio"),
        "instances.brute_force_share": (share(total["instances.brute_force"]), "ratio"),
        "reduction.homogenize_s": (total["reduction.homogenize"] / k, "s"),
        "model.to_zero_one_share": (share(total["model.to_zero_one"]), "ratio"),
    })
    m = {name: (value * scale if unit == "s" else value, unit)
         for name, (value, unit) in m.items()}
    m["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                             - statistics.median(p.wall for p in untraced), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "maxcut_bridge" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    import workloads
    from speed import SpeedProbe

    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)

    probe = SpeedProbe()
    setup = []
    for _ in range(SETUP_REPEATS):
        since = len(probe.samples)
        probe.sample()
        t = time.perf_counter()
        wl = workloads.BUILDERS[args.workload](args.seed)
        refs = [oracle.enumerate_optimum(i.sign) if i.sign.n <= oracle.ENUM_MAX_N else None
                for i in wl.instances]
        seconds = time.perf_counter() - t + import_seconds()
        probe.sample()
        setup.append(seconds * probe.factor(since))
    setup_s = statistics.median(setup)

    if args.trace:
        from tracing import Tracer
        tracer = Tracer(clock=lambda: time.perf_counter() - probe.spent)
        count = pass_count(args.workload, args.seconds / 2)
        with probe:
            untraced = [run_pass(wl, refs, probe=probe) for _ in range(count)]
            tracer.install()
            try:
                traced = [run_pass(wl, refs, tracer, probe) for _ in range(count)]
            finally:
                tracer.remove()
        passes = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
    else:
        with probe:
            passes = [run_pass(wl, refs, probe=probe)
                      for _ in range(pass_count(args.workload, args.seconds))]
        metrics = end_to_end(passes, setup_s)

    outs = [o for p in passes for o in p.outcomes]
    failures = [f for o in outs for f in o.failures]
    print(json.dumps({"failures": Counter(f"{f.op}:{f.kind}" for f in failures),
                      "first": [vars(f) for f in failures[:10]]}), flush=True)
    print(json.dumps({"raw_wall_s": [p.raw_wall for p in passes],
                      "speed_factor": [p.wall / p.raw_wall for p in passes],
                      "probe_samples": len(probe.samples)}), flush=True)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"environment": env, "spans": tracer.spans, "solves": tracer.solves,
                       "calls": tracer.calls, "failures": [vars(f) for f in failures]}, fh)
    print(json.dumps({
        "correct": all(f.known for f in failures),
        "attempted": sum(o.attempted for o in outs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
