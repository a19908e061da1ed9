"""Command-line surface: gen, convert, solve, round, compare, certify.

Primary outputs (instance files, rudy/Q artifacts, reports) are byte
deterministic for identical flags: floats are printed with 10 significant
digits, rows follow a fixed order, and wall-clock data only ever goes to the
optional ``--log`` sidecar.  Exit codes: 0 success (including skipped
selectors and Unknown verdicts), 2 usage error, 3 input infeasibility
detected before solving, 4 unexpected solver failure.
"""

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bounds import certify, gw_round, nesterov_sandwich
from .instances import GeneratorSpec
from .model import (
    LE,
    InfeasibleRowError,
    InstanceFormatError,
    SignProgram,
    ZeroOneProgram,
    dumps_instance,
    load_instance,
    save_instance,
    slack_expand,
    to_sign_form,
)
from .penalty import rho as penalty_rho, rho_override
from .reduction import (
    export_q_json,
    export_rudy,
    homogenize,
    penalty_ratio,
    sparsity_graph,
)
from .relaxations import SELECTORS, compute_bounds, shor_maxcut
from .sdp import Sense, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE_INPUT = 3
EXIT_SOLVER_FAILURE = 4

FAMILIES = ("knapsack_fixed", "knapsack_random", "quadratic_knapsack", "kcluster")

_MIN_SENSE_SELECTORS = ("maxcut_shor_min", "lasserre1", "lp_box",
                        "convex_quadratic", "copositive_dnn")


class UsageError(ValueError):
    """Bad flag combination or value: reported on stderr with exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one command execution depends on, resolved from flags."""

    command: str
    instance_path: str | None
    generator: GeneratorSpec | None
    selectors: tuple
    solver: SolverConfig
    dnn_solver: SolverConfig | None
    rho_value: float | None
    fmt: str
    seed: int
    output: str | None
    log_path: str | None


# --- formatting helpers --------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.10g}"
    return str(x)


def _csv_line(cells) -> str:
    out = []
    for cell in cells:
        text = _fmt(cell)
        if any(ch in text for ch in ",\"\n"):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return ",".join(out)


def _table(rows, headers) -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _render_pairs(pairs, fmt) -> str:
    """One key/value record as a json object, a two-line csv, or ``k = v`` lines."""
    if fmt == "json":
        doc = {k: (v.item() if isinstance(v, np.generic) else v) for k, v in pairs}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return (_csv_line([k for k, _ in pairs]) + "\n"
                + _csv_line([v for _, v in pairs]) + "\n")
    return "\n".join(f"{k} = {_fmt(v)}" for k, v in pairs) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _log(cfg: RunConfig, message: str) -> None:
    if cfg.log_path:
        with open(cfg.log_path, "a") as fh:
            fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {cfg.command}: {message}\n")


# --- instance plumbing ---------------------------------------------------------


def _generator_from_args(args) -> GeneratorSpec | None:
    if args.family is None:
        return None
    if args.n is None:
        raise UsageError("--family requires --n")
    return GeneratorSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        b=args.b,
        k=args.k,
        s=args.s,
        f_density=args.f_density,
        zero_prob=args.zero_prob,
    )


def _generate(spec: GeneratorSpec):
    prog = spec.generate()
    if isinstance(prog, tuple):  # kcluster yields (0/1 program, sign form)
        prog = prog[1]
    return prog


def _resolve_program(cfg: RunConfig):
    """Load or generate the instance named by the run configuration."""
    if cfg.instance_path is not None:
        return load_instance(cfg.instance_path)
    return _generate(cfg.generator)


def _as_sign_program(prog) -> SignProgram:
    """Normalize any instance to the sign domain, expanding LE rows first."""
    if isinstance(prog, SignProgram):
        return prog
    if isinstance(prog, ZeroOneProgram):
        if LE in prog.row_sense:
            prog = slack_expand(prog)
        return to_sign_form(prog)
    raise UsageError(f"unsupported instance type {type(prog).__name__}")


def _penalty(sign: SignProgram, cfg: RunConfig):
    if cfg.rho_value is not None:
        return rho_override(cfg.rho_value)
    return penalty_rho(sign.c, sign.F, cfg.solver)


# --- subcommands ----------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.generator is None:
        raise UsageError("gen requires --family and its parameters")
    prog = _resolve_program(cfg)
    spec = cfg.generator
    if cfg.output is None:
        sys.stdout.write(dumps_instance(prog))
        target = "-"
    else:
        save_instance(prog, cfg.output)
        target = cfg.output
    digest = (f"family={spec.family} n={prog.n} m={prog.m} "
              f"seed={spec.seed} path={target}")
    stream = sys.stderr if cfg.output is None else sys.stdout
    stream.write(digest + "\n")
    _log(cfg, digest)
    return EXIT_OK


def cmd_convert(cfg: RunConfig, emit: str) -> int:
    prog = _resolve_program(cfg)
    sign = _as_sign_program(prog)
    pb = _penalty(sign, cfg)
    mc = homogenize(sign, pb)
    if emit == "rudy":
        export_rudy(mc, cfg.output)
    else:
        export_q_json(mc, cfg.output)
    g = sparsity_graph(mc)
    digest = (f"nodes={g.n_nodes} edges={g.n_edges} rho={_fmt(pb.rho)} "
              f"penalty_m={_fmt(pb.penalty_m)} offset={_fmt(sign.offset)} "
              f"scale={_fmt(sign.scale)} penalty_ratio={_fmt(penalty_ratio(mc))} "
              f"path={cfg.output}")
    sys.stdout.write(digest + "\n")
    _log(cfg, digest)
    return EXIT_OK


def _report_rows(report):
    f_star = None
    entry = report.entries.get("brute_force")
    if entry is not None and entry.status == "Exact" and np.isfinite(entry.value):
        f_star = entry.value
    # an optimum within round-off of zero, on the problem's own scale, has no
    # relative delta, as an exact zero has none
    zero = 1e-12 * (abs(report.offset) + report.scale * report.rho_raw)
    rows = []
    for name in SELECTORS:
        if name not in report.entries:
            continue
        e = report.entries[name]
        delta = None
        if f_star is not None and abs(f_star) > zero and np.isfinite(e.value):
            delta = 100.0 * (e.value - f_star) / abs(f_star)
        rows.append([name, e.status, e.value, e.raw, e.inflation, delta, e.note])
    return rows


def _solve_payload(report, cert):
    rows = _report_rows(report)
    headers = ["selector", "status", "value", "raw", "inflation",
               "delta_pct_vs_brute", "note"]
    meta = [
        ("n", report.n),
        ("rho", report.rho_original),
        ("rho_raw", report.rho_raw),
        ("penalty_m", report.penalty_m),
        ("scale", report.scale),
        ("offset", report.offset),
        ("certificate", cert.kind),
    ]
    e_min = report.entries.get("maxcut_shor_min")
    e_max = report.entries.get("maxcut_shor_max")
    if (e_min is not None and e_max is not None
            and e_min.usable and e_max.usable):
        upper = nesterov_sandwich(e_min.value - e_min.inflation,
                                  e_max.value + e_max.inflation)
        meta.append(("sandwich_upper", upper))
    return rows, headers, meta


def _render_solve(report, cert, fmt):
    rows, headers, meta = _solve_payload(report, cert)
    if fmt == "json":
        doc = {
            "meta": {k: v for k, v in meta},
            "entries": {
                r[0]: {
                    "status": r[1],
                    "value": None if r[2] is None or not np.isfinite(r[2]) else r[2],
                    "value_text": _fmt(r[2]),
                    "raw": None if r[3] is None or not np.isfinite(r[3]) else r[3],
                    "inflation": r[4],
                    "delta_pct_vs_brute": r[5],
                    "note": r[6],
                }
                for r in rows
            },
            "certificate": {
                "kind": cert.kind,
                "explanation": cert.explanation,
                "value": cert.value,
                "bound": cert.bound,
                "rho": cert.rho,
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [_csv_line(headers)]
        lines += [_csv_line(r) for r in rows]
        lines += [f"# {k}: {_fmt(v)}" for k, v in meta]
        return "\n".join(lines) + "\n"
    return _table(rows, headers) + "\n\n" + _render_pairs(meta, "table")


def _run_bounds(sign: SignProgram, cfg: RunConfig, pb, selectors,
                gw_trials=0, include_brute_force=None):
    """Every command's bound report is computed through this one call."""
    return compute_bounds(
        sign,
        selectors=list(selectors),
        cfg=cfg.solver,
        pb=pb,
        include_brute_force=include_brute_force,
        gw_trials=gw_trials,
        gw_seed=cfg.seed,
        dnn_cfg=cfg.dnn_solver,
    )


def cmd_solve(cfg: RunConfig, gw_trials: int, no_brute_force: bool) -> int:
    if gw_trials < 0:
        raise UsageError("--gw-trials must be >= 0 (0 means no rounding)")
    prog = _resolve_program(cfg)
    sign = _as_sign_program(prog)
    pb = _penalty(sign, cfg)
    selected = list(cfg.selectors or SELECTORS)
    if not no_brute_force and "brute_force" not in selected:
        selected.append("brute_force")  # reference value when n is small
    report = _run_bounds(sign, cfg, pb, selected, gw_trials=gw_trials,
                         include_brute_force=False if no_brute_force else None)
    cert = certify(report, pb)
    _emit(_render_solve(report, cert, cfg.fmt), cfg.output)
    seconds = sum(e.seconds for e in report.entries.values())
    _log(cfg, f"n={report.n} selectors={len(report.entries)} seconds={seconds:.3f}")
    return EXIT_OK


def cmd_round(cfg: RunConfig, trials: int, polish: bool) -> int:
    if trials < 1:
        raise UsageError("--trials must be >= 1")
    prog = _resolve_program(cfg)
    sign = _as_sign_program(prog)
    pb = _penalty(sign, cfg)
    mc = homogenize(sign, pb)
    res = shor_maxcut(mc, Sense.MIN, cfg.solver)
    if res.status not in ("Converged", "IterationLimit") or res.solution is None:
        sys.stderr.write(f"rounding unavailable: SDP status {res.status}\n")
        return EXIT_SOLVER_FAILURE
    rounding = gw_round(res.solution, mc, trials=trials, seed=cfg.seed,
                        polish=polish)
    rec = rounding.recovered
    pairs = [
        ("x01", "".join(str(int(v)) for v in rec.x_zero_one)),
        ("objective", rec.objective),
        ("feasible", rec.feasible),
        ("cut_value_raw", rounding.value),
        ("shor_min_raw", res.value),
        ("gap_to_shor_raw", rounding.value - (res.value - res.inflation)),
        ("trials", trials),
        ("seed", cfg.seed),
    ]
    _emit(_render_pairs(pairs, cfg.fmt), cfg.output)
    _log(cfg, f"feasible={rec.feasible} objective={_fmt(rec.objective)}")
    return EXIT_OK


def cmd_certify(cfg: RunConfig, trials: int) -> int:
    if trials < 1:
        raise UsageError("--trials must be >= 1")
    prog = _resolve_program(cfg)
    sign = _as_sign_program(prog)
    pb = _penalty(sign, cfg)
    report = _run_bounds(sign, cfg, pb, ["maxcut_shor_min"], gw_trials=trials)
    cert = certify(report, pb)
    pairs = [
        ("verdict", cert.kind),
        ("explanation", cert.explanation),
        ("value", cert.value),
        ("bound", cert.bound),
        ("rho", cert.rho),
        ("point", None if cert.point is None
         else "".join("1" if v > 0 else "0" for v in cert.point)),
    ]
    _emit(_render_pairs(pairs, cfg.fmt), cfg.output)
    _log(cfg, f"verdict={cert.kind}")
    return EXIT_OK


def _sweep_values(args):
    if args.sweep_param is None:
        raise UsageError("compare requires --sweep-param with --sweep-from/--sweep-to")
    if args.sweep_from is None or args.sweep_to is None:
        raise UsageError("compare requires --sweep-from and --sweep-to")
    step = args.sweep_step
    if step <= 0:
        raise UsageError("--sweep-step must be positive")
    values = list(range(args.sweep_from, args.sweep_to + 1, step))
    if not values:
        raise UsageError("empty sweep: no values between --sweep-from and --sweep-to")
    return values


def _compare_row(cfg: RunConfig, param: str, value: int):
    row = {"param": value}
    try:
        prog = _generate(dataclasses.replace(cfg.generator, **{param: value}))
        sign = _as_sign_program(prog)
        pb = _penalty(sign, cfg)
        report = _run_bounds(sign, cfg, pb, cfg.selectors or SELECTORS)
    except (ValueError, np.linalg.LinAlgError) as exc:
        row["error"] = str(exc)
        return row
    row["report"] = report
    return row


def cmd_compare(cfg: RunConfig, args) -> int:
    if cfg.generator is None:
        raise UsageError("compare requires --family generator flags")
    param = args.sweep_param
    values = _sweep_values(args)
    rows = [_compare_row(cfg, param, v) for v in values]

    selectors = list(cfg.selectors or SELECTORS)
    headers = [param]
    for name in selectors:
        headers += [name, f"{name}_raw", f"{name}_status"]
    table_rows = []
    for row in rows:
        out = [row["param"]]
        report = row.get("report")
        for name in selectors:
            if report is None or name not in report.entries:
                out += [None, None, row.get("error", "Missing")]
            else:
                e = report.entries[name]
                out += [e.value, e.raw, e.status]
        table_rows.append(out)

    # win counts: how often the homogenized SDP bound beats each alternative
    summary = []
    if "maxcut_shor_min" in selectors:
        for other in _MIN_SENSE_SELECTORS:
            if other == "maxcut_shor_min" or other not in selectors:
                continue
            wins = total = 0
            for row in rows:
                report = row.get("report")
                if report is None:
                    continue
                a = report.entries.get("maxcut_shor_min")
                b = report.entries.get(other)
                if (a is None or b is None or not (a.usable and b.usable)
                        or not (np.isfinite(a.value) and np.isfinite(b.value))):
                    continue
                total += 1
                if a.value > b.value:
                    wins += 1
            summary.append(f"wins maxcut_shor_min>{other}: {wins}/{total}")
    summary.append(f"rows: {len(rows)}")

    if cfg.fmt == "json":
        doc = {
            "sweep": {"param": param, "values": values},
            "rows": [
                {headers[i]: (None if isinstance(c, float) and not np.isfinite(c)
                              else c)
                 for i, c in enumerate(r)}
                for r in table_rows
            ],
            "summary": summary,
        }
        text = json.dumps(doc, indent=2, sort_keys=True, default=_fmt) + "\n"
    elif cfg.fmt == "table":
        text = _table(table_rows, headers) + "\n" + "\n".join(summary) + "\n"
    else:
        lines = [_csv_line(headers)]
        lines += [_csv_line(r) for r in table_rows]
        lines += [f"# {s}" for s in summary]
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.output)
    _log(cfg, f"rows={len(rows)} param={param}")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


def _add_source_flags(p, with_instance=True):
    if with_instance:
        p.add_argument("--instance", help="path to a JSON instance file")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--f-density", dest="f_density", type=float)
    p.add_argument("--zero-prob", dest="zero_prob", type=float)
    p.add_argument("--seed", type=int, default=0)


def _add_solver_flags(p, with_selectors=False):
    p.add_argument("--eps-abs", type=float, default=SolverConfig.eps_abs)
    p.add_argument("--eps-rel", type=float, default=SolverConfig.eps_rel)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--dnn-max-iter", type=int, default=None,
                   help="separate iteration budget for the doubly-nonnegative solve")
    p.add_argument("--rho", type=float, default=None,
                   help="override the computed penalty bound rho")
    if with_selectors:
        p.add_argument("--selectors", default=None,
                       help="comma-separated subset of: " + ",".join(SELECTORS))


def _add_output_flags(p):
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--log", dest="log_path", default=None,
                   help="sidecar log file (receives timestamps; primary output never does)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxcut-bridge",
        description="Reduce constrained 0/1 programs to MAX-CUT and compare bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    _add_source_flags(p, with_instance=False)
    _add_output_flags(p)

    p = sub.add_parser("convert", help="emit the MAX-CUT form of an instance")
    _add_source_flags(p)
    _add_solver_flags(p)
    p.add_argument("--emit", choices=("rudy", "json"), default="rudy")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--log", dest="log_path", default=None)
    p.set_defaults(format="table")

    p = sub.add_parser("solve", help="run the selected bounds and report")
    _add_source_flags(p)
    _add_solver_flags(p, with_selectors=True)
    _add_output_flags(p)
    p.add_argument("--gw-trials", type=int, default=0)
    p.add_argument("--no-brute-force", action="store_true")

    p = sub.add_parser("round", help="hyperplane-round the SDP solution")
    _add_source_flags(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--polish", action="store_true")

    p = sub.add_parser("compare", help="sweep one generator parameter")
    _add_source_flags(p, with_instance=False)
    _add_solver_flags(p, with_selectors=True)
    _add_output_flags(p)
    p.set_defaults(format="csv")
    p.add_argument("--sweep-param", choices=("b", "k"))
    p.add_argument("--sweep-from", type=int)
    p.add_argument("--sweep-to", type=int)
    p.add_argument("--sweep-step", type=int, default=1)

    p = sub.add_parser("certify", help="feasibility verdict for an instance")
    _add_source_flags(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--trials", type=int, default=200)

    return ap


def _run_config(args) -> RunConfig:
    generator = _generator_from_args(args)
    instance = getattr(args, "instance", None)
    if args.command == "gen":
        if generator is None:
            raise UsageError("gen requires --family")
    elif args.command == "compare":
        if generator is None:
            raise UsageError("compare requires --family")
    else:
        if (instance is None) == (generator is None):
            raise UsageError("provide exactly one instance source: "
                             "--instance PATH or --family flags")

    raw = getattr(args, "selectors", None)
    selectors = ()
    if raw:
        selectors = tuple(s.strip() for s in raw.split(",") if s.strip())
        unknown = [s for s in selectors if s not in SELECTORS]
        if unknown:
            raise UsageError(f"unknown selectors: {unknown}; "
                             f"known: {', '.join(SELECTORS)}")

    solver = SolverConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(SolverConfig)
                             if hasattr(args, f.name)})
    dnn_iter = getattr(args, "dnn_max_iter", None)
    dnn_solver = None if dnn_iter is None else dataclasses.replace(solver, max_iter=dnn_iter)
    return RunConfig(
        command=args.command,
        instance_path=instance,
        generator=generator,
        selectors=selectors,
        solver=solver,
        dnn_solver=dnn_solver,
        rho_value=getattr(args, "rho", None),
        fmt=getattr(args, "format", "table"),
        seed=args.seed,
        output=getattr(args, "output", None),
        log_path=getattr(args, "log_path", None),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _run_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "convert":
            return cmd_convert(cfg, args.emit)
        if args.command == "solve":
            return cmd_solve(cfg, args.gw_trials, args.no_brute_force)
        if args.command == "round":
            return cmd_round(cfg, args.trials, args.polish)
        if args.command == "compare":
            return cmd_compare(cfg, args)
        if args.command == "certify":
            return cmd_certify(cfg, args.trials)
        raise UsageError(f"unknown command {args.command!r}")
    except InfeasibleRowError as exc:
        sys.stderr.write(f"error: instance is infeasible before solving: {exc}\n")
        return EXIT_INFEASIBLE_INPUT
    except np.linalg.LinAlgError as exc:  # subclasses ValueError: catch first
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER_FAILURE
    except (UsageError, InstanceFormatError, ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
