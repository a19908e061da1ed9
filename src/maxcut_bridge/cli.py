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
import typing

import numpy as np

from .bounds import certify, gw_round, nesterov_sandwich
from .instances import FAMILIES, GeneratorSpec
from .model import (
    InfeasibleRowError,
    InstanceFormatError,
    SignProgram,
    ZeroOneProgram,
    dumps_instance,
    load_instance,
    slack_expand,
    to_sign_form,
)
from .penalty import PenaltyBound, rho as penalty_rho
from .reduction import (
    export_q_json,
    export_rudy,
    homogenize,
    penalty_ratio,
    sparsity_graph,
)
from .relaxations import EXACT, SELECTORS, compute_bounds, shor_maxcut
from .sdp import Sense, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE_INPUT = 3
EXIT_SOLVER_FAILURE = 4

_MIN_SENSE_SELECTORS = ("maxcut_shor_min", "lasserre1", "lp_box",
                        "convex_quadratic", "copositive_dnn")


class UsageError(ValueError):
    """Bad flag combination or value: reported on stderr with exit code 2."""


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


def _json_number(x):
    """JSON has no inf or nan: a non-finite float is written as null."""
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _csv_line(cells) -> str:
    out = []
    for cell in cells:
        text = _fmt(cell)
        if any(ch in text for ch in ",\"\n"):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return ",".join(out)


def _csv_text(headers, rows, notes) -> str:
    """A header line, one line per row, then one ``# note`` line per note."""
    lines = [_csv_line(headers)]
    lines += [_csv_line(r) for r in rows]
    lines += [f"# {note}" for note in notes]
    return "\n".join(lines) + "\n"


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
        return _csv_text([k for k, _ in pairs], [[v for _, v in pairs]], [])
    return "\n".join(f"{k} = {_fmt(v)}" for k, v in pairs) + "\n"


def _log(args, message: str) -> None:
    if args.log_path:
        with open(args.log_path, "a") as fh:
            fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {args.command}: {message}\n")


def _emit(args, text: str, digest: str) -> None:
    """Write a report to ``-o`` or stdout, then its digest to the ``--log`` sidecar."""
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    _log(args, digest)


# --- instance plumbing ---------------------------------------------------------


def _sign_and_penalty(args, generator=None) -> tuple[SignProgram, PenaltyBound]:
    """Load or generate the program (``generator`` overrides the run's source),
    slack-expand its LE rows, bring it to the sign domain and size its penalty."""
    spec = generator or args.generator
    prog = load_instance(args.instance) if spec is None else spec.generate()
    if isinstance(prog, ZeroOneProgram):
        prog = to_sign_form(slack_expand(prog))
    if args.rho is not None:
        return prog, PenaltyBound(rho=args.rho)
    return prog, penalty_rho(prog.c, prog.F)


# --- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = args.generator
    prog = spec.generate()
    digest = (f"family={spec.family} n={prog.n} m={prog.m} "
              f"seed={spec.seed} path={args.output or '-'}")
    _emit(args, dumps_instance(prog), digest)
    (sys.stderr if args.output is None else sys.stdout).write(digest + "\n")
    return EXIT_OK


def cmd_convert(args) -> int:
    sign, pb = _sign_and_penalty(args)
    mc = homogenize(sign, pb)
    if args.emit == "rudy":
        export_rudy(mc, args.output)
    else:
        export_q_json(mc, args.output)
    g = sparsity_graph(mc)
    digest = (f"nodes={g.n_nodes} edges={g.n_edges} rho={_fmt(pb.rho)} "
              f"penalty_m={_fmt(pb.penalty_m)} offset={_fmt(sign.offset)} "
              f"scale={_fmt(sign.scale)} penalty_ratio={_fmt(penalty_ratio(mc))} "
              f"path={args.output}")
    sys.stdout.write(digest + "\n")
    _log(args, digest)
    return EXIT_OK


def _render_solve(report, cert, fmt) -> str:
    f_star = None
    entry = report.entries.get("brute_force")
    if entry is not None and entry.status == EXACT and np.isfinite(entry.value):
        f_star = entry.value
    # an optimum within round-off of zero, on the problem's own scale, has no
    # relative delta, as an exact zero has none
    zero = 1e-12 * (abs(report.offset) + report.scale * report.penalty.rho)
    rows = []
    records = {}
    for name, e in report.entries.items():
        delta = None
        if f_star is not None and abs(f_star) > zero and np.isfinite(e.value):
            delta = 100.0 * (e.value - f_star) / abs(f_star)
        rows.append([name, e.status, e.value, e.raw, e.inflation, delta, e.note])
        records[name] = {
            "status": e.status,
            "value": _json_number(e.value),
            "value_text": _fmt(e.value),
            "raw": _json_number(e.raw),
            "inflation": e.inflation,
            "delta_pct_vs_brute": delta,
            "note": e.note,
        }
    headers = ["selector", "status", "value", "raw", "inflation",
               "delta_pct_vs_brute", "note"]
    meta = [
        ("n", report.n),
        ("rho", report.rho_original),
        ("rho_raw", report.penalty.rho),
        ("penalty_m", report.penalty.penalty_m),
        ("scale", report.scale),
        ("offset", report.offset),
        ("certificate", cert.kind),
    ]
    e_min = report.entries.get("maxcut_shor_min")
    e_max = report.entries.get("maxcut_shor_max")
    if (e_min is not None and e_max is not None
            and e_min.usable and e_max.usable):
        meta.append(("sandwich_upper", nesterov_sandwich(e_min.bound, e_max.bound)))

    if fmt == "json":
        doc = {
            "meta": {k: v for k, v in meta},
            "entries": records,
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
        return _csv_text(headers, rows, [f"{k}: {_fmt(v)}" for k, v in meta])
    return _table(rows, headers) + "\n\n" + _render_pairs(meta, "table")


def _run_bounds(sign: SignProgram, args, pb, selectors,
                gw_trials=0, include_brute_force=True):
    """Every command's bound report is computed through this one call."""
    return compute_bounds(
        sign,
        selectors=list(selectors),
        cfg=args.solver,
        pb=pb,
        include_brute_force=include_brute_force,
        gw_trials=gw_trials,
        gw_seed=args.seed,
        dnn_cfg=args.dnn_solver,
    )


def cmd_solve(args) -> int:
    if args.gw_trials < 0:
        raise UsageError("--gw-trials must be >= 0 (0 means no rounding)")
    sign, pb = _sign_and_penalty(args)
    selected = list(args.selectors or SELECTORS)
    if not args.no_brute_force and "brute_force" not in selected:
        selected.append("brute_force")  # reference value when n is small
    report = _run_bounds(sign, args, pb, selected, gw_trials=args.gw_trials,
                         include_brute_force=not args.no_brute_force)
    cert = certify(report, pb)
    seconds = sum(e.seconds for e in report.entries.values())
    _emit(args, _render_solve(report, cert, args.format),
          f"n={report.n} selectors={len(report.entries)} seconds={seconds:.3f}")
    return EXIT_OK


def cmd_round(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    sign, pb = _sign_and_penalty(args)
    mc = homogenize(sign, pb)
    res = shor_maxcut(mc, Sense.MIN, args.solver)
    if not res.usable:
        sys.stderr.write(f"rounding unavailable: SDP status {res.status}\n")
        return EXIT_SOLVER_FAILURE
    rounding = gw_round(res.solution.X, mc, trials=args.trials, seed=args.seed,
                        polish=args.polish)
    rec = rounding.recovered
    pairs = [
        ("x01", "".join(str(int(v)) for v in rec.x_zero_one)),
        ("objective", rec.objective),
        ("feasible", rec.feasible),
        ("cut_value_raw", rounding.value),
        ("shor_min_raw", res.value),
        ("gap_to_shor_raw", rounding.value - res.bound),
        ("trials", args.trials),
        ("seed", args.seed),
    ]
    _emit(args, _render_pairs(pairs, args.format),
          f"feasible={rec.feasible} objective={_fmt(rec.objective)}")
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    sign, pb = _sign_and_penalty(args)
    report = _run_bounds(sign, args, pb, ["maxcut_shor_min"], gw_trials=args.trials)
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
    _emit(args, _render_pairs(pairs, args.format), f"verdict={cert.kind}")
    return EXIT_OK


def cmd_compare(args) -> int:
    param = args.sweep_param
    if param is None:
        raise UsageError("compare requires --sweep-param with --sweep-from/--sweep-to")
    if args.sweep_from is None or args.sweep_to is None:
        raise UsageError("compare requires --sweep-from and --sweep-to")
    if args.sweep_step <= 0:
        raise UsageError("--sweep-step must be positive")
    values = list(range(args.sweep_from, args.sweep_to + 1, args.sweep_step))
    if not values:
        raise UsageError("empty sweep: no values between --sweep-from and --sweep-to")
    specs = [dataclasses.replace(args.generator, **{param: value}) for value in values]

    # one report per swept value; a row that fails holds its error message
    selectors = list(args.selectors or SELECTORS)
    reports = []
    for spec in specs:
        try:
            sign, pb = _sign_and_penalty(args, spec)
            reports.append(_run_bounds(sign, args, pb, selectors))
        except (ValueError, np.linalg.LinAlgError) as exc:
            reports.append(str(exc))

    headers = [param]
    for name in selectors:
        headers += [name, f"{name}_raw", f"{name}_status"]
    table_rows = []
    for value, report in zip(values, reports):
        out = [value]
        for name in selectors:
            if isinstance(report, str):
                out += [None, None, report]
            else:
                e = report.entries[name]
                out += [e.value, e.raw, e.status]
        table_rows.append(out)

    # win counts: how often the homogenized SDP's certified bound beats each
    # alternative's value, its bound widened back by its inflation: noise is no win
    summary = []
    if "maxcut_shor_min" in selectors:
        for other in _MIN_SENSE_SELECTORS:
            if other == "maxcut_shor_min" or other not in selectors:
                continue
            wins = total = 0
            for report in reports:
                if isinstance(report, str):
                    continue
                a = report.entries["maxcut_shor_min"]
                b = report.entries[other]
                if not (a.usable and b.usable
                        and np.isfinite(a.bound) and np.isfinite(b.bound)):
                    continue
                total += 1
                if a.bound > b.value:
                    wins += 1
            summary.append(f"wins maxcut_shor_min>{other}: {wins}/{total}")
    summary.append(f"rows: {len(reports)}")

    if args.format == "json":
        doc = {
            "sweep": {"param": param, "values": values},
            "rows": [
                {h: _json_number(c) for h, c in zip(headers, r)}
                for r in table_rows
            ],
            "summary": summary,
        }
        text = json.dumps(doc, indent=2, sort_keys=True, default=_fmt) + "\n"
    elif args.format == "table":
        text = _table(table_rows, headers) + "\n" + "\n".join(summary) + "\n"
    else:
        text = _csv_text(headers, table_rows, summary)
    _emit(args, text, f"rows={len(reports)} param={param}")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


def _add_source_flags(p, with_instance=True):
    if with_instance:
        p.add_argument("--instance", help="path to a JSON instance file")
    p.add_argument("--family", choices=FAMILIES)
    for f in dataclasses.fields(GeneratorSpec)[1:]:
        # no default: a flag left out reads None, so a given one can be told apart
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=(typing.get_args(f.type) or (f.type,))[0])  # int | None -> int


def _add_solver_flags(p, with_selectors=False):
    p.add_argument("--eps-abs", type=float, default=SolverConfig.eps_abs)
    p.add_argument("--eps-rel", type=float, default=SolverConfig.eps_rel)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--rho", type=float, default=None,
                   help="override the computed penalty bound rho")
    if with_selectors:  # round and certify run one Shor solve and never the DNN
        p.add_argument("--dnn-max-iter", type=int, default=None,
                       help="separate iteration budget for the doubly-nonnegative solve")
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
    p.set_defaults(run=cmd_gen)
    _add_source_flags(p, with_instance=False)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--log", dest="log_path", default=None)

    p = sub.add_parser("convert", help="emit the MAX-CUT form of an instance")
    _add_source_flags(p)
    p.add_argument("--rho", type=float, default=None,
                   help="override the computed penalty bound rho")
    p.add_argument("--emit", choices=("rudy", "json"), default="rudy")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--log", dest="log_path", default=None)
    p.set_defaults(run=cmd_convert)

    p = sub.add_parser("solve", help="run the selected bounds and report")
    p.set_defaults(run=cmd_solve)
    _add_source_flags(p)
    _add_solver_flags(p, with_selectors=True)
    _add_output_flags(p)
    p.add_argument("--gw-trials", type=int, default=0)
    p.add_argument("--no-brute-force", action="store_true")

    p = sub.add_parser("round", help="hyperplane-round the SDP solution")
    p.set_defaults(run=cmd_round)
    _add_source_flags(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--polish", action="store_true")

    p = sub.add_parser("compare", help="sweep one generator parameter")
    _add_source_flags(p, with_instance=False)
    _add_solver_flags(p, with_selectors=True)
    _add_output_flags(p)
    p.set_defaults(run=cmd_compare, format="csv")
    p.add_argument("--sweep-param", choices=("b", "k"))
    p.add_argument("--sweep-from", type=int)
    p.add_argument("--sweep-to", type=int)
    p.add_argument("--sweep-step", type=int, default=1)

    p = sub.add_parser("certify", help="feasibility verdict for an instance")
    p.set_defaults(run=cmd_certify)
    _add_source_flags(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--trials", type=int, default=200)

    return ap


def _solver_config(fields: dict, max_iter_flag: str = "--max-iter") -> SolverConfig:
    """SolverConfig(**fields), with a value it refuses reported under the flag that set it."""
    try:
        return SolverConfig(**fields)
    except ValueError as exc:
        field, rule = str(exc).split(" ", 1)  # SolverConfig's messages lead with the field
        flag = max_iter_flag if field == "max_iter" else "--" + field.replace("_", "-")
        raise UsageError(f"{flag} {rule}") from None


def _resolve(args) -> None:
    """Check the flags, then attach what every command reads to ``args``:
    ``generator`` (a GeneratorSpec or None), ``selectors`` (a tuple),
    ``solver`` and ``dnn_solver``.  The ``--log`` sidecar is opened here, so
    a path that cannot be appended to fails before any work."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(GeneratorSpec)}
    args.generator = None
    if args.family is not None:
        if args.n is None:
            raise UsageError("--family requires --n")
        args.generator = GeneratorSpec(**{k: v for k, v in flags.items() if v is not None})
    else:  # --seed alone also seeds rounding: round, certify, and solve with --gw-trials
        given = ["--" + k.replace("_", "-") for k, v in flags.items()
                 if v is not None and (k != "seed" or args.command == "convert")]
        if given:
            raise UsageError(f"generator flags need --family: {', '.join(given)}")
        if args.command == "solve" and args.seed is not None and not args.gw_trials:
            raise UsageError("--seed needs --family, or --gw-trials above 0 to seed rounding")
    if args.seed is None:
        args.seed = GeneratorSpec.seed
    if args.command in ("gen", "compare"):
        if args.generator is None:
            raise UsageError(f"{args.command} requires --family")
    elif (args.instance is None) == (args.generator is None):
        raise UsageError("provide exactly one instance source: "
                         "--instance PATH or --family flags")

    raw = getattr(args, "selectors", None) or ""
    args.selectors = tuple(s.strip() for s in raw.split(",") if s.strip())
    unknown = [s for s in args.selectors if s not in SELECTORS]
    if unknown:
        raise UsageError(f"unknown selectors: {unknown}; "
                         f"known: {', '.join(SELECTORS)}")

    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)
              if hasattr(args, f.name)}
    args.solver = _solver_config(fields)
    dnn_iter = getattr(args, "dnn_max_iter", None)
    args.dnn_solver = (None if dnn_iter is None
                       else _solver_config({**fields, "max_iter": dnn_iter}, "--dnn-max-iter"))
    if args.log_path:
        open(args.log_path, "a").close()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return args.run(args)
    except InfeasibleRowError as exc:
        sys.stderr.write(f"error: instance is infeasible before solving: {exc}\n")
        return EXIT_INFEASIBLE_INPUT
    except np.linalg.LinAlgError as exc:  # subclasses ValueError: catch first
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER_FAILURE
    except (UsageError, InstanceFormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
