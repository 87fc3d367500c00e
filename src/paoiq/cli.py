"""Command-line front end.

Subcommands: ``simulate``, ``bound``, ``calibrate``, ``sweep``, ``report``.
Exit codes: 0 success, 1 validation or usage error, 2 runtime/numeric
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys

import numpy as np

from . import calibration, experiments
from .errors import NumericError, ValidationError, check_int, fmt, load_json, parsing, read_fields
from .robust_bounds import (
    METHODS,
    UncertaintyParams,
    kingman_bound,
    paoi_from_system_bound,
    system_bound,
)
from .simulator import SystemParams, replicate
from .stochastic import spec_from_dict


def _defaults(fn) -> dict:
    """The keyword defaults of ``fn``, read from its signature, not repeated here."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = read_fields(load_json(args.config), (
        "n", "sources", "interarrival", "service", "replications",
        "warmup_fraction", "master_seed"), "simulate config")
    # n has no library default
    doc = {"n": 100_000, **_defaults(SystemParams), **_defaults(replicate), **doc}
    with parsing("simulate config"):
        ia_spec = spec_from_dict(doc["interarrival"])
        svc_spec = spec_from_dict(doc["service"])
        params = SystemParams.realized(ia_spec, svc_spec, doc["n"], doc["sources"])
    summary = replicate(params, ia_spec, svc_spec, replications=doc["replications"],
                        warmup_fraction=doc["warmup_fraction"], master_seed=doc["master_seed"])
    src1, src2 = summary.per_source_paoi or ("", "")
    print("sources,lam,mu,n,replications,warmup_fraction,master_seed,"
          "mean_paoi,ci95_paoi,mean_system_time,paoi_source1,paoi_source2,stable")
    print(",".join([
        str(params.sources), fmt(params.lam), fmt(params.mu), str(params.n),
        str(summary.replications), fmt(doc["warmup_fraction"]), str(doc["master_seed"]),
        fmt(summary.mean_paoi), fmt(summary.ci95_paoi), fmt(summary.mean_system_time),
        fmt(src1) if src1 != "" else "", fmt(src2) if src2 != "" else "",
        str(int(summary.stable)),
    ]))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.method not in METHODS:
        raise ValidationError(f"unknown method {args.method!r}; expected one of {METHODS}")
    # checked for every method, as the row echoes them
    unc = UncertaintyParams(args.alpha, args.gamma_a, args.gamma_s)
    check_int(args.n, "n", 1)
    # an enumeration that overflows ends in NumericError, so NumPy's
    # overflow warnings would only repeat it, with a source path
    with np.errstate(all="ignore"):
        if args.method == "kingman":
            if args.var_a is None or args.var_s is None:
                raise ValidationError("kingman needs --var-a and --var-s")
            result = kingman_bound(args.lam, args.mu, args.var_a, args.var_s)
        else:
            result = system_bound(args.method, args.lam, args.mu, args.n, unc)
    paoi = paoi_from_system_bound(result, args.lam)
    print("method,lambda,mu,alpha,gamma_a,gamma_s,n,system_bound,paoi_bound")
    print(",".join([
        args.method, fmt(args.lam), fmt(args.mu), fmt(args.alpha),
        fmt(args.gamma_a), fmt(args.gamma_s), str(args.n),
        fmt(result.value), fmt(paoi),
    ]))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    settings = _defaults(calibration.build_calibration_dataset)
    if args.grid is None:
        grid = experiments.default_calibration_grid(args.scenario)
        grid_file = "builtin-default"
    else:
        # "mu" is read and typed but not used: the laws carry the rates
        doc = read_fields(load_json(args.grid), ("points", "mu", *settings),
                          "calibration grid config")
        grid, grid_file = calibration.grid_from_config(doc), args.grid
        settings.update({k: v for k, v in doc.items() if k not in ("points", "mu")})
    dataset = calibration.build_calibration_dataset(grid, args.scenario, **settings)
    if args.dataset_out:
        calibration.write_dataset_csv(dataset, args.dataset_out)
    theta = calibration.fit_theta(dataset)
    calibration.write_theta_json(
        theta, args.out, {"grid_file": grid_file, "rows": len(dataset), **settings})
    print(f"fitted theta=({fmt(theta.theta0)}, {fmt(theta.theta1)}, {fmt(theta.theta2)}) "
          f"from {len(dataset)} rows -> {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = experiments.config_from_json(load_json(args.config))
    report = experiments.run_sweep(config)
    if all(math.isnan(v) for v in report.error_percents.values()):
        raise NumericError("every grid point failed; no bound could be evaluated")
    experiments.report_csv(report, args.out)
    print(f"wrote {len(report.rows)} rows -> {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = experiments.read_report_csv(getattr(args, "in"))
    print(experiments.report_summary_text(report))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other invalid input; 2 is for numeric errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="paoiq",
        description="Peak age-of-information: FCFS simulation vs robust worst-case bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run replicated simulations from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("bound", help="evaluate one bound; prints a CSV row")
    p.add_argument("--method", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--gamma-a", type=float, default=0.0)
    p.add_argument("--gamma-s", type=float, default=0.0)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--var-a", type=float, default=None, help="interarrival variance (kingman)")
    p.add_argument("--var-s", type=float, default=None, help="service variance (kingman)")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("calibrate", help="fit variability-mapping coefficients")
    p.add_argument("--scenario", required=True, choices=calibration.SCENARIOS)
    p.add_argument("--grid", default=None, help="grid config JSON (default: built-in grid)")
    p.add_argument("--out", required=True, help="output theta JSON path")
    p.add_argument("--dataset-out", default=None, help="also persist the dataset CSV here")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("sweep", help="run a load sweep and write the comparison report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", help="summarize a sweep report CSV")
    p.add_argument("--in", required=True)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
