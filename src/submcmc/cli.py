"""Command-line entry point.

Exit codes: 0 success, 2 invalid configuration or input data (non-finite
numbers, unreadable data files and control-variate cache failures
included), 3 runtime sampler error.
Output directory defaults to $SUBMCMC_OUTPUT_DIR, then ./submcmc_runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .diagnostics import IACT_METHODS, summarize, write_summary_csv
from .errors import CacheBuildError, ConfigError, CsvParseError, DomainError, SamplerError
from .experiments import (
    OUTPUT_DIR_ENV,
    apply_overrides,
    config_comment,
    figure1_table,
    figure234_tables,
    figure5_study,
    parse_config_file,
    parse_floats,
    parse_ints,
    plan_table,
    read_trace_csv,
    run_experiment,
)
from .models import save_dataset, simulate_poisson, write_csv


def _default_out():
    return os.environ.get(OUTPUT_DIR_ENV, "submcmc_runs")


def cmd_simulate(args) -> int:
    dataset = simulate_poisson(args.n, parse_floats(args.theta, "theta"),
                               covariate_law=args.law, seed=args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out} (n={dataset.n}, p={dataset.p})")
    return 0


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    cfg = apply_overrides(cfg, args.set)
    out_dir = args.out or _default_out()
    paths = run_experiment(cfg, out_dir)
    print(f"run complete: {paths['out_dir']}")
    return 0


def cmd_plan(args) -> int:
    cfg = parse_config_file(args.config) if args.config else {}
    cfg = apply_overrides(cfg, args.set)
    rows = plan_table(cfg, targets=parse_floats(args.targets, "targets"))
    out = args.out or os.path.join(_default_out(), "plan.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    header = ["target", "sigma2_d", "m", "wor_m", "degenerate", "floored"]
    write_csv(out, header, [[row[c] for row in rows] for c in header],
              config_comment({k: cfg[k] for k in sorted(cfg)}))
    print(f"wrote {out}")
    return 0


def cmd_diagnose(args) -> int:
    trace = read_trace_csv(args.trace)
    rows = summarize(trace, burn_in=args.burn_in, method=args.method)
    out = args.out or os.path.splitext(args.trace)[0] + "_summary.csv"
    write_summary_csv(rows, out,
                      header_comment=config_comment({"trace": args.trace,
                                                     "burn_in": args.burn_in,
                                                     "method": args.method}))
    print(f"wrote {out}")
    return 0


def _log_grid(text: str) -> np.ndarray:
    """The integers of a LO:HI:COUNT log grid; LO, HI and COUNT positive."""
    fields = text.split(":")
    try:
        (lo, hi), (count,) = parse_floats(",".join(fields[:2])), parse_ints(fields[2])
        if len(fields) != 3 or min(lo, hi, count) <= 0:
            raise ValueError(text)
    except (IndexError, ValueError):
        raise ConfigError("n-grid", f"expected positive LO:HI:COUNT, got {text!r}") from None
    return np.unique(np.logspace(np.log10(lo), np.log10(hi), count).astype(int))


def cmd_figure1(args) -> int:
    n_grid = _log_grid(args.n_grid) if args.n_grid else None
    rows = figure1_table(n_grid=n_grid, sigma2_values=parse_floats(args.sigma2, "sigma2"),
                         target=args.target)
    out = args.out or os.path.join(_default_out(), "figure1.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    header = ["sigma2_pop", "n", "fraction", "m"]
    write_csv(out, header, [[row[c] for row in rows] for c in header],
              config_comment({"sigma2": args.sigma2, "target": args.target,
                              "n_grid": args.n_grid or "default"}))
    print(f"wrote {out}")
    return 0


def cmd_figure234(args) -> int:
    pairs, panels = figure234_tables(
        cv_kind=args.cv, radius_list=parse_floats(args.radii, "radii"),
        order_list=parse_ints(args.orders, "orders"),
        K_list=parse_ints(args.centroids, "centroids"), seed=args.seed)
    out_dir = args.out or _default_out()
    os.makedirs(out_dir, exist_ok=True)
    comment = config_comment({"cv": args.cv, "radii": args.radii, "orders": args.orders,
                              "centroids": args.centroids, "seed": args.seed})
    for name, rows, header in [
            ("pairs", pairs, ["cv", "order", "centroids", "radius", "i", "ell", "q"]),
            ("panels", panels, ["cv", "order", "centroids", "radius", "m_opt", "sigma2_d"])]:
        write_csv(os.path.join(out_dir, f"figure234_{args.cv}_{name}.csv"), header,
                  [[row[c] for row in rows] for c in header], comment)
    print(f"wrote figure234 tables to {out_dir}")
    return 0


def cmd_figure5(args) -> int:
    out_dir = args.out or _default_out()
    figure5_study(sigma2_targets=parse_floats(args.targets, "targets"),
                  n_iter=args.iterations, seed=args.seed, out_dir=out_dir,
                  cv_order=args.cv_order)
    print(f"wrote figure5 tables to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="submcmc",
                                     description="Subsampling MCMC experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Poisson-regression dataset to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True, help="comma-separated true parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--law", default="standard_normal",
                   choices=["standard_normal", "uniform"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="run a configured sampler")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (repeatable)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plan", help="subsample-size planning table")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--targets", default="1.0,3.3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("diagnose", help="summarize a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument("--method", default="geyer_initial_positive", choices=IACT_METHODS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("figure1", help="optimal sampling-fraction curves")
    p.add_argument("--sigma2", default="0.01,0.1")
    p.add_argument("--target", type=float, default=3.3)
    p.add_argument("--n-grid", dest="n_grid", help="LO:HI:COUNT log grid")
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("figure234", help="control-variate accuracy scatter data")
    p.add_argument("--cv", default="param", choices=["param", "data"])
    p.add_argument("--radii", default="0.025,0.1,0.25")
    p.add_argument("--orders", default="0,1,2")
    p.add_argument("--centroids", default="75")
    p.add_argument("--seed", type=int, default=1830)
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure234)

    p = sub.add_parser("figure5", help="variance ladder traces, ACFs and IACTs")
    p.add_argument("--targets", default="0,1,10,50")
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cv-order", type=int, default=0, dest="cv_order")
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CsvParseError, DomainError, CacheBuildError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SamplerError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
