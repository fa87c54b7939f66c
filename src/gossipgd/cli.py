"""Command-line front end: run sweeps, summarize CSVs, tune, inspect spectra."""

from __future__ import annotations

import argparse
import sys

from . import experiment, tuning


def _cmd_run(args) -> int:
    cfg = experiment.load_config(args.config)
    path = experiment.run_experiment(cfg, out_dir=args.out)
    print(path)
    return 0


def _cmd_summarize(args) -> int:
    group_by = tuple(args.group_by.split(",")) if args.group_by else ("n", "m")
    table = experiment.summarize(args.csv, group_by=group_by, slope_axis=args.slope_axis)
    print(table.render())
    return 0


def _cmd_tune(args) -> int:
    plan = tuning.tune_plan(
        n=args.n, m=args.m, r=args.r, gamma=args.gamma, sigma2=args.sigma2, kappa_sq=args.kappa_sq
    )
    print(f"t_stop = {plan.t_stop}")
    print(f"eta = {plan.eta!r}")
    print(f"regime = {plan.regime}")
    print(f"t_star = {plan.t_star}")
    for name, ok in plan.preconditions.items():
        print(f"precondition[{name}] = {'ok' if ok else 'VIOLATED'}")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = experiment.load_config(args.config)
    for n in cfg.sweep_n:  # a repeated n prints again
        P = cfg.gossip[n]
        label = cfg.kind if P.chebyshev_k == 0 else f"{cfg.kind} (chebyshev k={P.chebyshev_k})"
        print(f"n = {n}  [{label}, {cfg.weight_scheme}]")
        print(f"  sigma2 = {P.sigma2!r}")
        print(f"  spectral_gap = {1.0 - P.sigma2!r}")
        print(f"  inverse_gap = {1.0 / (1.0 - P.sigma2)!r}")
        print(f"  degree = {P.degree}")
        print(f"  nonnegative = {P.nonnegative}")
        print("  eigenvalues = " + " ".join(f"{v:.12g}" for v in P.eigenvalues))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossipgd",
        description="Simulate decentralized gradient descent on synthetic spectral regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sweeps in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="summarize one or more results CSVs")
    p_sum.add_argument("csv", nargs="+")
    p_sum.add_argument("--group-by", default=None, help="comma-separated columns (default n,m)")
    p_sum.add_argument("--slope-axis", default=None, choices=("nm", "m", "n"))
    p_sum.set_defaults(func=_cmd_summarize)

    p_tune = sub.add_parser("tune", help="print the stopping rule for one design point")
    p_tune.add_argument("--n", type=int, required=True)
    p_tune.add_argument("--m", type=int, required=True)
    p_tune.add_argument("--r", type=float, required=True)
    p_tune.add_argument("--gamma", type=float, required=True)
    p_tune.add_argument("--sigma2", type=float, required=True)
    p_tune.add_argument("--kappa-sq", type=float, required=True)
    p_tune.set_defaults(func=_cmd_tune)

    p_spec = sub.add_parser("spectrum", help="print gossip spectra for a config's topologies")
    p_spec.add_argument("config")
    p_spec.set_defaults(func=_cmd_spectrum)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
