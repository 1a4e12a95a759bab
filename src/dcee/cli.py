"""Command-line interface.

Subcommands:
  run      simulate a scenario config and write its CSV trace
  mppt     run the PV scenario with a chosen algorithm (dcee | hc | ic)
  compare  run dcee/hc/ic on one PV scenario and rank them by efficiency
  gains    print the servo gain matrices of a linear scenario

``--out`` receives a run's trace, or the rows before an exit-3 failure.
Exit codes: 0 success, 2 configuration error, 3 numerical/domain failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .errors import ConfigError, NumericalError
from .harness import (compare, emit_csv, load_config, render_comparison,
                      run_scenario, write_plot_script)


def _add_common(parser):
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="write the trace CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcee",
        description="Self-optimising dual control simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario")
    _add_common(run_p)

    mppt_p = sub.add_parser("mppt", help="simulate the PV scenario")
    _add_common(mppt_p)
    mppt_p.add_argument("--algo", choices=("dcee", "hc", "ic"), default=None,
                        help="override the configured tracking algorithm")

    cmp_p = sub.add_parser("compare", help="rank dcee/hc/ic on one PV scenario")
    cmp_p.add_argument("--config", required=True, help="scenario JSON file")
    cmp_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    cmp_p.add_argument("--out", default=None, help="write the table as CSV")

    gains_p = sub.add_parser("gains", help="print servo gain matrices")
    gains_p.add_argument("--config", required=True, help="scenario JSON file")
    return parser


def _cmd_run(args, algo=None) -> int:
    cfg = load_config(args.config)
    if args.command == "mppt" and cfg.kind != "mppt":
        raise ConfigError("mppt requires an mppt scenario")
    cfg = cfg.with_updates(seed=args.seed, algo=algo)
    if cfg.kind == "quadratic-linear":
        _print_gains(cfg)
    try:
        trace = run_scenario(cfg)
    except NumericalError as exc:
        if args.out:
            emit_csv(exc.trace, args.out)
        raise
    if args.out:
        emit_csv(trace, args.out)
        script = write_plot_script(args.out, cfg.kind)
        print(f"trace written to {args.out} ({trace.n_rows} rows); "
              f"plot script {script}")
    else:
        last = trace.n_rows - 1
        summary = ", ".join(f"{c}={trace.values[c][last]:.6g}"
                            for c in trace.columns[:8])
        print(f"finished {trace.n_rows} rows; final: {summary}")
    return 0


def _print_gains(cfg) -> None:
    with np.printoptions(precision=12, suppress=True):
        print("Psi =", cfg.gains.Psi.ravel())
        print("G   =", cfg.gains.G.ravel())
        print("K   =", cfg.gains.K.ravel())


def _cmd_gains(args) -> int:
    cfg = load_config(args.config)
    if cfg.kind != "quadratic-linear":
        raise ConfigError("gains requires a quadratic-linear scenario")
    _print_gains(cfg)
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    if cfg.kind != "mppt":
        raise ConfigError("compare requires an mppt scenario")
    cfg = cfg.with_updates(seed=args.seed)
    rows = compare([cfg.with_updates(algo=a) for a in ("dcee", "hc", "ic")])
    print(render_comparison(rows))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algo", "efficiency", "energy_extracted",
                             "energy_max", "power_loss", "steady_state_band"])
            for label, met in rows:
                writer.writerow([label, met.efficiency, met.energy_extracted,
                                 met.energy_max, met.power_loss,
                                 met.steady_state_band])
        print(f"comparison written to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "mppt":
            return _cmd_run(args, algo=args.algo)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_gains(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
