"""Command-line front end.

Subcommands:
    fit-table   build and persist the quantile surrogate table
    solve       run one scheme on one scenario
    sweep       run a one-variable sweep described by a JSON spec file
    mc-check    compare the closed-form outage against seeded Monte Carlo

A command imports the solver modules it runs when it runs, so
``fit-table`` loads only the table fit (``surrogate``, ``gammainc``) and
``model``, which names the schemes that ``solve --scheme`` offers.
"""
from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

from .model import (SchemeId, SingularSteeringError, SystemConfig,
                    feasible_region, mrt_beamformer)
from .surrogate import (DEFAULT_FIT_RANGE, DEFAULT_N_FIT_POINTS, DEFAULT_TAU,
                        fit_linear_surrogate, load_table, save_table)


def _scenario(args) -> SystemConfig:
    from .bench import load_config, preset
    return (preset(args.preset) if args.config is None
            else load_config(args.config))


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take integers >= 0 only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return int(text)


def _check_writable(*paths) -> None:
    """Fail before any solve when a given output path (not None) is empty,
    its directory is missing or it is a directory, with the error that
    writing the file would raise."""
    for path in (p for p in paths if p is not None):
        try:
            if not path:
                raise OSError(errno.ENOENT, os.strerror(errno.ENOENT))
            if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
                raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
            if os.path.isdir(path):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--config", help="JSON scenario file (angles in units of pi)")
    one.add_argument("--preset", help="named demo scenario")


def _cmd_fit_table(args) -> int:
    _check_writable(args.out)
    table = fit_linear_surrogate(tau=args.tau, fit_range=(args.lo, args.hi),
                                 n_fit_points=args.points)
    save_table(table, args.out)
    print(f"wrote {table.eps_grid.size} rows to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    from .ascent import write_trace
    from .bench import SweepRow, emit_results, run_scheme
    _check_writable(args.out, args.trace)
    cfg = _scenario(args)
    res = run_scheme(args.scheme, cfg, seed=args.seed, restarts=args.restarts,
                     table=args.table)
    print(f"scheme={args.scheme} p_out={res.p_out:.6f}"
          + (f" eps={res.eps:.4f}" if res.eps is not None else "")
          + f" iterations={res.iterations}")
    print("positions: " + " ".join(f"{v:.6f}" for v in res.x))
    if args.trace is not None:
        if res.trace is not None:   # [] (no iteration) writes the header only
            write_trace(res.trace, args.trace)
            print(f"trace written to {args.trace}")
        else:
            print("no trace available for this scheme", file=sys.stderr)
    if args.out is not None:
        emit_results([SweepRow(scheme=args.scheme,
                               variable_name="single", variable_value=0.0,
                               p_out=res.p_out, seed=args.seed,
                               iterations=res.iterations, seconds=0.0)],
                     args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .bench import emit_results, read_json, run_sweep, sweep_spec_from_dict
    _check_writable(args.out)
    spec = sweep_spec_from_dict(read_json(args.spec))
    result = run_sweep(spec, table=args.table)
    emit_results(result.rows, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    for scheme, value, reason in result.skipped:
        print(f"skipped {scheme} at {spec.variable}={value}: {reason}",
              file=sys.stderr)
    return 0


def _cmd_mc_check(args) -> int:
    from .outage import monte_carlo_outage, secrecy_outage_closed_form
    cfg = _scenario(args)
    x = feasible_region(cfg).midpoints()
    w = mrt_beamformer(x, cfg)
    closed = secrecy_outage_closed_form(w, x, cfg)
    mc = monte_carlo_outage(w, x, cfg, n_trials=args.trials, seed=args.seed)
    print(f"closed_form={closed:.6f} monte_carlo={mc:.6f} "
          f"abs_diff={abs(closed - mc):.6f} trials={args.trials} seed={args.seed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masec",
        description="Secrecy outage analysis and optimization for a "
                    "movable-antenna downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-table", help="build the quantile surrogate table")
    p.add_argument("--out", required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--lo", type=float, default=DEFAULT_FIT_RANGE[0])
    p.add_argument("--hi", type=float, default=DEFAULT_FIT_RANGE[1])
    p.add_argument("--points", type=int, default=DEFAULT_N_FIT_POINTS)
    p.set_defaults(func=_cmd_fit_table)

    p = sub.add_parser("solve", help="run one scheme on one scenario")
    _add_scenario_args(p)
    p.add_argument("--scheme", required=True,
                   choices=[s.value for s in SchemeId])
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--table", help="surrogate table file (default: the "
                                   "shipped table that fit-table regenerates)")
    p.add_argument("--out", help="write a one-row CSV result")
    p.add_argument("--trace", help="write the final solve's iteration trace")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="run a sweep described by a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mc-check",
                       help="closed form vs Monte Carlo at the matched-filter "
                            "baseline of a scenario")
    _add_scenario_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_mc_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "table", None) is not None:    # solve and sweep
            args.table = load_table(args.table)         # "" is given too
        return args.func(args)
    except (ValueError, OSError, MemoryError, SingularSteeringError) as exc:
        # bad input, a file error, memory the input asks for (a huge
        # --restarts) or zero-forcing's singular steering
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
