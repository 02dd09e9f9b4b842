"""Command-line front end.

Subcommands:
    fit-table   build and persist the quantile surrogate table
    solve       run one scheme on one scenario
    sweep       run a one-variable sweep described by a JSON spec file
    mc-check    compare the closed-form outage against seeded Monte Carlo
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ascent import write_trace
from .bench import (
    SchemeId,
    SweepRow,
    SweepSpec,
    config_from_dict,
    emit_results,
    is_number,
    load_config,
    preset,
    run_scheme,
    run_sweep,
)
from .model import SystemConfig, feasible_region, mrt_beamformer
from .outage import monte_carlo_outage, secrecy_outage_closed_form
from .surrogate import fit_linear_surrogate, load_table, save_table
from .zf import SingularSteeringError


def _scenario(args) -> SystemConfig:
    if args.config:
        return load_config(args.config)
    if args.preset:
        return preset(args.preset)
    raise ValueError("provide --config FILE or --preset NAME")


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON scenario file (angles in units of pi)")
    p.add_argument("--preset", help="named demo scenario")


def _cmd_fit_table(args) -> int:
    table = fit_linear_surrogate(tau=args.tau, fit_range=(args.lo, args.hi),
                                 n_fit_points=args.points)
    save_table(table, args.out)
    print(f"wrote {table.eps_grid.size} rows to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _scenario(args)
    table = load_table(args.table) if args.table else None
    res = run_scheme(args.scheme, cfg, seed=args.seed, restarts=args.restarts,
                     table=table, keep_trace=bool(args.trace))
    print(f"scheme={args.scheme} p_out={res.p_out:.6f}"
          + (f" eps={res.eps:.4f}" if res.eps is not None else "")
          + f" iterations={res.iterations}")
    print("positions: " + " ".join(f"{v:.6f}" for v in res.x))
    if args.trace:
        if res.trace:
            write_trace(res.trace, args.trace)
            print(f"trace written to {args.trace}")
        else:
            print("no trace available for this scheme", file=sys.stderr)
    if args.out:
        emit_results([SweepRow(scheme=SchemeId(args.scheme).value,
                               variable_name="single", variable_value=0.0,
                               p_out=res.p_out, seed=args.seed,
                               iterations=res.iterations, seconds=0.0)],
                     args.out)
    return 0


def _cmd_sweep(args) -> int:
    raw = json.loads(Path(args.spec).read_text())
    if not isinstance(raw, dict):
        raise ValueError("a sweep spec must be a JSON object")
    missing = [key for key in ("base", "variable", "grid") if key not in raw]
    if missing:
        raise ValueError(f"sweep spec lacks keys: {missing}")
    for key in ("grid", "seeds"):
        values = raw.get(key, [])
        if not (isinstance(values, list) and all(map(is_number, values))):
            raise ValueError(f"sweep spec {key} must be a list of numbers")
    spec = SweepSpec(
        base=config_from_dict(raw["base"]),
        variable=raw["variable"],
        grid=[float(v) for v in raw["grid"]],
        schemes=[SchemeId(s) for s in raw.get("schemes", [s.value for s in SchemeId])],
        seeds=[int(s) for s in raw.get("seeds", [0])],
        restarts=int(raw.get("restarts", 100)),
    )
    table = load_table(args.table) if args.table else None
    result = run_sweep(spec, table=table)
    emit_results(result.rows, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    for scheme, value, reason in result.skipped:
        print(f"skipped {scheme} at {spec.variable}={value}: {reason}",
              file=sys.stderr)
    return 0


def _cmd_mc_check(args) -> int:
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
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--lo", type=float, default=1.0)
    p.add_argument("--hi", type=float, default=100.0)
    p.add_argument("--points", type=int, default=1000)
    p.set_defaults(func=_cmd_fit_table)

    p = sub.add_parser("solve", help="run one scheme on one scenario")
    _add_scenario_args(p)
    p.add_argument("--scheme", required=True,
                   choices=[s.value for s in SchemeId])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--table", help="surrogate table file (default: fit once)")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_mc_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SingularSteeringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
