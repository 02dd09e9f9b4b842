"""Steadiness check: repeat workloads over seeds and compare spreads with
the bounds in BENCHMARK.json.

Usage (from the root of a masec checkout):

    python3 perfbench/steady.py [--workloads a,b] [--seeds N] [--first S]

Runs ``perfbench/run.py`` once per workload and seed (seeds S .. S+N-1,
``run_seconds`` from BENCHMARK.json, tracing off) and prints, for each
end-to-end metric, the median, the quartiles, the interquartile range as
a share of the median and the metric's bound.  A spread at or above a
third of the bound is flagged "wide"; above the bound, "OVER" (setup_s is
exempt from the spread rule, as only its median is compared).  It also
prints the share of failed operations per run, which must not vary.
Exits 1 if any run fails, reports incorrect output, or a spread is over
its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = ",".join(w["name"] for w in bench["workloads"])
    parser.add_argument("--workloads", default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    bad = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first, args.first + args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                bad = True
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}",
                      file=sys.stderr)
                bad = True
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: failed share per run "
              f"{sorted(str(s) for s in shares)}")
        print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag, bad = "OVER", True
                elif spread >= bound / 3:
                    flag = "wide"
            print(f"{name:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f} {flag}")
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
