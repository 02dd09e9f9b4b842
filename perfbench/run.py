"""masec benchmark: one workload per run, checked against an oracle.

Usage (from the root of a masec checkout):

    python3 perfbench/run.py --workload {cold-start,ob-grid,zf-sweep} \
        --seed N --seconds S --trace {0,1}

The run first times the workload's set-up in fresh processes, then repeats
whole rounds of the workload's operations until S seconds have passed.
Every output is checked (see oracle.py and workloads.py).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds, starting and ending untraced; the
difference of their medians is the tracing overhead.  Times are scaled to
a nominal machine speed (see calibrate.py).  Spans go to
``.perfbench_out/spans-<workload>.json``.

masec is imported from ``src/`` of the checkout and nowhere else; without
it the run exits with status 2 before measuring anything.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibrate
import oracle
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


class Harness:
    """State of one benchmark run: paths, counters and timings.

    Raw timings wait in ``_pending`` until the next ``calibrate()``, which
    scales them by the mean machine speed measured before and after them
    (see calibrate.py).
    """

    def __init__(self, root: Path, seed: int, trace: bool):
        self.src = root / "src"
        self.out_dir = root / ".perfbench_out"
        self.tmp = root / ".perfbench_tmp" / str(os.getpid())
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cli_walls: dict[str, list[float]] = defaultdict(list)
        self.sweep_rows = 0
        self.sweep_wall = 0.0
        self.mc_draws = 0
        self.mc_s = 0.0
        self.round_solve_s: list[float] = []
        self.round_rap_s: list[float] = []
        self.p_outs: list[float] = []
        self.speeds: list[float] = []
        self.tracer = tracing.Tracer() if trace else None
        self.tracing = False
        self.child_stats: dict = {}
        self.import_times: list[float] = []
        self.child_dumps: list[dict] = []
        self._solve_s = 0.0
        self._rap_s = 0.0
        self._pending: list[tuple] = []
        self._speed = calibrate.measure()
        self._n_child = 0

    def calibrate(self) -> dict[str, float]:
        """Measure the machine speed and scale the pending timings."""
        now = calibrate.measure()
        f = {k: 0.5 * (self._speed[k] + now[k]) for k in now}
        self._speed = now
        self.speeds.append(f["cli"])
        for kind, raw, *extra in self._pending:
            if kind == "solve":
                self._solve_s += raw * f["small"]
            elif kind == "rap":
                self._rap_s += raw * f["small"]
            elif kind == "mc":
                self.mc_s += raw * f["bulk"]
            elif kind == "cli":
                self.cli_walls[extra[0]].append(raw * f["cli"])
                if extra[1] is not None:
                    self.sweep_rows += extra[1]
                    self.sweep_wall += raw * f["cli"]
        self._pending = []
        return f

    # -- fresh processes -------------------------------------------------
    def setup_probes(self, table_out: Path | None) -> float:
        """Median scaled wall time of fresh-process set-ups, after one
        warm-up."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.src)]
        if table_out is not None:
            cmd.append(str(table_out))
        walls = []
        for i in range(SETUP_PROBES + 1):
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.tmp, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
            speed = self.calibrate()["cli"]
            if i > 0:
                walls.append(wall * speed)
        return statistics.median(walls)

    def cli(self, kind: str, args: list[str], csv: str | None = None):
        """Run one masec command in a fresh process; one operation.  For a
        sweep, ``csv`` names its output, whose rows count toward
        sweep_rows_per_s."""
        if self.tracing:
            self._n_child += 1
            dump = self.tmp / f"child-{self._n_child}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), str(self.src),
                   str(dump), "--", *args]
        else:
            dump = None
            cmd = [sys.executable, "-m", "masec.cli", *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.tmp, env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        self.attempted += 1
        rows = None
        if proc.returncode != 0:
            self.failed += 1
            print(f"failed: masec {' '.join(args[:1])}: "
                  f"{proc.stderr.strip().splitlines()[-1:]}", file=sys.stderr)
        elif csv is not None:
            rows = len(Path(csv).read_text().splitlines()) - 1
        self._pending.append(("cli", wall, kind, rows))
        self.calibrate()
        if dump is not None and dump.exists():
            data = json.loads(dump.read_text())
            tracing.merge_stats(self.child_stats, data["stats"])
            self.import_times.append(data["import_s"])
            self.child_dumps.append({"process": f"{kind}-{self._n_child}",
                                     "absent": data["absent"],
                                     "spans": data["spans"]})
            dump.unlink()
        return proc

    # -- warm in-process work --------------------------------------------
    def solve(self, masec, scheme: str, cfg, rap: bool = False, **kwargs):
        """A warm ``run_scheme`` call, timed into solve_s (and rap_s) at
        the next calibration."""
        start = time.perf_counter()
        res = masec.run_scheme(scheme, cfg, **kwargs)
        elapsed = time.perf_counter() - start
        self._pending.append(("solve", elapsed))
        if rap:
            self._pending.append(("rap", elapsed))
        return res

    def sample(self, masec, scheme: str, cfg, **kwargs):
        """A warm ``run_scheme`` call scaled by its own calibration; the
        caller adds the median of several samples with ``add_solve_s``."""
        start = time.perf_counter()
        res = masec.run_scheme(scheme, cfg, **kwargs)
        elapsed = time.perf_counter() - start
        return res, elapsed * self.calibrate()["small"]

    def add_solve_s(self, samples: list[float], rap: bool = False) -> None:
        self._solve_s += statistics.median(samples)
        if rap:
            self._rap_s += statistics.median(samples)

    def check(self, what: str, problems: list[str]) -> None:
        self.problems.extend(f"{what}: {p}" for p in problems)

    def check_mc(self, masec, what, w, x, cfg, p_out, n_trials, seed):
        """Monte Carlo at (w, x), timed into mc_draws_per_s, checked
        against the closed-form ``p_out``."""
        start = time.perf_counter()
        mc = masec.monte_carlo_outage(w, x, cfg, n_trials=n_trials, seed=seed)
        self._pending.append(("mc", time.perf_counter() - start))
        self.mc_draws += n_trials
        self.check(what, oracle.check_monte_carlo(mc, p_out, n_trials))
        return mc

    def end_round(self, p_outs: list[float]) -> None:
        self.calibrate()
        self.round_solve_s.append(self._solve_s)
        self.round_rap_s.append(self._rap_s)
        self._solve_s = self._rap_s = 0.0
        self.p_outs = p_outs

    # -- results ---------------------------------------------------------
    def end_to_end(self, setup_s: float) -> dict:
        kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        cli = [statistics.median(v) for v in self.cli_walls.values()]
        values = {
            "setup_s": (setup_s, "s"),
            "cold_cli_s": (statistics.fmean(cli), "s"),
            "solve_s": (statistics.median(self.round_solve_s), "s"),
            "rap_s": (statistics.median(self.round_rap_s), "s"),
            "mc_draws_per_s": (self.mc_draws / self.mc_s, "draws/s"),
            "p_out_mean": (statistics.fmean(self.p_outs), "probability"),
            "sweep_rows_per_s": (self.sweep_rows / self.sweep_wall, "rows/s"),
            "peak_rss_mib": (kib / 1024.0, "MiB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _import_masec(src: Path):
    if not (src / "masec" / "__init__.py").is_file():
        raise FileNotFoundError(f"no masec sources under {src}")
    sys.path.insert(0, str(src))
    import masec
    if Path(masec.__file__).resolve().parent != (src / "masec").resolve():
        raise ImportError(f"masec imported from {masec.__file__}, not {src}")
    return masec


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    masec = _import_masec(root / "src")
    h = Harness(root, seed, trace)
    h.tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[workload](h, masec)
        setup_s = h.setup_probes(wl.table_path)
        wl.prepare()
        walls, traced_walls = [], []
        start = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced rounds.
            h.tracing = h.tracer is not None and len(walls) > len(traced_walls)
            if h.tracing:
                h.tracer.install()
            n_speeds = len(h.speeds)
            t0 = time.perf_counter()
            wl.round()
            wall = time.perf_counter() - t0
            if h.tracing:
                h.tracer.uninstall()
            wall *= statistics.fmean(h.speeds[n_speeds:])
            (traced_walls if h.tracing else walls).append(wall)
            print(f"round {len(walls) + len(traced_walls)}"
                  f"{' (traced)' if h.tracing else ''}: {wall:.3f} s scaled",
                  file=sys.stderr)
            if time.perf_counter() - start >= seconds and (
                    h.tracer is None or len(walls) > len(traced_walls) > 0):
                break
        print(f"machine speed factor: median "
              f"{statistics.median(h.speeds):.3f}", file=sys.stderr)
        if h.tracer is None:
            metrics = h.end_to_end(setup_s)
        else:
            stats = json.loads(json.dumps(h.tracer.stats))
            tracing.merge_stats(stats, h.child_stats)
            processes = [{"process": "main", "absent": h.tracer.absent,
                          "spans": h.tracer.spans}] + h.child_dumps
            absent = sorted({a for p in processes for a in p["absent"]})
            if absent:
                print("absent layers: " + ", ".join(absent), file=sys.stderr)
            h.out_dir.mkdir(exist_ok=True)
            tracing.write_spans(h.out_dir / f"spans-{workload}.json",
                                processes)
            n_spans = sum(len(p["spans"]) for p in processes)
            overhead = statistics.median(traced_walls) \
                - statistics.median(walls)
            metrics = tracing.layer_metrics(stats, len(traced_walls),
                                            h.import_times, overhead, n_spans)
    finally:
        shutil.rmtree(h.tmp, ignore_errors=True)
        try:
            h.tmp.parent.rmdir()
        except OSError:
            pass
    for problem in h.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not h.problems, "attempted": h.attempted,
            "failed": h.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'attempted':32s} {result['attempted']:>16d}")
    print(f"{'failed':32s} {result['failed']:>16d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
