"""The three workloads: inputs made from the seed, one round, its checks.

A round is the same list of operations every time.  Each CLI command is
one operation, and so is each of ob-grid's warm solves; warm replays made
only to check a command are not.  Checks compare every output with a warm
in-process replay through masec's public API and with the independent
oracle, never with stored output.
"""
from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

import oracle

PRESETS = ("ob-demo", "zf-demo-far", "zf-demo-near", "k-sweep", "m-sweep",
           "cdf-demo")
RAP_OB_PRESETS = ("ob-demo", "zf-demo-far", "k-sweep")
RAP_OB_RESTARTS = 100
INFEASIBLE_PA_DB = -20.0
INFEASIBLE_MAX_OUTER = 300   # every probe runs to this cap
# Timed repeats of each RAP_OB solve; each is scaled by its own
# calibration and the median counts.
REPLAYS = 3
MC_TRIALS = 100_000
ZF_RESTARTS = 150
COLD_ZF_RESTARTS = 400


def scenario_dict(cfg) -> dict:
    """Scenario JSON for the CLI: angles as multiples of pi."""
    raw = dataclasses.asdict(cfg)
    raw["theta0"] = cfg.theta0 / math.pi
    raw["thetas"] = [t / math.pi for t in cfg.thetas]
    return raw


def _positions_line(x) -> str:
    return "positions: " + " ".join(f"{v:.6f}" for v in x)


class Workload:
    """Base: ``table_path`` names the surrogate table the set-up writes,
    or is None when the workload needs none."""

    table_path = None

    def __init__(self, h, masec):
        self.h = h
        self.masec = masec
        self.rng = np.random.default_rng([h.seed, 20240403])

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def write_json(self, name: str, data) -> str:
        path = self.h.tmp / name
        path.write_text(json.dumps(data))
        return str(path)

    def check_rows(self, what, rows, expect: list[tuple[str, float]]):
        got = [(r.scheme, r.variable_value) for r in rows]
        if got != expect:
            self.h.check(what, [f"rows {got} != expected {expect}"])

    def check_same(self, what, row, res):
        """A CSV row of the program against a warm run_scheme result."""
        if row.p_out != res.p_out or row.iterations != res.iterations:
            self.h.check(what, [f"row ({row.p_out!r}, {row.iterations}) != "
                                f"warm ({res.p_out!r}, {res.iterations})"])


class ColdStart(Workload):
    """Fresh-process CLI commands on an ob-demo-like scenario."""

    name = "cold-start"

    def __init__(self, h, masec):
        super().__init__(h, masec)
        self.table_path = h.tmp / "table.txt"

    def prepare(self):
        m = self.masec
        base = m.preset("ob-demo")
        self.pa_db = 25.0 + self.rng.uniform(-0.1, 0.1)
        ratio = 1.1 + self.rng.uniform(-0.002, 0.002)
        raw = scenario_dict(base)
        raw["pa"] = 10.0 ** (self.pa_db / 10.0)
        raw["thetas"] = [0.25 * ratio]
        self.config = self.write_json("scenario.json", raw)
        self.cfg = m.load_config(self.config)
        self.solve_seed, self.mc_seed = self.seed(), self.seed()
        self.sweep_grid = [self.pa_db - 1.0, self.pa_db + 1.0]
        self.sweep_schemes = ["FPA_OB", "FPA_ZF"]
        self.spec = self.write_json("sweep.json", {
            "base": raw, "variable": "pa_db", "grid": self.sweep_grid,
            "schemes": self.sweep_schemes, "seeds": [self.solve_seed]})
        self.table = m.load_table(self.table_path)
        self.check_table("set-up table", self.table)

    def check_table(self, what, t):
        self.h.check(what, oracle.check_surrogate(
            t.eps_grid, t.slope, t.intercept, t.fit_lo, t.fit_hi, t.tau,
            t.n_fit_points))

    def round(self):
        m, h, tmp, cfg = self.masec, self.h, self.h.tmp, self.cfg
        out = {k: str(tmp / f"{k}.csv") for k in ("ob", "zf", "obt", "sweep")}
        fitted = str(tmp / "fitted.txt")
        ob = ["solve", "--config", self.config, "--scheme", "MA_OB"]
        zf = ["solve", "--config", self.config, "--scheme", "RAP_ZF",
              "--seed", str(self.solve_seed),
              "--restarts", str(COLD_ZF_RESTARTS)]
        commands = [
            ("ob", "solve-ob", ob + ["--out", out["ob"]], None),
            ("zf", "solve-zf", zf + ["--out", out["zf"]], None),
            ("obt", "solve-ob-table", ob + ["--table", str(self.table_path),
                                            "--out", out["obt"]], None),
            ("fit", "fit-table", ["fit-table", "--out", fitted], None),
            ("mc", "mc-check", ["mc-check", "--config", self.config,
                                "--seed", str(self.mc_seed), "--trials",
                                str(2 * MC_TRIALS)], None),
            ("sweep", "sweep", ["sweep", "--spec", self.spec, "--out",
                                out["sweep"], "--table",
                                str(self.table_path)], out["sweep"]),
        ]
        # One warm replay of each solve after every command samples the
        # machine at six points of the round; the medians count.
        procs, t_ob, t_zf = {}, [], []
        for key, kind, args, csv in commands:
            procs[key] = h.cli(kind, args, csv)
            res_ob, t = h.sample(m, "MA_OB", cfg, table=self.table)
            t_ob.append(t)
            res_zf, t = h.sample(m, "RAP_ZF", cfg, seed=self.solve_seed,
                                 restarts=COLD_ZF_RESTARTS)
            t_zf.append(t)
        h.add_solve_s(t_ob)
        h.add_solve_s(t_zf, rap=True)
        bad = [k for k, p in procs.items() if p.returncode != 0]

        p_outs = [res_ob.p_out, res_zf.p_out, res_ob.p_out]
        for key, res in (("ob", res_ob), ("zf", res_zf), ("obt", res_ob)):
            if key in bad:
                continue
            self.check_same(f"cold-start {key}", m.read_results(out[key])[0],
                            res)
            line = procs[key].stdout.splitlines()[1]
            if line != _positions_line(res.x):
                h.check(f"cold-start {key}", [f"printed {line!r}"])
        h.check("cold-start MA_OB", oracle.check_solution(
            res_ob.w, res_ob.x, cfg, res_ob.p_out))
        h.check("cold-start RAP_ZF", oracle.check_solution(
            res_zf.w, res_zf.x, cfg, res_zf.p_out, zero_forcing=True))
        for i, res in enumerate((res_ob, res_zf)):
            h.check_mc(m, "cold-start solve", res.w, res.x, cfg, res.p_out,
                       2 * MC_TRIALS, self.mc_seed + 1 + i)

        if "fit" not in bad:
            fit = m.load_table(fitted)
            if not all(np.array_equal(getattr(fit, k), getattr(self.table, k))
                       for k in ("eps_grid", "slope", "intercept")):
                h.check("cold-start fit-table", ["differs from set-up fit"])
            self.check_table("cold-start fit-table", fit)

        if "mc" not in bad:
            x = oracle.feasible_midpoints(cfg)
            w = oracle.matched_filter(x, cfg)
            closed = oracle.closed_form_outage(w, x, cfg)
            mc = h.check_mc(m, "cold-start mc-check", w, x, cfg, closed,
                            2 * MC_TRIALS, self.mc_seed)
            want = (f"closed_form={closed:.6f} monte_carlo={mc:.6f} "
                    f"abs_diff={abs(closed - mc):.6f} "
                    f"trials={2 * MC_TRIALS} seed={self.mc_seed}")
            if procs["mc"].stdout.strip() != want:
                h.check("cold-start mc-check",
                        [f"printed {procs['mc'].stdout.strip()!r}, "
                         f"expected {want!r}"])
            p_outs.append(closed)

        if "sweep" not in bad:
            rows = m.read_results(out["sweep"])
            self.check_rows("cold-start sweep", rows, [
                (s, v) for v in self.sweep_grid for s in self.sweep_schemes])
            for row in rows:
                c = m.bench.apply_variable(cfg, "pa_db", row.variable_value)
                res = h.solve(m, row.scheme, c, table=self.table,
                              seed=row.seed)
                self.check_same("cold-start sweep", row, res)
                h.check(f"cold-start sweep {row.scheme}",
                        oracle.check_solution(res.w, res.x, c, res.p_out,
                                              row.scheme == "FPA_ZF"))
                p_outs.append(res.p_out)
        h.end_round(p_outs)


class ObGrid(Workload):
    """Warm solves of the OB schemes on every preset, RAP_OB restarts and
    a provably infeasible power, each checked by the closed form and by
    Monte Carlo; a CLI sweep after each preset cross-checks the API."""

    name = "ob-grid"

    def __init__(self, h, masec):
        super().__init__(h, masec)
        self.table_path = h.tmp / "table.txt"

    def prepare(self):
        m = self.masec
        self.table = m.load_table(self.table_path)
        self.rap_seeds = {p: self.seed() for p in RAP_OB_PRESETS}
        self.mc_seed = self.seed()
        self.cross_schemes = ["MA_OB", "FPA_OB", "MA_MRT"]
        demo = m.preset("ob-demo")
        self.spec = self.write_json("sweep.json", {
            "base": scenario_dict(demo), "variable": "span",
            "grid": [demo.span], "schemes": self.cross_schemes,
            "seeds": [0]})

    def cross_check(self, out: str, demo_sols) -> None:
        """One CLI sweep over ob-demo; its rows must equal the warm ones."""
        m, h = self.masec, self.h
        if h.cli("sweep", ["sweep", "--spec", self.spec, "--out", out,
                           "--table", str(self.table_path)],
                 out).returncode != 0:
            return
        rows = m.read_results(out)
        span = m.preset("ob-demo").span
        self.check_rows("ob-grid sweep", rows,
                        [(s, span) for s in self.cross_schemes])
        for row, (*_, res) in zip(rows, demo_sols):
            self.check_same("ob-grid sweep", row, res)

    def round(self):
        m, h = self.masec, self.h
        sols = []
        out = str(h.tmp / "cross.csv")
        for p in PRESETS:
            cfg = m.preset(p)
            for s in ("MA_OB", "FPA_OB", "MA_MRT"):
                sols.append((p, s, cfg, h.solve(m, s, cfg, table=self.table)))
                h.calibrate()
            # A CLI sweep between presets samples cold_cli_s at six
            # points of the round.
            self.cross_check(out, sols[:3])
        for p in RAP_OB_PRESETS:
            cfg = m.preset(p)
            times = []
            for _ in range(REPLAYS):
                res, t = h.sample(m, "RAP_OB", cfg, table=self.table,
                                  seed=self.rap_seeds[p],
                                  restarts=RAP_OB_RESTARTS)
                times.append(t)
            h.add_solve_s(times, rap=True)
            sols.append((p, "RAP_OB", cfg, res))
        cfg = m.bench.apply_variable(m.preset("ob-demo"), "pa_db",
                                     INFEASIBLE_PA_DB)
        sols.append(("ob-demo@-20dB", "MA_OB", cfg, h.solve(
            m, "MA_OB", cfg, table=self.table,
            params=m.OptimizerParams(max_outer=INFEASIBLE_MAX_OUTER))))
        h.calibrate()
        h.attempted += len(sols)

        for i, (p, s, cfg, res) in enumerate(sols):
            what = f"ob-grid {s} on {p}"
            h.check(what, oracle.check_solution(res.w, res.x, cfg, res.p_out))
            if oracle.provably_infeasible(cfg):
                continue
            h.check_mc(m, what, res.w, res.x, cfg, res.p_out, MC_TRIALS,
                       self.mc_seed + i)
            h.calibrate()
        if not any(oracle.provably_infeasible(c) for _, _, c, _ in sols):
            h.check("ob-grid", ["no provably infeasible case was solved"])
        h.end_round([res.p_out for *_, res in sols])


class ZfSweep(Workload):
    """Fresh-process ZF sweeps without a table, each row re-solved warm."""

    name = "zf-sweep"

    def prepare(self):
        schemes = ["MA_ZF", "RAP_ZF", "FPA_ZF"]
        seed = self.seed()
        spans = [3.0, 3.5, 4.0, 4.5, 5.0, 5.5]
        self.sweeps = []
        for p in ("zf-demo-far", "zf-demo-near"):
            for var in ("n_antennas", "span"):
                grid = ([float(n) for n in range(3, 9)] if var == "n_antennas"
                        else [v + self.rng.uniform(-0.1, 0.1) for v in spans])
                self.sweeps.append(self._spec(p, var, grid, schemes, seed,
                                              ZF_RESTARTS))
        # Fails today: a singular steering matrix at n_eves = 7 (MA_ZF's
        # midpoint start) ends the whole sweep.  Its inputs do not depend
        # on the seed.
        self.sweeps.append(self._spec("m-sweep", "n_eves",
                                      [float(v) for v in range(1, 8)],
                                      ["MA_ZF", "RAP_ZF"], 0, 20))
        self.mc_seed = self.seed()

    def _spec(self, preset, var, grid, schemes, seed, restarts):
        raw = scenario_dict(self.masec.preset(preset))
        n = len(self.sweeps)
        base = self.write_json(f"base-{n}.json", raw)
        spec = self.write_json(f"sweep-{n}.json", {
            "base": raw, "variable": var, "grid": grid, "schemes": schemes,
            "seeds": [seed], "restarts": restarts})
        return {"kind": f"{preset}:{var}", "spec": spec,
                "cfg": self.masec.load_config(base), "var": var,
                "grid": grid, "schemes": schemes, "restarts": restarts,
                "out": str(self.h.tmp / f"sweep-{n}.csv")}

    def round(self):
        m, h = self.masec, self.h
        p_outs = []
        for sw in self.sweeps:
            proc = h.cli(sw["kind"], ["sweep", "--spec", sw["spec"],
                                      "--out", sw["out"]], sw["out"])
            if proc.returncode != 0:
                continue
            rows = m.read_results(sw["out"])
            skipped = {(s, float(v)) for s, v in re.findall(
                r"skipped (\w+) at \w+=([-\d.e]+)", proc.stderr)}
            self.check_rows(f"zf-sweep {sw['kind']}", rows, [
                (s, v) for v in sw["grid"] for s in sw["schemes"]
                if (s, v) not in skipped])
            for i, row in enumerate(rows):
                cfg = m.bench.apply_variable(sw["cfg"], sw["var"],
                                             row.variable_value)
                res = h.solve(m, row.scheme, cfg, rap=row.scheme == "RAP_ZF",
                              seed=row.seed, restarts=sw["restarts"])
                what = (f"zf-sweep {sw['kind']} "
                        f"{row.scheme}@{row.variable_value}")
                self.check_same(what, row, res)
                h.check(what, oracle.check_solution(res.w, res.x, cfg,
                                                    res.p_out, True))
                if i == len(rows) - 1:
                    h.check_mc(m, what, res.w, res.x, cfg, res.p_out,
                               2 * MC_TRIALS, self.mc_seed + i)
                p_outs.append(res.p_out)
            h.calibrate()
        h.end_round(p_outs)


WORKLOADS = {w.name: w for w in (ColdStart, ObGrid, ZfSweep)}
