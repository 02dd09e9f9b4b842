"""Benchmark schemes, parameter sweeps and result persistence.

Seven schemes are compared throughout: jointly optimized positions and
beamforming (MA_OB), optimized positions with zero-forcing (MA_ZF), the
best of randomly drawn feasible placements under either beamformer
(RAP_OB / RAP_ZF), a conventional fixed half-wavelength array under either
beamformer (FPA_OB / FPA_ZF), and matched-filter beamforming with
position-only optimization (MA_MRT).
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .ascent import BisectionResult, OptimizerParams, bisection_outage_min
from .model import (
    SystemConfig,
    feasible_region,
    mrt_beamformer,
    random_feasible_positions,
)
from .surrogate import LinearFitTable
from .zf import pgd_solve, screened_outage, zf_beamformer, zf_outage

PI = np.pi


class SchemeId(str, Enum):
    MA_OB = "MA_OB"
    MA_ZF = "MA_ZF"
    RAP_OB = "RAP_OB"
    RAP_ZF = "RAP_ZF"
    FPA_OB = "FPA_OB"
    FPA_ZF = "FPA_ZF"
    MA_MRT = "MA_MRT"


@dataclass
class SchemeResult:
    p_out: float
    w: np.ndarray
    x: np.ndarray
    iterations: int
    eps: float | None = None
    detail: BisectionResult | None = None
    trace: list | None = None


def fpa_positions(cfg: SystemConfig) -> np.ndarray:
    """Conventional fixed array: half-wavelength spacing starting at 0."""
    return 0.5 * cfg.wavelength * np.arange(cfg.n_antennas, dtype=float)


def run_scheme(
    scheme: SchemeId | str,
    cfg: SystemConfig,
    seed: int = 0,
    restarts: int = 100,
    params: OptimizerParams | None = None,
    table: LinearFitTable | None = None,
    keep_trace: bool = False,
) -> SchemeResult:
    """Evaluate one benchmark scheme on one scenario.

    ``seed`` only matters for the random-placement schemes, which draw
    ``restarts`` independent feasible placements and keep the best outage
    (the first best on ties); RAP_ZF drops draws whose steering Gram matrix
    fails the zero-forcing condition check and raises only if none is left.
    Schemes that run the confidence bisection report its certified eps.
    """
    scheme = SchemeId(scheme)
    params = params or OptimizerParams()
    region = feasible_region(cfg)

    def from_bisection(res: BisectionResult) -> SchemeResult:
        return SchemeResult(p_out=res.p_out, w=res.w, x=res.x,
                            iterations=res.total_iterations, eps=res.eps,
                            detail=res, trace=res.best_trace)

    if scheme is SchemeId.MA_OB:
        return from_bisection(bisection_outage_min(
            cfg, table, params, mode="joint", keep_trace=keep_trace))

    if scheme is SchemeId.MA_MRT:
        return from_bisection(bisection_outage_min(
            cfg, table, params, mode="positions_mrt", keep_trace=keep_trace))

    if scheme is SchemeId.FPA_OB:
        x = fpa_positions(cfg)
        return from_bisection(bisection_outage_min(
            cfg, table, params, w0=mrt_beamformer(x, cfg), x0=x,
            mode="beam_only", keep_trace=keep_trace))

    if scheme is SchemeId.FPA_ZF:
        x = fpa_positions(cfg)
        return SchemeResult(p_out=zf_outage(x, cfg), w=zf_beamformer(x, cfg),
                            x=x, iterations=0)

    if scheme is SchemeId.MA_ZF:
        res = pgd_solve(region.midpoints(), cfg, params, keep_trace=keep_trace)
        return SchemeResult(p_out=zf_outage(res.x, cfg),
                            w=zf_beamformer(res.x, cfg), x=res.x,
                            iterations=res.n_iter,
                            trace=res.trace if keep_trace else None)

    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    rng = np.random.default_rng(seed)
    if scheme is SchemeId.RAP_OB:
        runs = [bisection_outage_min(cfg, table, params,
                                     w0=mrt_beamformer(x, cfg), x0=x,
                                     mode="beam_only")
                for x in random_feasible_positions(region, rng, restarts)]
        best = from_bisection(min(runs, key=lambda r: r.p_out))  # first wins ties
        best.iterations = sum(r.total_iterations for r in runs)
        return best

    if scheme is SchemeId.RAP_ZF:
        xs = random_feasible_positions(region, rng, restarts)
        usable, p = screened_outage(xs, cfg)
        xs = xs[usable]
        i = int(np.argmin(p))
        return SchemeResult(p_out=float(p[i]), w=zf_beamformer(xs[i], cfg),
                            x=xs[i], iterations=0)

    raise ValueError(f"unhandled scheme {scheme}")


@dataclass
class SweepSpec:
    """One-variable sweep description.

    ``seeds`` are cycled over grid points; the i-th grid point uses
    seeds[i % len(seeds)], so a single-entry list gives every point the
    same base seed while remaining reproducible.
    """

    base: SystemConfig
    variable: str
    grid: list[float]
    schemes: list[SchemeId] = field(
        default_factory=lambda: list(SchemeId))
    seeds: list[int] = field(default_factory=lambda: [0])
    restarts: int = 100
    params: OptimizerParams = field(default_factory=OptimizerParams)


@dataclass
class SweepRow:
    scheme: str
    variable_name: str
    variable_value: float
    p_out: float
    seed: int
    iterations: int
    seconds: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    skipped: list[tuple[str, float, str]] = field(default_factory=list)


def apply_variable(cfg: SystemConfig, name: str, value: float) -> SystemConfig:
    """Scenario with one swept quantity replaced.

    Supported variables: pa_db (power in dB), k (common Rician factor),
    span, rs, n_antennas, n_eves (truncates the per-eve tuples of the base
    config), theta_ratio (first-eve angle as a multiple of theta0; single
    eavesdropper only).
    """
    if name == "pa_db":
        return dataclasses.replace(cfg, pa=float(10.0 ** (value / 10.0)))
    if name == "k":
        return dataclasses.replace(cfg, ks=(float(value),) * cfg.n_eves)
    if name == "span":
        return dataclasses.replace(cfg, span=float(value))
    if name == "rs":
        return dataclasses.replace(cfg, rs=float(value))
    if name == "n_antennas":
        return dataclasses.replace(cfg, n_antennas=int(value))
    if name == "n_eves":
        m = int(value)
        if m > len(cfg.thetas):
            raise ValueError("base config has too few eavesdropper entries")
        return dataclasses.replace(cfg, n_eves=m, thetas=cfg.thetas[:m],
                                   betas=cfg.betas[:m], ks=cfg.ks[:m])
    if name == "theta_ratio":
        if cfg.n_eves != 1:
            raise ValueError("theta_ratio sweeps need a single eavesdropper")
        return dataclasses.replace(cfg, thetas=(float(value) * cfg.theta0,))
    raise ValueError(f"unknown sweep variable {name!r}")


def run_sweep(spec: SweepSpec, table: LinearFitTable | None = None) -> SweepResult:
    """Run every scheme at every grid point, in grid order; deterministic
    given seeds.

    ``table`` is handed to each scheme as is, so without one only the
    optimized-beam schemes fit the default table, once per process.
    Scheme/point combinations whose preconditions fail (e.g. zero-forcing
    without a spare antenna) are skipped and reported instead of raising.
    """
    result = SweepResult(rows=[])
    for i, value in enumerate(spec.grid):
        cfg = apply_variable(spec.base, spec.variable, value)
        seed = spec.seeds[i % len(spec.seeds)]
        for scheme in spec.schemes:
            if scheme in (SchemeId.MA_ZF, SchemeId.RAP_ZF, SchemeId.FPA_ZF) \
                    and cfg.n_antennas < cfg.n_eves + 1:
                result.skipped.append((SchemeId(scheme).value, float(value),
                                       "needs n_antennas >= n_eves + 1"))
                continue
            start = time.perf_counter()
            res = run_scheme(scheme, cfg, seed=seed, restarts=spec.restarts,
                             params=spec.params, table=table)
            result.rows.append(SweepRow(
                scheme=SchemeId(scheme).value, variable_name=spec.variable,
                variable_value=float(value), p_out=res.p_out, seed=seed,
                iterations=res.iterations,
                seconds=time.perf_counter() - start))
    return result


_CSV_HEADER = "scheme,variable_name,variable_value,p_out,seed,iterations,seconds"


def emit_results(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV with a fixed column order.

    Floats are serialized with repr so a read back reproduces the exact
    values; writing the same rows twice yields byte-identical files.
    """
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(f"{r.scheme},{r.variable_name},{r.variable_value!r},"
                     f"{r.p_out!r},{r.seed},{r.iterations},{r.seconds!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_results(path) -> list[SweepRow]:
    """Parse a CSV written by :func:`emit_results`."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"{path}: unrecognized results header")
    rows = []
    for line in lines[1:]:
        scheme, name, value, p, seed, iters, secs = line.split(",")
        rows.append(SweepRow(scheme=scheme, variable_name=name,
                             variable_value=float(value), p_out=float(p),
                             seed=int(seed), iterations=int(iters),
                             seconds=float(secs)))
    return rows


def base_config(**overrides) -> SystemConfig:
    """Evaluation defaults: unit wavelength/noise/path gains, rs = 3,
    half-wavelength minimum spacing."""
    values = dict(
        n_antennas=5, n_eves=1, theta0=PI / 4, thetas=(1.1 * PI / 4,),
        beta0=1.0, betas=(1.0,), ks=(4.0,), pa=10.0 ** 1.5, sigma2=1.0,
        rs=3.0, wavelength=1.0, span=4.0, dmin=0.5)
    values.update(overrides)
    return SystemConfig(**values)


def preset(name: str) -> SystemConfig:
    """Named demo scenarios used in the docs and the acceptance suite."""
    if name == "ob-demo":
        return base_config(pa=10.0 ** 2.5, span=4.0)
    if name == "zf-demo-far":
        return base_config(n_eves=2, thetas=(1.7 * PI / 4, 1.8 * PI / 4),
                           betas=(1.0, 1.0), ks=(4.0, 4.0), span=4.0)
    if name == "zf-demo-near":
        return base_config(n_eves=2, thetas=(1.5 * PI / 4, 1.6 * PI / 4),
                           betas=(1.0, 1.0), ks=(4.0, 4.0), span=4.0)
    if name == "k-sweep":
        return base_config(span=3.0)
    if name == "m-sweep":
        ratios = (1.15, 1.35, 1.4, 1.45, 1.5, 1.55, 1.6)
        return base_config(
            n_antennas=8, n_eves=7, pa=10.0 ** 2.5, span=5.5,
            thetas=tuple(r * PI / 4 for r in ratios),
            betas=(1.0,) * 7, ks=(4.0,) * 7)
    if name == "cdf-demo":
        return base_config(
            n_eves=3, thetas=(PI / 6, PI / 4, PI / 10),
            betas=(1.0, 1.0, 1.0), ks=(1.0, 1.0, 1.0), span=4.0)
    raise ValueError(f"unknown preset {name!r}; available: ob-demo, "
                     "zf-demo-far, zf-demo-near, k-sweep, m-sweep, cdf-demo")


def cdf_check_case(k: float = 1.0):
    """Scenario, placement and beamformer of the distribution check demo."""
    cfg = dataclasses.replace(preset("cdf-demo"), ks=(float(k),) * 3)
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0]) * cfg.wavelength
    w1 = np.array([1 + 1j, 2 + 3j, 2 + 1j, 3 - 1j, 4 + 5j])
    return cfg, x, w1 / np.linalg.norm(w1)


def is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def config_from_dict(raw: dict) -> SystemConfig:
    """Scenario from a mapping with keys named as SystemConfig fields.

    Angles (theta0, thetas) are given as multiples of pi; everything else
    is taken verbatim.  Lists become tuples.  A value of the wrong JSON type
    or a missing or unknown key raises a one-line ValueError.
    """
    if not isinstance(raw, dict):
        raise ValueError("a scenario must be a JSON object")
    raw = dict(raw)
    fields = dataclasses.fields(SystemConfig)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name, value in raw.items():
        if name in ("thetas", "betas", "ks"):
            if not (isinstance(value, (list, tuple))
                    and all(map(is_number, value))):
                raise ValueError(f"{name} must be a list of numbers")
        elif name in ("n_antennas", "n_eves"):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        elif not is_number(value):
            raise ValueError(f"{name} must be a number")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    raw["theta0"] = float(raw["theta0"]) * PI
    raw["thetas"] = tuple(float(v) * PI for v in raw["thetas"])
    for name in ("betas", "ks"):
        raw[name] = tuple(float(v) for v in raw[name])
    return SystemConfig(**raw)


def load_config(path) -> SystemConfig:
    """Read a JSON scenario file; see :func:`config_from_dict` for the schema."""
    return config_from_dict(json.loads(Path(path).read_text()))
