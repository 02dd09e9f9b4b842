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

from .ascent import (BisectionResult, OptimizerParams, bisect_beam_lanes,
                     bisection_outage_min)
from .model import (SystemConfig, admit, check_integer, feasible_region,
                    is_integer, random_feasible_positions)
from .surrogate import LinearFitTable
from .zf import best_of_draws, pgd_solve, zf_solution

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
) -> SchemeResult:
    """Evaluate one benchmark scheme on one scenario.

    ``seed`` only matters for the random-placement schemes, which draw
    ``restarts`` independent feasible placements and keep the best outage
    (the first best on ties); as in a spec, a ``seed`` that is not a
    non-negative integer or ``restarts`` that are not a positive one raise
    a one-line ValueError.
    RAP_ZF drops draws whose steering Gram matrix fails the zero-forcing
    condition check and raises only if none is left.
    Both solve all their draws in one batched call: RAP_OB solves every
    placement as a lane of ``bisect_beam_lanes`` and reports the winning
    lane's bisection, with ``iterations`` summed over all lanes; RAP_ZF
    ranks its draws by the nulling loss, which the outage rises with, and
    evaluates one outage and one beamformer (``best_of_draws``).  Schemes
    that run the confidence bisection report its certified eps; those and
    MA_ZF also return the iteration trace of their final solve.  FPA_ZF
    and MA_ZF read their outage and beamformer off one nulling solve at
    the returned placement (``zf_solution``); for MA_ZF it is the
    descent's last one.
    """
    scheme = SchemeId(scheme)

    def from_bisection(res: BisectionResult) -> SchemeResult:
        return SchemeResult(p_out=res.p_out, w=res.w, x=res.x,
                            iterations=res.total_iterations, eps=res.eps,
                            detail=res, trace=res.best_trace)

    modes = {SchemeId.MA_OB: "joint", SchemeId.MA_MRT: "positions_mrt",
             SchemeId.FPA_OB: "beam_only"}
    if scheme in modes:
        x0 = fpa_positions(cfg) if scheme is SchemeId.FPA_OB else None
        return from_bisection(bisection_outage_min(
            cfg, table, params, x0=x0, mode=modes[scheme]))

    if scheme is SchemeId.FPA_ZF:
        x = fpa_positions(cfg)
        p_out, w = zf_solution(x, cfg)
        return SchemeResult(p_out=p_out, w=w, x=x, iterations=0)

    region = feasible_region(cfg)
    if scheme is SchemeId.MA_ZF:
        res = pgd_solve(region.midpoints(), cfg, params)
        p_out, w = zf_solution(res.x, cfg, res.nulling)
        return SchemeResult(p_out=p_out, w=w, x=res.x, iterations=res.n_iter,
                            trace=res.trace)

    check_integer("restarts", restarts, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    if scheme is SchemeId.RAP_OB:
        runs = bisect_beam_lanes(
            cfg, random_feasible_positions(region, rng, restarts), table,
            params)
        best = from_bisection(min(runs, key=lambda r: r.p_out))  # first wins ties
        best.iterations = sum(r.total_iterations for r in runs)
        return best

    # RAP_ZF
    xs = random_feasible_positions(region, rng, restarts)
    i, p_out, w = best_of_draws(xs, cfg)
    return SchemeResult(p_out=p_out, w=w, x=xs[i], iterations=0)


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep description, checked when it is built.

    The i-th grid point uses seeds[i % len(seeds)].  ``grid``, ``schemes``
    (names or ``SchemeId``s) and ``seeds`` are lists, tuples or 1-D arrays,
    kept as tuples (of floats, ``SchemeId``s and ints), so a built spec
    hashes and cannot change.
    A variable not in SWEEP_VARIABLES, a grid that is not a list of numbers
    (a scenario's list rule), an unknown scheme, no seed or one that is not
    a non-negative integer, or restarts below 1 raises a one-line
    ValueError, and so does a grid value that :func:`apply_variable`
    rejects on ``base``, naming variable and value.
    ``scenarios`` holds the grid's scenarios, in grid order.
    """

    base: SystemConfig
    variable: str
    grid: tuple[float, ...]
    schemes: tuple[SchemeId, ...] = tuple(SchemeId)
    seeds: tuple[int, ...] = (0,)
    restarts: int = 100
    scenarios: tuple[SystemConfig, ...] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        _check_variable(self.variable)
        seeds, schemes = (v.tolist() if isinstance(v, np.ndarray) else v
                          for v in (self.seeds, self.schemes))
        listed = (list, tuple)
        grid = admit("sweep spec grid", self.grid, tuple)
        if not (isinstance(seeds, listed) and seeds
                and all(is_integer(s, 0) for s in seeds)):
            raise ValueError("sweep spec seeds must be a non-empty list of "
                             "non-negative integers")
        names = [s.value for s in SchemeId]
        if not (isinstance(schemes, listed)
                and all(s in names for s in schemes)):
            raise ValueError(
                f"sweep spec schemes must be a list of names from {names}")
        check_integer("sweep spec restarts", self.restarts, 1)
        scenarios = []
        for value in grid:
            try:
                scenarios.append(apply_variable(self.base, self.variable,
                                                value))
            except ValueError as exc:
                raise ValueError(f"sweep spec grid value {self.variable}="
                                 f"{value!r}: {exc}") from None
        for name, value in (("grid", grid), ("seeds", tuple(map(int, seeds))),
                            ("schemes", tuple(map(SchemeId, schemes))),
                            ("scenarios", tuple(scenarios))):
            object.__setattr__(self, name, value)


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


SWEEP_VARIABLES = ("pa_db", "k", "span", "rs", "n_antennas", "n_eves",
                   "theta_ratio")


def _check_variable(name) -> None:
    """Raise a one-line ValueError unless name is in SWEEP_VARIABLES."""
    if name not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {name!r}, "
                         f"expected one of {list(SWEEP_VARIABLES)}")


def apply_variable(cfg: SystemConfig, name: str, value: float) -> SystemConfig:
    """Scenario with one swept quantity replaced.

    Supported variables (SWEEP_VARIABLES): pa_db (power in dB), k (common
    Rician factor), span, rs, n_antennas, n_eves (truncates the per-eve
    tuples of the base config), theta_ratio (first-eve angle as a multiple
    of theta0; single eavesdropper only).  Any other name raises
    ValueError, and so does a value that is not a number in the float
    range.  The two counts take whole numbers only, as ints or integral
    floats such as 3.0; anything else raises ValueError.
    """
    _check_variable(name)
    value = admit(name, value, float)
    if name in ("n_antennas", "n_eves") and not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if name == "pa_db":
        try:
            return dataclasses.replace(cfg, pa=10.0 ** (value / 10.0))
        except OverflowError:
            raise ValueError(f"pa_db={value!r} overflows a float") from None
    if name == "k":
        return dataclasses.replace(cfg, ks=(value,) * cfg.n_eves)
    if name == "span":
        return dataclasses.replace(cfg, span=value)
    if name == "rs":
        return dataclasses.replace(cfg, rs=value)
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
        return dataclasses.replace(cfg, thetas=(value * cfg.theta0,))


def run_sweep(spec: SweepSpec, table: LinearFitTable | None = None) -> SweepResult:
    """Run every scheme at every grid point, in grid order; deterministic
    given seeds.

    ``table`` is handed to each scheme as is, so without one only the
    optimized-beam schemes read the default table, once per process.  A
    scheme's ``ValueError`` at a point (zero-forcing without a spare antenna)
    skips that row, recorded with its message; any other error ends the run.
    """
    result = SweepResult(rows=[])
    for i, (value, cfg) in enumerate(zip(spec.grid, spec.scenarios)):
        seed = spec.seeds[i % len(spec.seeds)]
        for scheme in spec.schemes:
            start = time.perf_counter()
            try:
                res = run_scheme(scheme, cfg, seed=seed,
                                 restarts=spec.restarts, table=table)
            except ValueError as exc:
                result.skipped.append((scheme.value, value, str(exc)))
                continue
            result.rows.append(SweepRow(
                scheme=scheme.value, variable_name=spec.variable,
                variable_value=value, p_out=res.p_out, seed=seed,
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
    """Parse a CSV written by :func:`emit_results`; errors name file and row."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"{path}: unrecognized results header")
    rows = []
    for n, line in enumerate(lines[1:], 1):
        try:
            scheme, name, value, p, seed, iters, secs = line.split(",")
            rows.append(SweepRow(scheme, name, float(value), float(p),
                                 int(seed), int(iters), float(secs)))
        except ValueError:
            raise ValueError(f"{path}: row {n} is not a results row: "
                             f"{line.strip()!r}") from None
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


def config_from_dict(raw: dict) -> SystemConfig:
    """Scenario from a JSON object with keys named as SystemConfig fields.

    Angles (theta0, thetas) are given as multiples of pi.  A value that is
    not an object, an unknown or missing key, or a value that
    :func:`model.admit` rejects (named before any missing key) raises a
    one-line ValueError; the scenario checks the rest.
    """
    if not isinstance(raw, dict):
        raise ValueError("a scenario must be a JSON object")
    fields = dataclasses.fields(SystemConfig)
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    raw = {name: admit(name, value) for name, value in raw.items()}
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"missing config keys: {missing}")
    raw["theta0"] *= PI
    raw["thetas"] = tuple(v * PI for v in raw["thetas"])
    return SystemConfig(**raw)


def sweep_spec_from_dict(raw: dict) -> SweepSpec:
    """Sweep from a mapping with keys base (a scenario, see
    :func:`config_from_dict`), variable and grid, and optionally schemes,
    seeds and restarts, checked as :class:`SweepSpec` checks them: a spec
    that is not a JSON object, a missing key or a value the spec rejects
    raises a one-line ValueError, before any row is solved."""
    if not isinstance(raw, dict):
        raise ValueError("a sweep spec must be a JSON object")
    missing = [key for key in ("base", "variable", "grid") if key not in raw]
    if missing:
        raise ValueError(f"sweep spec lacks keys: {missing}")
    return SweepSpec(config_from_dict(raw["base"]), **{
        key: raw[key] for key in ("variable", "grid", "schemes", "seeds",
                                  "restarts") if key in raw})


def read_json(path):
    """The JSON in a file; malformed JSON raises a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_config(path) -> SystemConfig:
    """Read a JSON scenario file; see :func:`config_from_dict` for the schema."""
    return config_from_dict(read_json(path))
