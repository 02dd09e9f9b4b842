"""Linear surrogate of the Gamma quantile in its shape argument.

The outage constraint "1 - P(shape, scaled_thr) <= eps" inverts to
scaled_thr >= quantile(1 - outage level); for bisection on the secrecy
confidence eps we need that quantile as a tractable function of the shape.
For each eps on a uniform grid the map a -> quantile(eps, a) is fitted by
an ordinary least-squares line over a fixed shape window, and the
(slope, intercept) pairs are stored in a small table that can be persisted
as plain text and linearly interpolated between grid points.

The default table ships as ``default_table.txt`` beside this module.  Its
fit uses no numpy transcendental and no LAPACK call, only correctly
rounded arithmetic, libm and ``math.fsum``, so ``masec fit-table`` writes
that file byte for byte on every SIMD dispatch.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .gammainc import inverse_lower_incomplete_gamma
from .model import admit, is_integer

FloatArray = NDArray[np.floating]

_FORMAT_TAG = "masec-surrogate-v1"

DEFAULT_TAU = 0.01
DEFAULT_FIT_RANGE = (1.0, 100.0)
DEFAULT_N_FIT_POINTS = 1000
# the most quantile solves one fit may ask for; the default grid is 99,000
_MAX_FIT_GRID = 10_000_000


def _fit_settings(tau, fit_range, n_fit_points) -> tuple:
    """(tau, fit_lo, fit_hi, n_fit_points) as floats and an int, else a
    one-line ValueError: tau must be a number in (0, 1), the fit range two
    numbers, finite, positive and increasing, and n_fit_points an integer
    (not a bool) of at least 2."""
    tau = admit("tau", tau)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    fit_range = admit("fit_range", fit_range, tuple)
    if not (len(fit_range) == 2 and math.isfinite(fit_range[1])
            and 0.0 < fit_range[0] < fit_range[1]):
        raise ValueError(
            "fit range must be two numbers, finite, positive and increasing")
    if not is_integer(n_fit_points, 2):
        raise ValueError("n_fit_points must be an integer of at least 2")
    return (tau, *fit_range, int(n_fit_points))


@dataclass(frozen=True)
class LinearFitTable:
    """Per-eps linear models quantile(eps, a) ~ slope(eps) * a + intercept(eps).

    The grid starts at tau, not 0: at eps = 0 the quantile is identically
    zero, whose exact fit (0, 0) is handled as a virtual anchor by
    ``surrogate_lookup`` instead of a stored row, keeping every stored slope
    strictly positive; a table with a nonpositive slope is rejected, since
    the solver's margin bound assumes positive slopes.  Slopes and
    intercepts are nondecreasing in eps.

    Built, the table stores ``eps_grid``, ``slope`` and ``intercept`` as
    read-only float copies, which ``surrogate_lookup`` interpolates.
    Columns that are not 1-D, finite and of equal length, a nonpositive
    slope, an eps grid that does not increase strictly inside (0, 1) and
    fit settings that ``fit_linear_surrogate`` rejects raise a one-line
    ``ValueError``.
    """

    eps_grid: FloatArray
    slope: FloatArray
    intercept: FloatArray
    fit_lo: float
    fit_hi: float
    tau: float
    n_fit_points: int

    def __post_init__(self) -> None:
        names = ("eps_grid", "slope", "intercept")
        columns = [np.array(getattr(self, name), dtype=float)
                   for name in names]
        eps = columns[0]
        if eps.size == 0:
            raise ValueError("surrogate table has no eps rows")
        if any(c.shape != (eps.size,) for c in columns):
            raise ValueError(
                "eps grid, slopes and intercepts must be 1-D of equal length")
        if not all(np.all(np.isfinite(c)) for c in columns):
            raise ValueError("surrogate table entries must be finite")
        if not np.all(columns[1] > 0.0):
            raise ValueError("surrogate table slopes must be positive")
        if not (eps[0] > 0.0 and eps[-1] < 1.0 and np.all(np.diff(eps) > 0.0)):
            raise ValueError(
                "eps grid must be strictly increasing inside (0, 1)")
        settings = _fit_settings(self.tau, (self.fit_lo, self.fit_hi),
                                 self.n_fit_points)
        for name, value in zip(("tau", "fit_lo", "fit_hi", "n_fit_points"),
                               settings):
            object.__setattr__(self, name, value)
        for name, column in zip(names, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        # the columns behind the eps = 0 anchor (0, 0), for surrogate_lookup
        object.__setattr__(self, "_anchored", tuple(
            np.concatenate(([0.0], c)) for c in columns))

    @property
    def max_eps(self) -> float:
        return float(self.eps_grid[-1])


def fit_linear_surrogate(
    tau: float = DEFAULT_TAU,
    fit_range: tuple[float, float] = DEFAULT_FIT_RANGE,
    n_fit_points: int = DEFAULT_N_FIT_POINTS,
) -> LinearFitTable:
    """Build the surrogate table on the eps grid {tau, 2 tau, ..., < 1}.

    Each row minimizes the mean squared residual of the line against the
    exact quantile evaluated at ``n_fit_points`` equally spaced shapes in
    ``fit_range``: with c = a - mean(a), slope = sum(c q) / sum(c c) and
    intercept = mean(q) - slope mean(a), every sum a correctly rounded
    ``math.fsum``.  A tau that is not a number in (0, 1) or leaves no
    level there, a fit range that is not two numbers, finite, positive and
    increasing, an ``n_fit_points`` that is not an integer of at least 2
    and a grid of more than 10^7 (level, shape) pairs raise a one-line
    ``ValueError`` before any solve.
    """
    tau, lo, hi, n_fit_points = _fit_settings(tau, fit_range, n_fit_points)
    # clipped so that round() never sees 1 / tau = inf; a clipped count
    # is over the grid limit anyway
    steps = int(round(min(1.0 / tau, _MAX_FIT_GRID))) - 1
    if steps < 1:
        raise ValueError(f"tau={tau!r} leaves no eps rows in (0, 1)")
    if steps * n_fit_points > _MAX_FIT_GRID:
        raise ValueError(
            f"tau={tau!r} with {n_fit_points} fit points asks for more than "
            f"{_MAX_FIT_GRID:,} quantile solves")
    eps_grid = tau * np.arange(1, steps + 1)
    eps_grid = eps_grid[eps_grid < 1.0]
    a_grid = np.linspace(lo, hi, n_fit_points)

    target = inverse_lower_incomplete_gamma(eps_grid[:, None], a_grid[None, :])
    a_mean = math.fsum(a_grid.tolist()) / n_fit_points
    c = a_grid - a_mean
    c_norm = math.fsum((c * c).tolist())
    slopes = np.array([math.fsum(row) / c_norm
                       for row in (c * target).tolist()])
    intercepts = np.array([math.fsum(row) / n_fit_points
                           for row in target.tolist()]) - slopes * a_mean
    return LinearFitTable(
        eps_grid=eps_grid, slope=slopes, intercept=intercepts,
        fit_lo=lo, fit_hi=hi, tau=tau, n_fit_points=n_fit_points)


def surrogate_lookup(table: LinearFitTable, eps) -> tuple:
    """(slope, intercept) at ``eps``, linearly interpolated on the grid.

    Supported domain is [0, max grid eps]; below the first grid point the
    interpolation anchors at the exact (0, 0) model for eps = 0.  A float
    gives floats; an array of levels gives one slope and one intercept per
    level, each with the bits of its own float lookup.
    """
    levels = np.asarray(eps)
    if not ((0.0 <= levels) & (levels <= table.max_eps)).all():
        raise ValueError(
            f"eps={eps!r} outside the table domain [0, {table.max_eps}]")
    xp, slopes, intercepts = table._anchored
    slope = np.interp(eps, xp, slopes)
    intercept = np.interp(eps, xp, intercepts)
    if np.ndim(eps) == 0:
        return float(slope), float(intercept)
    return slope, intercept


def save_table(table: LinearFitTable, path: str | Path) -> None:
    """Write the table as versioned plain text (header plus one row per eps)."""
    lines = [
        f"# {_FORMAT_TAG}",
        f"# fit_lo={table.fit_lo!r} fit_hi={table.fit_hi!r} "
        f"tau={table.tau!r} n_fit_points={table.n_fit_points}",
        "# eps slope intercept",
    ]
    for eps, s, r in zip(table.eps_grid, table.slope, table.intercept):
        lines.append(f"{float(eps)!r} {float(s)!r} {float(r)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_table(path: str | Path) -> LinearFitTable:
    """Parse a table written by :func:`save_table`; exact float round trip.

    A foreign file, a malformed header or row, or values the table rejects
    raise a one-line ``ValueError`` that starts with the path."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != f"# {_FORMAT_TAG}":
        raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
    try:
        meta = dict(item.split("=") for item in text[1].lstrip("# ").split())
        fit_lo, fit_hi = float(meta["fit_lo"]), float(meta["fit_hi"])
        tau, n_fit_points = float(meta["tau"]), int(meta["n_fit_points"])
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: missing or malformed fit header") from exc
    lines = [line for line in text[3:] if line.strip()]
    try:
        rows = [_three_numbers(line, n) for n, line in enumerate(lines, 1)]
        data = np.array(rows).reshape(len(rows), 3)
        return LinearFitTable(
            eps_grid=data[:, 0], slope=data[:, 1], intercept=data[:, 2],
            fit_lo=fit_lo, fit_hi=fit_hi, tau=tau, n_fit_points=n_fit_points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _three_numbers(line: str, n: int) -> list[float]:
    """Row ``n`` (from 1) of a table file as (eps, slope, intercept)."""
    try:
        numbers = [float(v) for v in line.split()]
    except ValueError:
        numbers = []
    if len(numbers) != 3:
        raise ValueError(f"row {n} is not three numbers: {line.strip()!r}")
    return numbers


@functools.lru_cache(maxsize=1)
def default_table() -> LinearFitTable:
    """The package-default table, read once per process from the shipped
    ``default_table.txt``: the output of ``masec fit-table`` with its
    default arguments, which regenerates it."""
    return load_table(Path(__file__).with_name("default_table.txt"))
