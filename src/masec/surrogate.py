"""Linear surrogate of the Gamma quantile in its shape argument.

The outage constraint "1 - P(shape, scaled_thr) <= eps" inverts to
scaled_thr >= quantile(1 - outage level); for bisection on the secrecy
confidence eps we need that quantile as a tractable function of the shape.
For each eps on a uniform grid the map a -> quantile(eps, a) is fitted by
an ordinary least-squares line over a fixed shape window, and the
(slope, intercept) pairs are stored in a small table that can be persisted
as plain text and linearly interpolated between grid points.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .gammainc import inverse_lower_incomplete_gamma

FloatArray = NDArray[np.floating]

_FORMAT_TAG = "masec-surrogate-v1"

DEFAULT_TAU = 0.01
DEFAULT_FIT_RANGE = (1.0, 100.0)
DEFAULT_N_FIT_POINTS = 1000


@dataclass(frozen=True)
class LinearFitTable:
    """Per-eps linear models quantile(eps, a) ~ slope(eps) * a + intercept(eps).

    The grid starts at tau, not 0: at eps = 0 the quantile is identically
    zero, whose exact fit (0, 0) is handled as a virtual anchor by
    ``surrogate_lookup`` instead of a stored row, keeping every stored slope
    strictly positive; a table with a nonpositive slope is rejected, since
    the solver's margin bound assumes positive slopes.  Slopes and
    intercepts are nondecreasing in eps.
    """

    eps_grid: FloatArray
    slope: FloatArray
    intercept: FloatArray
    fit_lo: float
    fit_hi: float
    tau: float
    n_fit_points: int

    def __post_init__(self) -> None:
        eps = np.asarray(self.eps_grid, dtype=float)
        if eps.size == 0:
            raise ValueError("surrogate table has no eps rows")
        columns = (eps, np.asarray(self.slope, dtype=float),
                   np.asarray(self.intercept, dtype=float))
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
        if not (math.isfinite(self.fit_hi) and 0.0 < self.fit_lo < self.fit_hi):
            raise ValueError(
                "fit range must be finite, positive and increasing")

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
    ``fit_range``.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    lo, hi = fit_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError("fit_range must be finite, positive and increasing")
    if n_fit_points < 2:
        raise ValueError("need at least two fit points")

    steps = int(round(1.0 / tau)) - 1
    eps_grid = tau * np.arange(1, steps + 1)
    eps_grid = eps_grid[eps_grid < 1.0]
    a_grid = np.linspace(lo, hi, n_fit_points)

    target = inverse_lower_incomplete_gamma(eps_grid[:, None], a_grid[None, :])
    slopes, intercepts = np.polyfit(a_grid, target.T, 1)
    return LinearFitTable(
        eps_grid=eps_grid, slope=slopes, intercept=intercepts,
        fit_lo=float(lo), fit_hi=float(hi), tau=float(tau),
        n_fit_points=int(n_fit_points))


def surrogate_lookup(table: LinearFitTable, eps) -> tuple:
    """(slope, intercept) at ``eps``, linearly interpolated on the grid.

    Supported domain is [0, max grid eps]; below the first grid point the
    interpolation anchors at the exact (0, 0) model for eps = 0.  A float
    gives floats; an array of levels gives one slope and one intercept per
    level, each with the bits of its own float lookup.
    """
    levels = np.asarray(eps)
    if not np.all((0.0 <= levels) & (levels <= table.max_eps)):
        raise ValueError(
            f"eps={eps!r} outside the table domain [0, {table.max_eps}]")
    xp = np.concatenate(([0.0], table.eps_grid))
    slope = np.interp(eps, xp, np.concatenate(([0.0], table.slope)))
    intercept = np.interp(eps, xp, np.concatenate(([0.0], table.intercept)))
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
    """Parse a table written by :func:`save_table`; exact float round trip."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != f"# {_FORMAT_TAG}":
        raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
    try:
        meta = dict(item.split("=") for item in text[1].lstrip("# ").split())
        fit_lo, fit_hi = float(meta["fit_lo"]), float(meta["fit_hi"])
        tau, n_fit_points = float(meta["tau"]), int(meta["n_fit_points"])
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: missing or malformed fit header") from exc
    rows = [line.split() for line in text[3:] if line.strip()]
    data = np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), 3)
    try:
        return LinearFitTable(
            eps_grid=data[:, 0], slope=data[:, 1], intercept=data[:, 2],
            fit_lo=fit_lo, fit_hi=fit_hi, tau=tau, n_fit_points=n_fit_points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=1)
def default_table() -> LinearFitTable:
    """The package-default table, built once per process on first use."""
    return fit_linear_surrogate()
