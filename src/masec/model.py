"""System model for a secure downlink with a linear movable-antenna array.

The transmitter carries ``n_antennas`` elements that slide along a line
segment of length ``span``.  The legitimate receiver sees a pure LoS
channel; each of the ``n_eves`` colluding eavesdroppers sees Rician fading
whose LoS part is steered by the antenna positions.  All angles are in
radians, all powers and path gains are linear (not dB).
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

ComplexArray = NDArray[np.complexfloating]
FloatArray = NDArray[np.floating]

TWO_PI = 2.0 * np.pi


def is_number(value) -> bool:
    """A real number, numpy's too, that float() converts: not a bool, and
    no integer beyond the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, (float, np.floating))
                 or -sys.float_info.max <= value <= sys.float_info.max))


def is_integer(value, least: float = -math.inf) -> bool:
    """An integer, numpy's too, not a bool, of at least ``least``."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= least)


def check_integer(name: str, value, least: int) -> None:
    """Raise a one-line ValueError naming ``name`` unless ``value`` is an
    integer of at least ``least``, 0 or 1 (see :func:`is_integer`)."""
    if not is_integer(value, least):
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer")


_KINDS = {"n_antennas": int, "n_eves": int, "thetas": tuple, "betas": tuple,
          "ks": tuple}


def admit(name: str, value, kind: type | None = None):
    """``value`` as a ``kind``, by default that of the SystemConfig field
    ``name``, else a one-line ValueError: an int or float takes a number in
    the float range (the int an integer), a tuple a list, tuple or 1-D
    array of them and holds floats."""
    kind = kind or _KINDS.get(name, float)
    if kind is tuple:
        if isinstance(value, np.ndarray):   # any but 1-D fails below
            value = value.tolist()
        if isinstance(value, (list, tuple)) and all(map(is_number, value)):
            return tuple(map(float, value))
        what = "a list of numbers"
    elif is_number(value) and (kind is float or is_integer(value)):
        return kind(value)
    else:
        what = "an integer" if kind is int else "a number"
    raise ValueError(f"{name} must be {what} in the float range")


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters shared by every routine in the package.

    Built, it first admits and converts each field (:func:`admit`), then
    checks the values: counts stay ints, lists and 1-D arrays become
    tuples of floats and every other number a float.

    Attributes:
        n_antennas: number of transmit elements (>= 2).
        n_eves: number of colluding eavesdroppers (>= 1).
        theta0: steering angle of the legitimate user.
        thetas: eavesdropper steering angles, pairwise distinct.
        beta0: path gain of the legitimate link.
        betas: eavesdropper path gains.
        ks: Rician K-factors of the eavesdropper links (K = 0 is Rayleigh).
            With the other fields, they must keep the terms of the gain
            model in the float range, which ``outage.moment_match`` checks
            when the config is built: the moment-match terms of
            c = beta / (K + 1) and their sums, and the noise term
            (sigma2 / pa) (2^-rs - 1), which must not be NaN.
        pa: transmit power budget.
        sigma2: noise power at every receiver.
        rs: target secrecy rate in bits/s/Hz; 2^rs must be a finite float.
        wavelength: carrier wavelength; positions are in the same unit.
        span: length of the line segment the elements move on; the largest
            steering phase, 2 pi span / wavelength, must be a finite float.
        dmin: minimum spacing between adjacent elements.

    ``gain_model`` is the scenario's one gain model, built with it.
    """

    n_antennas: int
    n_eves: int
    theta0: float
    thetas: tuple[float, ...]
    beta0: float
    betas: tuple[float, ...]
    ks: tuple[float, ...]
    pa: float
    sigma2: float
    rs: float
    wavelength: float = 1.0
    span: float = 4.0
    dmin: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name,
                               admit(f.name, getattr(self, f.name)))
        if self.n_antennas < 2:
            raise ValueError("n_antennas must be at least 2")
        if self.n_eves < 1:
            raise ValueError("n_eves must be at least 1")
        for name in ("thetas", "betas", "ks"):
            if len(getattr(self, name)) != self.n_eves:
                raise ValueError(f"{name} must have length n_eves={self.n_eves}")
        for name in ("theta0", "thetas", "beta0", "betas", "ks", "pa",
                     "sigma2", "rs", "wavelength", "span", "dmin"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if len(set(self.thetas)) != self.n_eves:
            raise ValueError("eavesdropper angles must be pairwise distinct")
        if any(b <= 0 for b in self.betas) or self.beta0 <= 0:
            raise ValueError("path gains must be positive")
        if any(k < 0 for k in self.ks):
            raise ValueError("Rician K-factors must be nonnegative")
        for name in ("pa", "sigma2", "rs", "wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(TWO_PI / self.wavelength * self.span):
            raise ValueError(
                f"span={self.span} and wavelength={self.wavelength} overflow "
                "the steering phase 2*pi*span/wavelength")
        try:
            math.pow(2.0, self.rs)
        except OverflowError:
            raise ValueError(f"rs={self.rs} is too large: 2**rs overflows "
                             "a float") from None
        self.gain_model    # built now, so that it checks its float range
        if self.dmin < 0:
            raise ValueError("dmin must be nonnegative")
        if self.span < (self.n_antennas - 1) * self.dmin:
            raise ValueError(
                "span too small: need span >= (n_antennas - 1) * dmin")

    @functools.cached_property
    def gain_model(self):
        """The scenario's ``outage.MomentMatch``: its steering directions and
        the Gamma moment match, which every solver reads.  Not a dataclass
        field, so ``dataclasses.asdict`` and ``==`` see only the scenario."""
        from .outage import moment_match   # outage imports this module
        return moment_match(self)

    def __getstate__(self):
        """The fields without the cached ``gain_model``, so that a pickled
        or copied config builds its own, with read-only arrays."""
        state = dict(self.__dict__)
        state.pop("gain_model", None)
        return state

    @property
    def betas_arr(self) -> FloatArray:
        return np.asarray(self.betas, dtype=float)

    @property
    def ks_arr(self) -> FloatArray:
        return np.asarray(self.ks, dtype=float)

    @property
    def thetas_arr(self) -> FloatArray:
        return np.asarray(self.thetas, dtype=float)


@dataclass(frozen=True)
class FeasibleRegion:
    """Per-element position intervals [lo_i, hi_i].

    The intervals partition the segment so that any choice with
    lo_i <= x_i <= hi_i automatically keeps adjacent elements at least
    dmin apart; consecutive intervals are separated by exactly dmin.
    """

    lo: FloatArray
    hi: FloatArray

    def midpoints(self) -> FloatArray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: FloatArray, tol: float = 1e-12) -> bool:
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


def steering_vector(x: FloatArray, theta: float, cfg: SystemConfig) -> ComplexArray:
    """Array response for positions ``x`` toward direction ``theta``.

    Entry n equals exp(j * 2*pi/wavelength * x_n * sin(theta)); magnitude one.
    """
    phase = TWO_PI / cfg.wavelength * np.sin(theta) * x
    return np.exp(1j * phase)


def main_channel(x: FloatArray, cfg: SystemConfig) -> ComplexArray:
    """Deterministic LoS channel of the legitimate user, scaled by sqrt(beta0)."""
    return np.sqrt(cfg.beta0) * steering_vector(x, cfg.theta0, cfg)


def eve_los_matrix(x: FloatArray, cfg: SystemConfig) -> ComplexArray:
    """Unit-magnitude LoS responses of all eavesdroppers, stacked (M, N).

    Positions of shape (..., N) give responses of shape (..., M, N).
    """
    x = np.asarray(x)
    sines = np.sin(cfg.thetas_arr)
    phase = TWO_PI / cfg.wavelength * (sines[:, None] * x[..., None, :])
    return np.exp(1j * phase)


def feasible_region(cfg: SystemConfig) -> FeasibleRegion:
    """Partition the segment into per-element movement intervals.

    Interval i has width (span - (N-1) dmin) / N and consecutive intervals
    are dmin apart, so the first starts at 0 and the last ends at span.
    A zero-width region (span == (N-1) dmin) pins every element and is
    allowed, with a warning.
    """
    n, d, span = cfg.n_antennas, cfg.dmin, cfg.span
    width = (span - (n - 1) * d) / n
    if width == 0.0:
        warnings.warn("degenerate movement region: every element is pinned",
                      stacklevel=2)
    idx = np.arange(n, dtype=float)
    lo = width * idx + idx * d
    hi = width * (idx + 1.0) + idx * d
    return FeasibleRegion(lo=lo, hi=hi)


def check_vector(name: str, v, n: int, real: bool = False,
                 stack: bool = False) -> np.ndarray:
    """``v`` as an array, after a one-line ``ValueError`` unless it has
    shape (n,), or (B, n) for a ``stack`` of B >= 1 vectors, is finite and,
    when ``real``, is not complex; a ``real`` vector comes back as floats."""
    v = np.asarray(v)
    if v.shape[-1:] != (n,) or v.ndim != 1 + stack or not v.size:
        want = f"(B, {n}) with B >= 1" if stack else f"({n},)"
        raise ValueError(f"{name} must have shape {want}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    if real and np.iscomplexobj(v):
        raise ValueError(f"{name} must be real")
    return np.asarray(v, dtype=float) if real else v


def project_positions(x_raw: FloatArray, region: FeasibleRegion) -> FloatArray:
    """Nearest feasible positions: clamp each coordinate into its interval.

    Because the intervals are disjoint boxes, the per-coordinate clamp is the
    exact Euclidean projection.  It is ``np.clip`` without its Python
    wrappers, and differs from it only in the sign of a zero: a -0.0 input
    at a +0.0 bound may come out as either zero.  The ascents never make a
    -0.0 input, since a sum is -0.0 only when both terms are.
    """
    return np.minimum(np.maximum(x_raw, region.lo), region.hi)


def random_feasible_positions(
    region: FeasibleRegion, rng: np.random.Generator, count: int | None = None
) -> FloatArray:
    """Uniform draw from the per-element intervals (always feasible).

    With ``count``, draws a (count, N) block whose rows are the same numbers
    as ``count`` single draws made one after another.
    """
    size = None if count is None else (count, region.lo.size)
    return rng.uniform(region.lo, region.hi, size=size)


def unit_norm(w: ComplexArray) -> ComplexArray:
    """w / ||w|| over the last axis, each lane reduced on its own.

    The squared norm is summed as ``np.linalg.norm`` sums a complex vector,
    real parts then imaginary parts, so a lane gets the bits of
    ``w / np.linalg.norm(w)``.  One lane (N,) takes the same operations in
    float arithmetic, by ``ndarray.dot`` and ``math.sqrt``, since 0-d numpy
    operations cost more than the math; it gets the bits of its row of a
    stack.
    """
    if w.ndim == 1:
        re, im = w.real, w.imag
        return w / math.sqrt(float(re.dot(re)) + float(im.dot(im)))
    norm = np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
    return w / norm[..., None]


def mrt_beamformer(x: FloatArray, cfg: SystemConfig) -> ComplexArray:
    """Unit-norm beamformer matched to the legitimate channel.

    Positions (..., N) give one matched filter per lane, (..., N).
    """
    return unit_norm(main_channel(x, cfg).conj())
