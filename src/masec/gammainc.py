"""Regularized lower incomplete gamma function and its inverse.

P(a, t) = gamma(a, t) / Gamma(a) is evaluated with the classic split: a
power series for t < a + 1 and a continued fraction (modified Lentz)
otherwise.  Both routines are vectorized over broadcast inputs and target
about 1e-14 relative accuracy, which the inverse needs to hit its own
tolerance reliably.

The series and the continued fraction are each written once, as a
sequence of steps (a generator) that runs on Python floats and on flat
arrays alike; each step yields the partial value and a "still moving"
flag.  The array path (``_settled``) keeps each lane's value at its first
settled step and runs every lane until the last one settles; it drops no
lane.  A forward call with one element takes the same steps on floats
(``_reg_one``), which costs microseconds where a dozen numpy calls per
step on one-element arrays cost hundreds.  The quantile loop drops each
lane once it converges.  A lane's arithmetic never depends on the other
lanes, so an element of a batched call is bit-identical to the same
element computed alone.

No numpy transcendental enters P(a, t) or its inverse: ``log`` and ``exp``
come elementwise from ``math`` (``_libm``), and the rest is numpy's
correctly rounded arithmetic, ``np.sqrt``, ``math.lgamma`` and
``NormalDist``.  numpy's ``log``, ``exp`` and ``pow`` loops round
differently under AVX-512 and AVX2, libm's do not, so every value here has
the same bits on every SIMD dispatch of one platform.  The module needs
nothing beyond numpy and the standard library.
"""
from __future__ import annotations

import math

import numpy as np

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 4000
# a quantile below the smallest normal float, exp(_LOG_MIN), is unrepresentable
_LOG_MIN = math.log(np.finfo(float).tiny)
_BAD_SHAPE = "shape parameter must be positive and finite"
_NAN_T = "threshold t must not be NaN"


def _exp(v: float) -> float:
    """``math.exp``, but inf where it overflows, as numpy's ``exp``."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _libm(fn, x):
    """``math.log`` or ``math.exp`` (``fn``) elementwise on a flat array;
    an exp that overflows is inf."""
    try:
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    except OverflowError:
        return np.fromiter(map(_exp, x.tolist()), float, x.size)


def _per_distinct(fn, x):
    """``fn`` applied elementwise to ``x``, called once per distinct value."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[where].reshape(np.shape(x))


def lower_incomplete_gamma_reg(a, t):
    """Regularized lower incomplete gamma P(a, t).

    ``a`` must be positive and finite and ``t`` not NaN, or ``ValueError``;
    ``t`` <= 0 maps to 0 and t = inf to 1, so the function can serve
    directly as a CDF.  Scalars in, scalar out; arrays broadcast.  A call
    with one element takes the float path ``_reg_one``, with the same bits.
    """
    a_arr, t_arr = np.asarray(a, float), np.asarray(t, float)
    both = np.broadcast(a_arr, t_arr)
    if both.size == 1:
        p = _reg_one(a_arr.item(), t_arr.item())
        return p if np.isscalar(a) and np.isscalar(t) else np.full(both.shape, p)
    a_arr, t_arr = np.broadcast_arrays(a_arr, t_arr)
    _check_shape(a_arr)
    if np.isnan(t_arr).any():
        raise ValueError(_NAN_T)
    out = np.zeros(a_arr.shape, dtype=float)
    out[t_arr == np.inf] = 1.0
    pos = (t_arr > 0.0) & (t_arr < np.inf)
    a_pos = a_arr[pos]
    t_pos = t_arr[pos]
    out[pos] = _reg_positive(a_pos, t_pos, _per_distinct(math.lgamma, a_pos),
                             _libm(math.log, t_pos))
    return out


def _reg_one(a: float, t: float) -> float:
    """P(a, t) of one lane on Python floats.

    The checks of the array path, then the steps of ``_series`` or
    ``_cont_frac`` on floats up to the first settled one, so the value has
    the bits of the lane in a batched call.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(_BAD_SHAPE)
    if math.isnan(t):
        raise ValueError(_NAN_T)
    if not t > 0.0:
        return 0.0
    if t == math.inf:
        return 1.0
    prefactor = _exp(a * math.log(t) - t - math.lgamma(a))
    if t < a + 1.0:
        return _first_settled(_series(a, t)) * prefactor
    return 1.0 - prefactor * _first_settled(_cont_frac(a, t))


def _first_settled(steps) -> float:
    """The value of the first step of a float step sequence that settles."""
    return next(value for value, moving in steps if not moving)


def _check_shape(a) -> None:
    """A one-line ``ValueError`` unless every shape parameter is positive
    and finite."""
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ValueError(_BAD_SHAPE)


def _reg_positive(a, t, log_gam, log_t):
    """P(a, t) on flat arrays with t > 0, given log_gam = ln Gamma(a) and
    log_t = ln t."""
    # exp(-t + a ln t - ln Gamma(a)), kept in log space against overflow
    prefactor = _libm(math.exp, a * log_t - t - log_gam)
    series = t < a + 1.0
    tail = ~series
    out = np.empty(a.shape)
    out[series] = _settled(_series(a[series], t[series])) * prefactor[series]
    out[tail] = 1.0 - prefactor[tail] * _settled(_cont_frac(a[tail], t[tail]))
    return out


def _settled(steps):
    """Each lane's value at its first settled step, from a step sequence on
    flat arrays.  A settled lane keeps iterating until every lane has
    settled, but only the value of that step is kept; values are copied
    out, since a step may update its value in place."""
    value, open_ = next(steps)
    out = value.copy()
    while open_.any():
        value, moving = next(steps)
        np.copyto(out, value, where=open_)
        open_ &= moving
    return out


def _series(a, t):
    """Power series sum_n t^n / (a (a+1) ... (a+n)), one partial sum and
    its "still moving" flag per term, on floats or flat arrays.  Every
    term is positive or zero, so the flag needs no ``abs``."""
    ap = a + 0.0
    term = 1.0 / a
    total = term + 0.0
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= t / ap
        total += term
        yield total, term > total * _EPS
    raise RuntimeError("incomplete gamma series failed to converge")


def _cont_frac(a, t):
    """Upper-tail continued fraction via modified Lentz iteration, one
    convergent and its "still moving" flag per step, on floats or flat
    arrays."""
    b = t + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / _away_from_zero(b)
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / _away_from_zero(an * d + b)
        c = _away_from_zero(b + an / c)
        delta = d * c
        h = h * delta
        yield h, abs(delta - 1.0) > _EPS
    raise RuntimeError("incomplete gamma continued fraction failed to converge")


def _away_from_zero(x):
    """``x``, or _TINY where |x| < _TINY, so Lentz's divisors never vanish;
    on a float or an array."""
    if isinstance(x, float):
        return _TINY if abs(x) < _TINY else x
    return np.where(np.abs(x) < _TINY, _TINY, x)


def _initial_guess(eps, a, log_gam):
    """Start point for the quantile from each lane's (eps, a) alone.

    Wilson-Hilferty for a >= 1 where its cube is at least 0.05; below
    a = 1, and where the cube falls under 0.05 (eps so small that the root
    lies far in the lower tail), the small-t inversion (eps Gamma(a + 1))^(1/a)
    of P(a, t) ~ t^a / Gamma(a + 1), taken in log space because the root can
    lie far below 1e-8.
    """
    from statistics import NormalDist    # only a table fit needs it

    z = _per_distinct(NormalDist().inv_cdf, eps)
    cube = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    c = np.maximum(cube, 0.05)
    guess = np.maximum(a * (c * c * c), 1e-8)
    small = (a < 1.0) | (cube < 0.05)
    eps_s, a_s = eps[small], a[small]
    log_t = (_libm(math.log, eps_s) + log_gam[small]
             + _libm(math.log, a_s)) / a_s
    under = log_t < _LOG_MIN
    if under.any():
        i = np.flatnonzero(under)[0]
        raise ValueError(
            f"quantile at eps={float(eps_s[i])!r}, a={float(a_s[i])!r} "
            f"is about 1e{log_t[i] / math.log(10.0):.0f}, below the "
            "float range")
    guess[small] = _libm(math.exp, log_t)
    return guess


def inverse_lower_incomplete_gamma(eps, a):
    """Solve P(a, t) = eps for t >= 0, elementwise over broadcast eps and a.

    Uses a bracket [0, a + 20 sqrt(a) + 20], checked once per distinct shape
    at that shape's largest eps and grown lane by lane only where the check
    fails, and safeguarded fourth-order Householder steps on the forward
    function.  The derivatives of P beyond its density follow from the
    density in closed form, so a step costs one evaluation of P.  Any step
    that is not finite or leaves the bracket is replaced by bisection.  The
    iteration stops at |P(a, t) - eps| <= 1e-12 min(1, 100 eps), an
    absolute 1e-12 from eps = 0.01 up and relative below, so a small
    quantile is as accurate as a large one; a residual more than 100 times
    that after 200 steps raises ``RuntimeError``.  A root below the float
    range, an eps outside [0, 1) and a shape that is not positive and
    finite raise ``ValueError``.  Scalars in, scalar out.
    """
    eps_arr, a_arr = np.broadcast_arrays(np.asarray(eps, float), np.asarray(a, float))
    if not np.all((eps_arr >= 0.0) & (eps_arr < 1.0)):
        raise ValueError("probability must lie in [0, 1)")
    _check_shape(a_arr)
    t = np.zeros(a_arr.shape)
    solve = eps_arr > 0.0
    t[solve] = _quantile(eps_arr[solve], a_arr[solve])
    return float(t) if t.ndim == 0 else t


def _stop(eps):
    """The residual |P(a, t) - eps| at which a quantile lane stops: 1e-12,
    and relative to eps / 100 below eps = 0.01."""
    return 1e-12 * np.minimum(1.0, 100.0 * eps)


def _quantile(eps, a):
    """The safeguarded Householder solve on flat arrays with eps in (0, 1)."""
    shapes, where = np.unique(a, return_inverse=True)
    shape_log_gam = np.array([math.lgamma(v) for v in shapes.tolist()])
    log_gam = shape_log_gam[where]
    # P(a, hi) >= the largest eps of a shape clears every lane of that
    # shape, so each lane gets the hi it would get alone
    shape_hi = shapes + 20.0 * np.sqrt(shapes) + 20.0
    top = np.zeros(shapes.size)
    np.maximum.at(top, where, eps)
    hi = shape_hi[where]
    below = _reg_positive(shapes, shape_hi, shape_log_gam,
                          _libm(math.log, shape_hi)) < top
    short = np.flatnonzero(below[where])
    while short.size:
        short = short[_reg_positive(a[short], hi[short], log_gam[short],
                                    _libm(math.log, hi[short])) < eps[short]]
        hi[short] *= 2.0

    lo = np.zeros(a.shape)
    t = np.minimum(_initial_guess(eps, a, log_gam), hi)
    out = np.empty(a.shape)
    lane = np.arange(a.size)
    tol = _stop(eps)
    for _ in range(200):
        log_t = _libm(math.log, t)      # read by P and by the density
        f = _reg_positive(a, t, log_gam, log_t) - eps
        below = f < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        done = np.abs(f) <= tol
        if done.any():
            out[lane[done]] = t[done]
            keep = ~done
            lane, eps, a, log_gam, lo, hi, t, log_t, f, tol = (
                v[keep] for v in (lane, eps, a, log_gam, lo, hi, t, log_t, f,
                                  tol))
        if not lane.size:
            return out
        with np.errstate(all="ignore"):
            # the density (it underflows far in the tails) gives
            # f''/f' = (a - 1)/t - 1 and f'''/f' = (f''/f')^2 - (a - 1)/t^2
            pdf = _libm(math.exp, (a - 1.0) * log_t - t - log_gam)
            h = f / pdf
            u = (a - 1.0) / t
            d2 = u - 1.0
            d3 = d2 * d2 - u / t
            t_new = t - h * (1.0 - 0.5 * d2 * h) / (1.0 - h * (d2 - h * d3 / 6.0))
        bad = ~np.isfinite(t_new) | (t_new <= lo) | (t_new >= hi)
        t = np.where(bad, 0.5 * (lo + hi), t_new)
    resid = np.abs(_reg_positive(a, t, log_gam, _libm(math.log, t)) - eps)
    if (resid > 100.0 * tol).any():
        raise RuntimeError(
            f"quantile iteration stalled, residual {resid.max():.2e}")
    out[lane] = t
    return out
