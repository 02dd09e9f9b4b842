"""Regularized lower incomplete gamma function and its inverse.

P(a, t) = gamma(a, t) / Gamma(a) is evaluated with the classic split: a
power series for t < a + 1 and a continued fraction (modified Lentz)
otherwise.  Both routines are vectorized over broadcast inputs and target
about 1e-14 relative accuracy, which the inverse needs to hit its own
tolerance reliably.

Every iterative loop records each lane's value in the iteration where it
converges and drops finished lanes: the quantile loop at once, the series
and the continued fraction once at most half of their lanes are left.  A
lane's arithmetic never depends on the other lanes, so an element of a
batched call is bit-identical to the same element computed alone.  The
log-gamma prefactor comes from ``math.lgamma``; the module needs nothing
beyond numpy and the standard library.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 4000
# a quantile below the smallest normal float, exp(_LOG_MIN), is unrepresentable
_LOG_MIN = math.log(np.finfo(float).tiny)


def _per_distinct(fn, x):
    """``fn`` applied elementwise to ``x``, called once per distinct value."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[where].reshape(np.shape(x))


def lower_incomplete_gamma_reg(a, t):
    """Regularized lower incomplete gamma P(a, t).

    ``a`` must be positive and finite and ``t`` not NaN, or ``ValueError``;
    ``t`` <= 0 maps to 0 and t = inf to 1, so the function can serve
    directly as a CDF.  Scalars in, scalar out; arrays broadcast.
    """
    a_arr, t_arr = np.broadcast_arrays(np.asarray(a, float), np.asarray(t, float))
    _check_shape(a_arr)
    if np.isnan(t_arr).any():
        raise ValueError("threshold t must not be NaN")
    out = np.zeros(a_arr.shape, dtype=float)
    out[t_arr == np.inf] = 1.0
    pos = (t_arr > 0.0) & (t_arr < np.inf)
    a_pos = a_arr[pos]
    out[pos] = _reg_positive(a_pos, t_arr[pos], _per_distinct(math.lgamma, a_pos))
    if np.isscalar(a) and np.isscalar(t):
        return float(out)
    return out


def _check_shape(a) -> None:
    """A one-line ``ValueError`` unless every shape parameter is positive
    and finite."""
    if not np.all((a > 0.0) & (a < np.inf)):
        raise ValueError("shape parameter must be positive and finite")


def _reg_positive(a, t, log_gam):
    """P(a, t) on flat arrays with t > 0, given log_gam = ln Gamma(a)."""
    # exp(-t + a ln t - ln Gamma(a)), kept in log space against overflow
    prefactor = np.exp(a * np.log(t) - t - log_gam)
    series = t < a + 1.0
    tail = ~series
    out = np.empty(a.shape)
    out[series] = _series(a[series], t[series]) * prefactor[series]
    out[tail] = 1.0 - prefactor[tail] * _cont_frac(a[tail], t[tail])
    return out


def _series(a, t):
    """Power series sum_n t^n / (a (a+1) ... (a+n)) on flat arrays."""
    out = np.empty(a.shape)
    lane = np.arange(a.size)
    ap = a.copy()
    term = 1.0 / a
    total = term.copy()
    open_ = np.ones(a.shape, bool)
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= t / ap
        total += term
        live = np.abs(term) > np.abs(total) * _EPS
        if _retire(out, lane, total, live, open_):
            if not open_.any():
                return out
            lane, t, ap, term, total, open_ = (
                v[open_] for v in (lane, t, ap, term, total, open_))
    raise RuntimeError("incomplete gamma series failed to converge")


def _cont_frac(a, t):
    """Upper-tail continued fraction via modified Lentz iteration, on flat
    arrays."""
    out = np.empty(a.shape)
    lane = np.arange(a.size)
    b = t + 1.0 - a
    c = np.full(a.shape, 1.0 / _TINY)
    d = 1.0 / np.where(np.abs(b) < _TINY, _TINY, b)
    h = d.copy()
    open_ = np.ones(a.shape, bool)
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        live = np.abs(delta - 1.0) > _EPS
        if _retire(out, lane, h, live, open_):
            if not open_.any():
                return out
            lane, a, b, c, d, h, open_ = (
                v[open_] for v in (lane, a, b, c, d, h, open_))
    raise RuntimeError("incomplete gamma continued fraction failed to converge")


def _retire(out, lane, value, live, open_):
    """Record ``value`` for the open lanes that just stopped being ``live``
    and close them.  True when the caller should compact: it has no lanes,
    or at most half of them are still open.

    A closed lane keeps iterating until the caller compacts, but its
    recorded value is the one from the iteration in which it converged.
    """
    done = open_ > live
    if done.any():
        out[lane[done]] = value[done]
        open_ &= live
    elif lane.size:
        return False
    return 2 * np.count_nonzero(open_) <= lane.size


def _initial_guess(eps, a, log_gam):
    """Start point for the quantile from each lane's (eps, a) alone.

    Wilson-Hilferty for a >= 1 where its cube is at least 0.05; below
    a = 1, and where the cube falls under 0.05 (eps so small that the root
    lies far in the lower tail), the small-t inversion (eps Gamma(a + 1))^(1/a)
    of P(a, t) ~ t^a / Gamma(a + 1), taken in log space because the root can
    lie far below 1e-8.
    """
    z = _per_distinct(NormalDist().inv_cdf, eps)
    cube = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    guess = np.maximum(a * np.maximum(cube, 0.05) ** 3, 1e-8)
    small = (a < 1.0) | (cube < 0.05)
    if small.any():
        eps_s, a_s = eps[small], a[small]
        log_t = (np.log(eps_s) + log_gam[small] + np.log(a_s)) / a_s
        under = log_t < _LOG_MIN
        if under.any():
            i = np.flatnonzero(under)[0]
            raise ValueError(
                f"quantile at eps={float(eps_s[i])!r}, a={float(a_s[i])!r} "
                f"is about 1e{log_t[i] / math.log(10.0):.0f}, below the "
                "float range")
        guess[small] = np.exp(log_t)
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
    short = np.flatnonzero(
        (_reg_positive(shapes, shape_hi, shape_log_gam) < top)[where])
    while short.size:
        short = short[_reg_positive(a[short], hi[short], log_gam[short]) < eps[short]]
        hi[short] *= 2.0

    lo = np.zeros(a.shape)
    t = np.minimum(_initial_guess(eps, a, log_gam), hi)
    out = np.empty(a.shape)
    lane = np.arange(a.size)
    tol = _stop(eps)
    for _ in range(200):
        f = _reg_positive(a, t, log_gam) - eps
        below = f < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        done = np.abs(f) <= tol
        if done.any():
            out[lane[done]] = t[done]
            keep = ~done
            lane, eps, a, log_gam, lo, hi, t, f, tol = (
                v[keep] for v in (lane, eps, a, log_gam, lo, hi, t, f, tol))
        if not lane.size:
            return out
        with np.errstate(all="ignore"):
            # the density (it underflows far in the tails) gives
            # f''/f' = (a - 1)/t - 1 and f'''/f' = (f''/f')^2 - (a - 1)/t^2
            pdf = np.exp((a - 1.0) * np.log(t) - t - log_gam)
            h = f / pdf
            u = (a - 1.0) / t
            d2 = u - 1.0
            d3 = d2 * d2 - u / t
            t_new = t - h * (1.0 - 0.5 * d2 * h) / (1.0 - h * (d2 - h * d3 / 6.0))
        bad = ~np.isfinite(t_new) | (t_new <= lo) | (t_new >= hi)
        t = np.where(bad, 0.5 * (lo + hi), t_new)
    resid = np.abs(_reg_positive(a, t, log_gam) - eps)
    if (resid > 100.0 * tol).any():
        raise RuntimeError(
            f"quantile iteration stalled, residual {resid.max():.2e}")
    out[lane] = t
    return out
