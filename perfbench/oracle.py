"""Checks of masec outputs that share no code with masec.

Everything here is recomputed from the scenario's fields with numpy and
scipy.special: the per-link moment match of the eavesdropper powers, the
closed-form secrecy outage, feasibility of a placement, exact nulling of a
zero-forcing beamformer, the least-squares surrogate rows and the
closed-form infeasibility test.  A scenario is anything with the
attributes of masec's ``SystemConfig``.  Each check returns a list of
problems, empty when the output is right.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincinv

NORM_TOL = 1e-9
POS_TOL = 1e-9
NULL_TOL = 1e-10
P_OUT_TOL = 1e-9
MC_BAND = 0.02
SURROGATE_TOL = 1e-8


def _response(x, theta, wavelength):
    return np.exp(2j * np.pi / wavelength * math.sin(theta) * np.asarray(x))


def threshold(w, x, cfg) -> float:
    """Collusion power Eve may collect before secrecy rate rs is lost."""
    bob = cfg.beta0 * abs(_response(x, cfg.theta0, cfg.wavelength) @ w) ** 2
    return bob / 2.0 ** cfg.rs + cfg.sigma2 / cfg.pa * (2.0 ** -cfg.rs - 1.0)


def closed_form_outage(w, x, cfg) -> float:
    """1 - P(shape, threshold / scale) of the moment-matched Gamma law."""
    thr = threshold(w, x, cfg)
    if thr <= 0.0:
        return 1.0
    means, figures = [], []
    for theta, beta, k in zip(cfg.thetas, cfg.betas, cfg.ks):
        los = abs(_response(x, theta, cfg.wavelength) @ w) ** 2
        means.append(beta / (k + 1.0) * (k * los + 1.0))
        figures.append((k * los + 1.0) ** 2 / (2.0 * k * los + 1.0))
    means, figures = np.array(means), np.array(figures)
    second = float(np.sum(means ** 2 / figures))
    shape = float(np.sum(means)) ** 2 / second
    scale = second / float(np.sum(means))
    return float(min(max(1.0 - gammainc(shape, thr / scale), 0.0), 1.0))


def provably_infeasible(cfg) -> bool:
    """No placement or beamformer reaches a positive threshold."""
    n = cfg.n_antennas
    return cfg.beta0 * n / 2.0 ** cfg.rs \
        + cfg.sigma2 / cfg.pa * (2.0 ** -cfg.rs - 1.0) <= 0.0


def check_solution(w, x, cfg, p_out, zero_forcing=False) -> list[str]:
    """Unit-norm w, feasible x, p_out equal to the closed form at (w, x),
    certain outage when the scenario is provably infeasible, and exact
    nulling for a zero-forcing beamformer."""
    w = np.asarray(w, dtype=complex)
    x = np.asarray(x, dtype=float)
    problems = []
    if abs(np.linalg.norm(w) - 1.0) > NORM_TOL:
        problems.append(f"|w| = {np.linalg.norm(w)!r}, not 1")
    if x.shape != (cfg.n_antennas,):
        problems.append(f"x has shape {x.shape}")
    elif (x.min() < -POS_TOL or x.max() > cfg.span + POS_TOL
          or np.any(np.diff(x) < cfg.dmin - POS_TOL)):
        problems.append(f"x = {x.tolist()} infeasible for span "
                        f"{cfg.span}, dmin {cfg.dmin}")
    expect = closed_form_outage(w, x, cfg)
    if abs(expect - p_out) > P_OUT_TOL:
        problems.append(f"p_out {p_out!r} but closed form {expect!r}")
    if provably_infeasible(cfg) and p_out != 1.0:
        problems.append(f"provably infeasible, yet p_out {p_out!r}")
    if zero_forcing:
        leak = max(abs(_response(x, th, cfg.wavelength) @ w)
                   for th in cfg.thetas)
        if leak > NULL_TOL:
            problems.append(f"zero-forcing leaks {leak:.3e} to an eve")
    return problems


def check_monte_carlo(mc: float, p_out: float, n_trials: int) -> list[str]:
    """Monte Carlo within the 0.02 band of the closed form plus 4 sigma
    of binomial noise."""
    sigma = math.sqrt(max(p_out * (1.0 - p_out), 1e-12) / n_trials)
    if abs(mc - p_out) > MC_BAND + 4.0 * sigma:
        return [f"Monte Carlo {mc!r} vs closed form {p_out!r}"]
    return []


def check_surrogate(eps_grid, slope, intercept, fit_lo, fit_hi, tau,
                    n_fit_points) -> list[str]:
    """Each row is the least-squares line through the exact Gamma
    quantiles at n_fit_points equally spaced shapes in [fit_lo, fit_hi]."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    expect_eps = tau * np.arange(1, eps_grid.size + 1)
    problems = []
    if not np.allclose(eps_grid, expect_eps, rtol=0.0, atol=1e-12):
        problems.append("surrogate eps grid is not tau, 2 tau, ...")
    a = np.linspace(fit_lo, fit_hi, n_fit_points)
    q = gammaincinv(a[None, :], eps_grid[:, None])
    a_c = a - a.mean()
    ref_slope = (q - q.mean(axis=1, keepdims=True)) @ a_c / (a_c @ a_c)
    ref_icpt = q.mean(axis=1) - ref_slope * a.mean()
    for name, got, ref in (("slope", slope, ref_slope),
                           ("intercept", intercept, ref_icpt)):
        err = np.abs(np.asarray(got) - ref) / (1.0 + np.abs(ref))
        if err.max() > SURROGATE_TOL:
            j = int(err.argmax())
            problems.append(f"surrogate {name} at eps={eps_grid[j]:.2f} off "
                            f"by {err[j]:.2e} (relative)")
    return problems


def feasible_midpoints(cfg) -> np.ndarray:
    """Centre of each element's movement interval."""
    n = cfg.n_antennas
    width = (cfg.span - (n - 1) * cfg.dmin) / n
    return np.arange(n) * (width + cfg.dmin) + 0.5 * width


def matched_filter(x, cfg) -> np.ndarray:
    h = _response(x, cfg.theta0, cfg.wavelength)
    return h.conj() / np.linalg.norm(h)
