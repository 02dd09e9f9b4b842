"""Secrecy-outage statistics of the colluding-eavesdropper downlink.

For a fixed beamformer and antenna placement, each eavesdropper's received
power |h_i w|^2 is noncentral; its Rician structure is summarized by a
Nakagami-style fading figure and the collusion sum is approximated by a
single Gamma distribution through second-moment matching.  That yields a
closed-form secrecy outage probability that the Monte Carlo routine here
cross-checks by direct channel sampling.

The Monte Carlo draws the collusion power itself, not its Gamma fit.  For
fixed (w, x), eavesdropper i sees h_i w ~ CN(los_i, var_i) with scatter
variance var_i = beta_i / (K_i + 1) ||w||^2, per unit beta0.  Eavesdroppers
of exactly equal var_i form a group, taken in the order of their first
member.  By the rotational invariance of CN(0, I), a group G sums to
|(||los_G|| + sqrt(var) z)|^2 + var Gamma(|G| - 1, 1) in law, z ~ CN(0, 1),
so a trial draws one complex normal per group and one Gamma variate per
group of two or more, whatever N and M; every preset is one group.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .gammainc import lower_incomplete_gamma_reg
from .model import TWO_PI, SystemConfig, check_integer, check_lane

FloatArray = NDArray[np.floating]
ComplexArray = NDArray[np.complexfloating]

_MC_CHUNK = 100_000  # fixed so results are reproducible for a given seed


@dataclass(frozen=True)
class EveLinkStats:
    """Conditional statistics of one eavesdropper link given (w, x).

    mean_power: E|h_i w|^2 conditioned on the placement.
    k_eff: effective Rician factor K_i |los_gain_i|^2 of the projected link.
    fading_figure: (k_eff + 1)^2 / (2 k_eff + 1), the Nakagami m of the
        power distribution; equals 1 for Rayleigh and grows with k_eff.
    """

    mean_power: float
    k_eff: float
    fading_figure: float


@dataclass(frozen=True)
class GammaMoments:
    """Shape/scale of the Gamma fit to the summed eavesdropper power."""

    shape: float
    scale: float


@dataclass(frozen=True)
class MomentMatch:
    """The gain model of one config per unit beta0: its M+1 steering
    directions and the Gamma moment match, affine in their LoS power gains.

    Direction 0 is the legitimate user, 1..M the eavesdroppers, and the
    closed-form outage and the ascent's margin depend on (w, x) only through
    the gains |s_d w|^2 of the unit steering rows s_d that ``rows`` builds.
    With c_i = beta_i / beta0 / (K_i + 1) and g_i eavesdropper i's gain, the
    collusion sum has mean lin = sum_i c_i (K_i g_i + 1) and moment term
    quad = sum_i mean_i^2 / m_i = sum_i c_i^2 (2 K_i g_i + 1), so
    shape = lin^2 / quad and scale = quad / lin.  Both moments are affine
    in the gains, lin = g @ lin_coef + lin_const and likewise quad; the
    coefficients are what the gradients of any function of them need.

    ``scatter`` holds the c_i, the scatter variance of eavesdropper i per
    unit of ||w||^2, which the Monte Carlo draws with.  The arrays are
    read-only, since every solve of a scenario shares its config's model
    (``SystemConfig.gain_model``).

    ``threshold`` maps the legitimate gain |s_0 w|^2 per unit beta0 to the
    largest tolerable collusion power at secrecy rate rs.  Every method
    takes stacks over leading axes and reduces each lane on its own (a
    stacked matrix product would round differently), so a lane of a stack
    gets the same bits as the lane alone.
    """

    sines: FloatArray        # sin(theta_d), Bob first, (M+1,)
    wave_rate: float         # 2 pi / wavelength
    scatter: FloatArray      # c_i, (M,)
    lin_coef: FloatArray     # c_i K_i, (M,)
    lin_const: float         # sum_i c_i
    quad_coef: FloatArray    # 2 c_i^2 K_i, (M,)
    quad_const: float        # sum_i c_i^2
    rate_pow: float          # 2^rs
    noise_off: float         # sigma2 / beta0 / pa (2^-rs - 1)

    def rows(self, x) -> ComplexArray:
        """Unit steering rows of all M+1 directions, (..., M+1, N) for
        positions (..., N)."""
        x = np.asarray(x)
        return np.exp(1j * self.wave_rate * (self.sines[:, None] * x[..., None, :]))

    def threshold(self, bob_gain):
        """bob_gain / 2^rs + sigma2 / beta0 / pa (2^-rs - 1); negative when
        the legitimate link is too weak for rate rs at any eve power."""
        return bob_gain / self.rate_pow + self.noise_off

    def outage(self, w, x) -> float | FloatArray:
        """The closed-form secrecy outage of beams w at placements x, each
        (..., N); ``secrecy_outage_closed_form`` on this gain model, without
        its input checks, since the bisection calls it on its own iterates."""
        return gamma_outage(*self.statistics(power_gains(self.rows(x), w)))

    def statistics(self, gains):
        """lin, quad and the outage threshold of the M+1 gains (..., M+1).

        One lane's gains (M+1,) give Python floats, from the same operations
        in the same order (``ndarray.dot`` of two 1-D arrays runs the dot
        loop of ``np.vecdot``): 0-d numpy arithmetic costs more than the
        math, and the method skips ``np.dot``'s dispatcher.
        """
        eve = gains[..., 1:]
        if gains.ndim == 1:
            return (float(eve.dot(self.lin_coef)) + self.lin_const,
                    float(eve.dot(self.quad_coef)) + self.quad_const,
                    self.threshold(float(gains[0])))
        return (np.vecdot(eve, self.lin_coef) + self.lin_const,
                np.vecdot(eve, self.quad_coef) + self.quad_const,
                self.threshold(gains[..., 0]))


def moment_match(cfg: SystemConfig) -> MomentMatch:
    """The gain model of ``cfg`` per unit beta0, which ``cfg.gain_model``
    builds once; no other code divides by beta0.

    A term out of the float range is a one-line ``ValueError`` naming
    beta0: a c^2 of 0 or a non-finite c^2, c K, 2 c^2 K, sum of c or of
    c^2, or a NaN noise term, which an infinite sigma2 / beta0 / pa gives
    where 2^-rs rounds to 1; elsewhere it is -inf, certain outage.
    """
    k, beta0 = cfg.ks_arr, cfg.beta0
    c = cfg.betas_arr / beta0 / (k + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        c2 = c**2
        lin_coef, quad_coef = c * k, 2.0 * c2 * k
        lin_const, quad_const = float(np.sum(c)), float(np.sum(c2))
    bad = (c2 == 0.0) | ~np.isfinite([c2, lin_coef, quad_coef]).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"eavesdropper {i + 1}: beta={cfg.betas[i]} and K={cfg.ks[i]} put "
            f"the Gamma moment match out of the float range at beta0={beta0}")
    if not (math.isfinite(lin_const) and math.isfinite(quad_const)):
        raise ValueError("betas and ks put the summed Gamma moment match out "
                         f"of the float range at beta0={beta0}")
    rate_pow = 2.0**cfg.rs
    noise_off = cfg.sigma2 / beta0 / cfg.pa * (1.0 / rate_pow - 1.0)
    if math.isnan(noise_off):
        raise ValueError(f"sigma2={cfg.sigma2}, pa={cfg.pa} and rs={cfg.rs} "
                         "make the noise term (sigma2/beta0/pa)*(2**-rs - 1) "
                         f"NaN at beta0={beta0}")
    sines = np.concatenate(([np.sin(cfg.theta0)], np.sin(cfg.thetas_arr)))
    for arr in (sines, c, lin_coef, quad_coef):
        arr.flags.writeable = False
    return MomentMatch(
        sines=sines, wave_rate=TWO_PI / cfg.wavelength, scatter=c,
        lin_coef=lin_coef, lin_const=lin_const, quad_coef=quad_coef,
        quad_const=quad_const, rate_pow=rate_pow, noise_off=noise_off)


def power_gains(rows, w) -> FloatArray:
    """|s_d w|^2 of every row, (..., M+1) for rows (..., M+1, N) and
    beams (..., N)."""
    return np.abs(np.matvec(rows, np.asarray(w))) ** 2


def gamma_outage(lin, quad, thr) -> float | FloatArray:
    """1 - P(lin^2 / quad, thr lin / quad) clamped to [0, 1].

    The outage of a collusion sum with moments (lin, quad) at threshold
    ``thr``; a nonpositive threshold means certain outage.  Arguments
    broadcast; scalars in, float out.
    """
    t = lin / quad * thr
    shape = lin * lin / quad
    p = np.clip(1.0 - lower_incomplete_gamma_reg(shape, t), 0.0, 1.0)
    return float(p) if np.ndim(p) == 0 else p


def link_stats(w, x, cfg: SystemConfig) -> list[EveLinkStats]:
    """Per-eavesdropper conditional power statistics for unit-norm ``w``;
    w and x (N,) are checked by ``model.check_vector``."""
    w, x = check_lane(w, x, cfg)
    gains = power_gains(cfg.gain_model.rows(x), w)[1:]
    out = []
    for gain, beta, k in zip(gains, cfg.betas_arr, cfg.ks_arr):
        mean = beta / (k + 1.0) * (k * gain + 1.0)
        k_eff = k * gain
        m = (k_eff + 1.0) ** 2 / (2.0 * k_eff + 1.0)
        out.append(EveLinkStats(mean_power=float(mean), k_eff=float(k_eff),
                                fading_figure=float(m)))
    return out


def gamma_moments(stats: list[EveLinkStats]) -> GammaMoments:
    """Match a Gamma law to the sum of independent per-eve powers.

    Shape and scale follow from equating the first two moments of the sum:
    shape = (sum mu_i)^2 / sum(mu_i^2 / m_i) and scale its companion, where
    mu_i is the mean power and m_i the fading figure.  The shape never drops
    below 1 because every m_i >= 1.
    """
    means = np.array([s.mean_power for s in stats])
    figures = np.array([s.fading_figure for s in stats])
    second = np.sum(means**2 / figures)
    total = np.sum(means)
    return GammaMoments(shape=float(total**2 / second),
                        scale=float(second / total))


def sum_power_cdf(t: float, moments: GammaMoments) -> float:
    """CDF of the approximated collusion power sum at threshold ``t``."""
    return float(lower_incomplete_gamma_reg(moments.shape, t / moments.scale))


def outage_threshold(w, x, cfg: SystemConfig) -> float:
    """Largest tolerable collusion power before secrecy rate rs is lost.

    Equals beta0 |s_0 w|^2 / 2^rs + (sigma2 / pa) (2^-rs - 1); may be
    negative when the legitimate link is too weak, in which case outage is
    certain.  w and x (N,) are checked by ``model.check_vector``.
    """
    w, x = check_lane(w, x, cfg)
    mm = cfg.gain_model
    return cfg.beta0 * float(mm.statistics(power_gains(mm.rows(x), w))[2])


def secrecy_outage_closed_form(w, x, cfg: SystemConfig) -> float | FloatArray:
    """Closed-form secrecy outage probability under the Gamma approximation.

    Returns 1 - P(shape, scaled_threshold) clamped to [0, 1]; a nonpositive
    threshold means certain outage.  Stacks w, x of shape (B, N) give one
    value per row, each with the bits of that row's own call.  A w or x
    that is not a finite (N,) or (B, N) array, or a complex x, raises a
    one-line ``ValueError`` (``model.check_vector``).
    """
    return cfg.gain_model.outage(*check_lane(w, x, cfg, stacks=True))


def monte_carlo_outage(w, x, cfg: SystemConfig, n_trials: int, seed: int) -> float:
    """Empirical secrecy outage probability over seeded channel draws.

    Trials are generated in fixed chunks of 100000 from one PCG64 stream.
    Each chunk takes the groups of equal scatter variance (module docstring)
    in the order of their first eavesdropper and draws, for each, one
    (chunk,) real block, then one (chunk,) imaginary block of standard
    normals, the group's complex normal, then, for a group of |G| >= 2, one
    (chunk,) block of ``standard_gamma(|G| - 1)``.  The estimate is
    bit-reproducible for a given seed, a longer run starts with the draws
    of a shorter one, and scaling ``w`` by 2 scales every draw by exactly
    4.  Non-finite or mis-shaped ``w``, ``x``, a complex ``x``, an
    ``n_trials`` that is not a positive integer and a ``seed`` that is not
    a non-negative integer (a bool is neither) raise a one-line
    ``ValueError``.
    """
    w, x = _check_draw_args(w, x, cfg, n_trials, seed)
    mm = cfg.gain_model
    rows = mm.rows(x)
    thr = mm.statistics(power_gains(rows, w))[2]    # outage_threshold
    hits = 0
    for powers in _collusion_power_stream(w, rows, cfg, n_trials, seed):
        hits += int(np.count_nonzero(powers >= thr))
    return hits / n_trials


def _check_draw_args(w, x, cfg: SystemConfig, n_trials, seed):
    """(w, x) as arrays after the checks the Monte Carlo entry points share."""
    check_integer("n_trials", n_trials, 1)
    check_integer("seed", seed, 0)
    return check_lane(w, x, cfg)


def _collusion_power_stream(w, rows, cfg: SystemConfig, n_trials: int,
                            seed: int):
    """Yield chunks of sum_i |h_i w|^2 under the documented draw order, for
    the steering rows (M+1, N) of the gain model at the placement."""
    k, b = cfg.ks_arr, cfg.betas_arr / cfg.beta0    # per unit beta0
    los = np.sqrt(k * b / (k + 1.0)) * (rows[1:] @ w)
    # g @ w for g ~ CN(0, I_N) is exactly CN(0, ||w||^2); the groups of
    # equal var_i, each (||los_G||, its real and imaginary std, var, |G| - 1)
    var = cfg.gain_model.scatter * float(np.vdot(w, w).real)
    groups = []
    for v in dict.fromkeys(var.tolist()):
        mu = los[var == v]
        groups.append((math.sqrt(float(mu.real.dot(mu.real)
                                       + mu.imag.dot(mu.imag))),
                       math.sqrt(v / 2.0), v, mu.size - 1))
    rng = np.random.default_rng(seed)
    left = n_trials
    while left > 0:
        chunk = min(left, _MC_CHUNK)
        total = np.zeros(chunk)
        for mean, scale, v, shape in groups:
            re = rng.standard_normal(chunk)
            im = rng.standard_normal(chunk)
            re *= scale
            re += mean
            im *= scale
            total += np.square(re, out=re)
            total += np.square(im, out=im)
            if shape:
                gamma = rng.standard_gamma(shape, chunk)
                gamma *= v
                total += gamma
        yield total
        left -= chunk


def collusion_power_samples(w, x, cfg: SystemConfig, n_trials: int, seed: int) -> FloatArray:
    """Seeded samples of the collusion power sum in the scenario's unit of
    power (same stream and checks as :func:`monte_carlo_outage`)."""
    w, x = _check_draw_args(w, x, cfg, n_trials, seed)
    return cfg.beta0 * np.concatenate(list(_collusion_power_stream(
        w, cfg.gain_model.rows(x), cfg, n_trials, seed)))
