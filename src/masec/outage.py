"""Secrecy-outage statistics of the colluding-eavesdropper downlink.

For a fixed beamformer and antenna placement, each eavesdropper's received
power |h_i w|^2 is noncentral; its Rician structure is summarized by a
Nakagami-style fading figure and the collusion sum is approximated by a
single Gamma distribution through second-moment matching.  That yields a
closed-form secrecy outage probability that the Monte Carlo routine here
cross-checks by direct channel sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .gammainc import lower_incomplete_gamma_reg
from .model import TWO_PI, SystemConfig, check_vector

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
    """The gain model of one config: its M+1 steering directions and the
    Gamma moment match, affine in their LoS power gains.

    Direction 0 is the legitimate user, 1..M the eavesdroppers, and the
    closed-form outage and the ascent's margin depend on (w, x) only through
    the gains |s_d w|^2 of the unit steering rows s_d that ``rows`` builds.
    With c_i = beta_i / (K_i + 1) and g_i eavesdropper i's gain, the
    collusion sum has mean lin = sum_i c_i (K_i g_i + 1) and moment term
    quad = sum_i mean_i^2 / m_i = sum_i c_i^2 (2 K_i g_i + 1), so
    shape = lin^2 / quad and scale = quad / lin.  Both moments are affine
    in the gains, lin = g @ lin_coef + lin_const and likewise quad; the
    coefficients are what the gradients of any function of them need.

    ``threshold`` maps the legitimate gain |h_0 w|^2 (beta0 included) to
    the largest tolerable collusion power at secrecy rate rs.  Every method
    takes stacks over leading axes and reduces each lane on its own (a
    stacked matrix product would round differently), so a lane of a stack
    gets the same bits as the lane alone.
    """

    sines: FloatArray        # sin(theta_d), Bob first, (M+1,)
    wave_rate: float         # 2 pi / wavelength
    beta0: float
    lin_coef: FloatArray     # c_i K_i, (M,)
    lin_const: float         # sum_i c_i
    quad_coef: FloatArray    # 2 c_i^2 K_i, (M,)
    quad_const: float        # sum_i c_i^2
    rate_pow: float          # 2^rs
    noise_off: float         # sigma2 / pa (2^-rs - 1)

    def rows(self, x) -> ComplexArray:
        """Unit steering rows of all M+1 directions, (..., M+1, N) for
        positions (..., N)."""
        x = np.asarray(x)
        return np.exp(1j * self.wave_rate * (self.sines[:, None] * x[..., None, :]))

    def threshold(self, bob_gain):
        """bob_gain / 2^rs + (sigma2 / pa) (2^-rs - 1); negative when the
        legitimate link is too weak for rate rs at any eavesdropper power."""
        return bob_gain / self.rate_pow + self.noise_off

    def statistics(self, gains):
        """lin, quad and the outage threshold of the M+1 gains (..., M+1).

        One lane's gains (M+1,) give Python floats, from the same operations
        in the same order (``np.dot`` of two 1-D arrays runs the dot loop of
        ``np.vecdot``): 0-d numpy arithmetic costs more than the math.
        """
        eve = gains[..., 1:]
        if gains.ndim == 1:
            return (float(np.dot(eve, self.lin_coef)) + self.lin_const,
                    float(np.dot(eve, self.quad_coef)) + self.quad_const,
                    self.threshold(self.beta0 * float(gains[0])))
        return (np.vecdot(eve, self.lin_coef) + self.lin_const,
                np.vecdot(eve, self.quad_coef) + self.quad_const,
                self.threshold(self.beta0 * gains[..., 0]))


def moment_match(cfg: SystemConfig) -> MomentMatch:
    """The gain model of ``cfg``."""
    c = cfg.betas_arr / (cfg.ks_arr + 1.0)
    rate_pow = 2.0**cfg.rs
    return MomentMatch(
        sines=np.concatenate(([np.sin(cfg.theta0)], np.sin(cfg.thetas_arr))),
        wave_rate=TWO_PI / cfg.wavelength, beta0=cfg.beta0,
        lin_coef=c * cfg.ks_arr, lin_const=float(np.sum(c)),
        quad_coef=2.0 * c**2 * cfg.ks_arr, quad_const=float(np.sum(c**2)),
        rate_pow=rate_pow,
        noise_off=cfg.sigma2 / cfg.pa * (1.0 / rate_pow - 1.0))


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
    """Per-eavesdropper conditional power statistics for unit-norm ``w``."""
    gains = power_gains(moment_match(cfg).rows(x), w)[1:]
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
    if t <= 0.0:
        return 0.0
    return float(lower_incomplete_gamma_reg(moments.shape, t / moments.scale))


def outage_threshold(w, x, cfg: SystemConfig) -> float:
    """Largest tolerable collusion power before secrecy rate rs is lost.

    Equals bob_gain / 2^rs + (sigma2 / pa) (2^-rs - 1); may be negative
    when the legitimate link is too weak, in which case outage is certain.
    """
    mm = moment_match(cfg)
    return float(mm.statistics(power_gains(mm.rows(x), w))[2])


def secrecy_outage_closed_form(w, x, cfg: SystemConfig) -> float | FloatArray:
    """Closed-form secrecy outage probability under the Gamma approximation.

    Returns 1 - P(shape, scaled_threshold) clamped to [0, 1]; a nonpositive
    threshold means certain outage.  Stacks w, x of shape (B, N) give one
    value per row, each with the bits of that row's own call.
    """
    mm = moment_match(cfg)
    return gamma_outage(*mm.statistics(power_gains(mm.rows(x), w)))


def monte_carlo_outage(w, x, cfg: SystemConfig, n_trials: int, seed: int) -> float:
    """Empirical secrecy outage probability over seeded channel draws.

    Trials are generated in fixed chunks of 100000 from one PCG64 stream.
    Each chunk draws one (chunk, M) real block, then one (chunk, M)
    imaginary block of standard normals: one CN(0, ||w||^2) scatter term
    per eavesdropper, the law of the scatter vector projected onto ``w``.
    The estimate is bit-reproducible for a given seed, and a longer run
    starts with the draws of a shorter one.  Non-finite or mis-shaped
    ``w``, ``x``, a complex ``x`` and an ``n_trials`` that is not a
    positive integer raise ``ValueError``.
    """
    w, x = _check_draw_args(w, x, cfg, n_trials)
    thr = outage_threshold(w, x, cfg)
    if thr <= 0.0:
        return 1.0
    hits = 0
    for powers in _collusion_power_stream(w, x, cfg, n_trials, seed):
        hits += int(np.count_nonzero(powers >= thr))
    return hits / n_trials


def _check_draw_args(w, x, cfg: SystemConfig, n_trials):
    """(w, x) as arrays after the checks the Monte Carlo entry points share."""
    if (isinstance(n_trials, bool)
            or not isinstance(n_trials, (int, np.integer)) or n_trials < 1):
        raise ValueError(
            f"n_trials must be a positive integer, got {n_trials!r}")
    n = cfg.n_antennas
    return check_vector("w", w, n), check_vector("x", x, n, real=True)


def _collusion_power_stream(w, x, cfg: SystemConfig, n_trials: int, seed: int):
    """Yield chunks of sum_i |h_i w|^2 under the documented draw order."""
    los_proj = moment_match(cfg).rows(x)[1:] @ w
    k, b = cfg.ks_arr, cfg.betas_arr
    los_part = np.sqrt(k * b / (k + 1.0)) * los_proj
    # g @ w for g ~ CN(0, I_N) is exactly CN(0, ||w||^2), independently per
    # eavesdropper, so one complex normal per eavesdropper replaces N
    scale = np.sqrt(b / (k + 1.0)) * np.linalg.norm(w) / np.sqrt(2.0)
    rng = np.random.default_rng(seed)
    left = n_trials
    while left > 0:
        chunk = min(left, _MC_CHUNK)
        re = rng.standard_normal((chunk, cfg.n_eves))
        im = rng.standard_normal((chunk, cfg.n_eves))
        re *= scale
        re += los_part.real
        im *= scale
        im += los_part.imag
        yield np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)
        left -= chunk


def collusion_power_samples(w, x, cfg: SystemConfig, n_trials: int, seed: int) -> FloatArray:
    """Seeded samples of the collusion power sum (same stream as the MC)."""
    w, x = _check_draw_args(w, x, cfg, n_trials)
    return np.concatenate(
        list(_collusion_power_stream(w, x, cfg, n_trials, seed)))
